"""Benchmark harness and CLI.

Sweeps the three engines (exact diagonalization, Suzuki-Trotter contraction,
operator belief propagation) over an inverse-temperature grid, compares each
reduced state against the exact-diagonalization reference with fidelity and
trace distance, and writes one CSV row per (beta, method, slices) point.
Also tabulates the closed-form operation counts of both approximate engines
against measured wall times, read off one-beta sweeps, so one function
(``_run_row``) builds, times and scores the rows of both tables.

The library API is 0-based; the CLI and config files use 1-based site
labels (``--keep 1,2`` keeps the first two sites).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import linalg, metrics, qbp, spinchain, trotter

KNOWN_METHODS = ("exact", "st", "qbp")
# Every sweep scores against the dense 2^N x 2^N exact state: --sites 12 peaks at 442 MB,
# and at N = 13 each dense array (the state, st's W) is 512 MiB or more, so it is refused.
MAX_SITES = 12


def _check_beta(beta: float, name: str) -> None:
    """Reject an inverse temperature that is not finite and >= 0; ``name`` labels it."""
    if not (np.isfinite(beta) and beta >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {beta}")


def _check_distinct(values: tuple, name: str) -> None:
    """Reject a list that names a value twice, which would repeat its rows."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{name} must not repeat a value, got {repeated} more than once")


def _check_slices(slices: tuple, name: str) -> None:
    """Reject a Trotter slice count below 1 or given twice; ``name`` labels the list."""
    if any(n < 1 for n in slices):
        raise ValueError(f"{name} must all be >= 1, got {slices}")
    _check_distinct(slices, name)


@dataclass
class SweepConfig:
    """One sweep: a model family, a beta grid, engines to run, output options.

    ``model_keys`` describe the model as ``spinchain.model_from_keys`` reads
    them; the sweep sets their ``sites`` and ``beta``.  ``keep`` uses 0-based
    site indices.  ``time_repeats`` is the number of timed repetitions per
    row (median reported); 0 disables timing and writes 0.0, which makes the
    CSV bytes reproducible across runs.  These are the sweep's only defaults:
    the CLI sets just the fields it is given.
    """

    sites: int = 3
    beta_min: float = 0.2
    beta_max: float = 2.0
    beta_steps: int = 10
    methods: tuple = KNOWN_METHODS
    st_slices: tuple = (20, 100)
    keep: tuple = (0, 1)
    out: str | None = None
    time_repeats: int = 5
    couplings: tuple | None = None
    model_keys: dict = field(default_factory=dict)

    def validate(self) -> None:
        for name, counts in [("sites", [self.sites]), ("beta-steps", [self.beta_steps]),
                             ("time-repeats", [self.time_repeats]), ("st-slices", self.st_slices),
                             ("keep", self.keep)]:
            for n in counts:
                linalg.require_int(n, name)
        if self.sites < 2:
            raise ValueError(f"sites must be >= 2, got {self.sites}")
        if self.sites > MAX_SITES:
            raise ValueError(f"sites must be <= {MAX_SITES}, got {self.sites}: every sweep "
                             "scores against the dense 2^sites x 2^sites exact state")
        spinchain.model_from_keys({**self.model_keys, "sites": str(self.sites)})  # checks the keys
        if self.couplings is not None and len(self.couplings) != self.sites - 1:
            raise ValueError(f"expected {self.sites - 1} couplings, got {len(self.couplings)}")
        if self.beta_steps < 1:
            raise ValueError(f"beta-steps must be >= 1, got {self.beta_steps}")
        _check_beta(self.beta_min, "beta-min")
        if not np.isfinite(self.beta_max):
            raise ValueError(f"beta-max must be finite, got {self.beta_max}")
        if self.beta_steps > 1 and self.beta_max <= self.beta_min:
            raise ValueError("beta-max must exceed beta-min for a multi-point grid")
        bad = [m for m in self.methods if m not in KNOWN_METHODS]
        if bad:
            raise ValueError(f"unknown methods {bad}; choose from {list(KNOWN_METHODS)}")
        if not self.methods:
            raise ValueError("at least one method is required")
        _check_distinct(self.methods, "methods")
        _check_slices(self.st_slices, "st-slices")
        if "st" in self.methods and not self.st_slices:
            raise ValueError("method 'st' requires at least one slice count")
        keep = sorted(set(self.keep))
        if not keep or keep[0] < 0 or keep[-1] >= self.sites:
            raise ValueError(f"keep sites {self.keep} out of range for {self.sites} sites")
        _check_distinct(tuple(k + 1 for k in self.keep), "keep (1-based site labels)")
        if self.time_repeats < 0:
            raise ValueError(f"time-repeats must be >= 0, got {self.time_repeats}")
        if self.out:
            # checked before any row runs, without creating or truncating the file
            if os.path.exists(self.out):
                writable = not os.path.isdir(self.out) and os.access(self.out, os.W_OK)
            else:
                parent = os.path.dirname(self.out) or "."
                writable = os.path.isdir(parent) and os.access(parent, os.W_OK)
            if not writable:
                raise ValueError(
                    f"out must name a writable file in an existing directory, got {self.out!r}"
                )

    def beta_grid(self) -> list[float]:
        return [float(b) for b in np.linspace(self.beta_min, self.beta_max, self.beta_steps)]


@dataclass
class SweepRecord:
    """One CSV row; metric fields are None when the engine failed."""

    beta: float
    method: str
    n_slices: int | None
    fidelity: float | None
    trace_distance: float | None
    iterations: int
    wall_time_ms: float
    opcount: int
    status: str = "ok"


CSV_HEADER = ",".join(f.name for f in fields(SweepRecord))


def _timed(fn, repeats: int):
    """Run ``fn``; with repeats > 0 rerun it and report the median time in ms."""
    value = fn()
    if repeats <= 0:
        return value, 0.0
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        times.append((time.perf_counter() - start) * 1e3)
    return value, float(statistics.median(times))


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Produce one record per (beta, method[, slices]), sorted for stable CSV.

    The exact row runs first, and the other rows of its beta are scored against
    its state; without an exact row, an untimed exact call gives the reference.
    If the reference fails, so does every other row of its beta.
    """
    config.validate()
    keep = tuple(sorted(set(config.keep)))
    methods = sorted(config.methods, key=lambda m: m != "exact")
    # couplings, kept for the benchmark's callers, as the J_<i> keys they equal
    keys = {**config.model_keys,
            **{f"J_{k}": repr(float(j)) for k, j in enumerate(config.couplings or (), 1)}}
    records = []
    for beta in config.beta_grid():
        model = spinchain.model_from_keys({**keys, "sites": str(config.sites), "beta": repr(beta)})
        reference = None
        if methods[0] != "exact":
            try:
                reference = _reduced(model, keep, "exact", None)[0]
            except Exception as exc:  # each row of this beta fails, naming it
                reference = exc
        for method in methods:
            for n in config.st_slices if method == "st" else (None,):
                record, state = _run_row(config, model, reference, keep, method, n)
                if method == "exact":
                    reference = state
                records.append(record)
    records.sort(key=lambda r: (r.beta, r.method, r.n_slices or 0))
    return records


def _reduced(model, keep: tuple, method: str, n_slices) -> tuple:
    """The call a sweep row times: (reduced state on the sorted ``keep``, iterations, status)."""
    if method == "exact":
        rho = spinchain.exact_gibbs(model)
        return linalg.partial_trace(rho, [2] * model.n_sites, keep), 0, "ok"
    if method == "st":
        return trotter.st_reduced(trotter.trotter_plan(model, n_slices), keep), n_slices, "ok"
    result = qbp.qbp_run(model)  # its default tolerance and evaluation budget
    status = "ok" if result.converged else f"not-converged(residual={result.residual:.3e})"
    if len(keep) == 1:
        return result.beliefs_single[keep[0]], result.iterations, status
    if len(keep) == 2 and keep[1] == keep[0] + 1:
        return result.beliefs_pair[keep], result.iterations, status
    raise ValueError(f"qbp produces single-site and adjacent-pair beliefs only, cannot keep {keep}")


def _run_row(config, model, reference, keep, method, n_slices) -> tuple:
    """The row's SweepRecord and its reduced state (None if the row failed).

    The exact row is scored against its own state, any other against ``reference``.
    """
    iterations = opcount = 0
    try:
        if method == "st" and n_slices >= 3:
            opcount = trotter.st_opcount(n_slices, config.sites)
        elif method == "qbp":
            opcount = qbp.qbp_opcount(config.sites)
        if method != "exact" and not isinstance(reference, np.ndarray):
            raise ValueError(f"no exact reference state: {reference or 'the exact row failed'}")
        (state, iterations, status), wall_ms = _timed(
            lambda: _reduced(model, keep, method, n_slices), config.time_repeats)
        fid, dist = metrics.scores(state, state if method == "exact" else reference)
    except Exception as exc:
        status = f"error: {exc}".replace(",", ";").replace("\n", " ")
        state = fid = dist = None
        wall_ms = 0.0
    record = SweepRecord(
        model.beta, method, n_slices, fid, dist, iterations, wall_ms, opcount, status
    )
    return record, state


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def format_csv(records: list[SweepRecord]) -> str:
    lines = [CSV_HEADER] + [",".join(map(_fmt, astuple(r))) for r in records]
    return "\n".join(lines) + "\n"


def emit_csv(records: list[SweepRecord], path) -> None:
    """Write the sweep CSV (UTF-8, LF); refuses to create a file for no rows."""
    if not records:
        raise ValueError("no records to write")
    text = format_csv(records)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def complexity_table(sites_list, slices_list, beta: float, time_repeats: int) -> tuple:
    """Closed-form operation counts next to measured wall times: the table's text
    and the (label, status) pair of each line whose sweep rows failed.

    Each site count is a one-beta sweep of ``st`` at every slice count and of
    ``qbp``, at the sweep's defaults otherwise, validated before any sweep runs.
    A line reads that sweep's qbp record and one st record, in the order the
    slice counts are given, so both tables time and score the same calls.
    ``qbp total`` is the qbp row's sweep count times its per-sweep opcount.
    """
    configs = [
        SweepConfig(sites=sites, beta_min=beta, beta_steps=1, methods=("st", "qbp"),
                    st_slices=tuple(slices_list), time_repeats=time_repeats)
        for sites in sites_list
    ]
    for config in configs:
        config.validate()
    lines = [f"{'sites':>5} {'slices':>6} {'qbp/sweep':>10} {'qbp total':>10} {'st ops':>10} {'qbp ms':>10} {'st ms':>10}"]
    failures = []
    for config in configs:
        q, *st = run_sweep(config)  # one beta, so the qbp record sorts first
        st = {s.n_slices: s for s in st}
        for s in (st[n] for n in config.st_slices):
            lines.append(
                f"{config.sites:>5} {s.n_slices:>6} {q.opcount:>10} {q.iterations * q.opcount:>10} "
                f"{s.opcount:>10} {q.wall_time_ms:>10.3f} {s.wall_time_ms:>10.3f}"
            )
            status = "; ".join(f"{r.method}: {r.status}" for r in (q, s) if r.status != "ok")
            if status:
                failures.append((f"sites={config.sites}, slices={s.n_slices}", status))
    return "\n".join(lines) + "\n", failures


# ---------------------------------------------------------------------------
# CLI


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        # argparse prints the message of this error type, not of a ValueError
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from None


def _parse_int_range(text: str, flag: str) -> tuple:
    """Accept 'a-b' (inclusive) or a comma-separated list."""
    text = text.strip()
    try:
        if "-" not in text or "," in text:
            values = _parse_int_list(text)
        else:
            lo, _, hi = text.partition("-")
            values = tuple(range(int(lo), int(hi) + 1))
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"{flag}: expected a range (2-6) or a list (3,5), got {text!r}") from None
    if not values:
        raise ValueError(f"{flag}: empty range {text!r}")
    return values


def _parse_keep(text: str) -> tuple:
    labels = _parse_int_list(text)
    if any(l < 1 for l in labels):
        raise argparse.ArgumentTypeError(f"site labels are 1-based, got {text!r}")
    return tuple(l - 1 for l in labels)


_SWEEP_FIELDS = frozenset(f.name for f in fields(SweepConfig))


def _build_sweep_config(sweep_parser: argparse.ArgumentParser, args) -> SweepConfig:
    """The SweepConfig of the flags given, with unset flags taken from ``--config``.

    A config-file key is a sweep flag without its dashes, converted by that
    flag's own type.  Every other key is a model key, which
    ``spinchain.model_from_keys``, the one model reader, checks.  A bare
    ``beta`` key gives a single-point grid unless a grid flag or key is set.
    """
    values = {k: v for k, v in vars(args).items() if k in _SWEEP_FIELDS and v is not None}
    model_keys = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_keys = spinchain.parse_key_values(fh.read())
        for key, text in file_keys.items():
            action = sweep_parser._option_string_actions.get("--" + key)
            if action is None or action.dest not in _SWEEP_FIELDS:
                model_keys[key] = text
            elif action.dest not in values:
                try:
                    values[action.dest] = action.type(text) if action.type else text
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise ValueError(f"config file, key {key!r}: {exc}") from None
    config = SweepConfig(**values, model_keys=model_keys)
    if "beta" in model_keys and not values.keys() & {"beta_min", "beta_max", "beta_steps"}:
        config.validate()  # a bad beta key is named before it is read here
        config.beta_min = config.beta_max = float(model_keys["beta"])
        config.beta_steps = 1
    return config


def _make_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The spinbp parser and its ``sweep`` subparser."""
    parser = argparse.ArgumentParser(
        prog="spinbp",
        description="Gibbs-state engines for Heisenberg chains: sweep and compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a beta sweep and write CSV")
    sweep.add_argument("--sites", type=int, help="chain length (default 3)")
    sweep.add_argument("--beta-min", type=float, dest="beta_min")
    sweep.add_argument("--beta-max", type=float, dest="beta_max")
    sweep.add_argument("--beta-steps", type=int, dest="beta_steps")
    sweep.add_argument(
        "--methods", type=lambda t: tuple(tok for tok in t.split(",") if tok),
        help="comma list from exact,st,qbp",
    )
    sweep.add_argument(
        "--st-slices", dest="st_slices", type=_parse_int_list,
        help="comma list of slice counts",
    )
    sweep.add_argument(
        "--keep", type=_parse_keep,
        help="1-based site labels of the reduced state (default 1,2)",
    )
    sweep.add_argument("--out", help="CSV output path (default: print to stdout)")
    sweep.add_argument(
        "--time-repeats", type=int, dest="time_repeats",
        help="timed repetitions per row; 0 for reproducible output (default 5)",
    )
    sweep.add_argument("--config", help="key=value file; explicit flags win")

    comp = sub.add_parser("complexity", help="tabulate operation counts vs wall time")
    comp.add_argument("--sites", default="3", help="range like 3-6 or comma list")
    comp.add_argument("--slices", default="20", help="range like 10-40 or comma list")
    comp.add_argument("--beta", type=float, default=1.0)
    comp.add_argument("--time-repeats", type=int, dest="time_repeats", default=3)
    return parser, sweep


def main(argv=None) -> int:
    parser, sweep_parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            config = _build_sweep_config(sweep_parser, args)
            records = run_sweep(config)
            failures = [
                (f"beta={r.beta:g}, {r.method}" + (f", n={r.n_slices}" if r.n_slices else ""),
                 r.status)
                for r in records if r.status != "ok"
            ]
        else:
            _check_beta(args.beta, "--beta")
            sites = _parse_int_range(args.sites, "--sites")
            _check_distinct(sites, "--sites")
            slices = _parse_int_range(args.slices, "--slices")
            _check_slices(slices, "--slices")
            text, failures = complexity_table(sites, slices, args.beta, args.time_repeats)
    except (ValueError, OSError) as exc:
        print(f"spinbp: config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "complexity":
        sys.stdout.write(text)
    elif config.out:
        emit_csv(records, config.out)
        print(f"wrote {len(records)} rows to {config.out}")
    else:
        sys.stdout.write(format_csv(records))
    for label, status in failures:
        print(f"spinbp: row ({label}): {status}", file=sys.stderr)
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
