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
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import linalg, metrics, qbp, spinchain, trotter

KNOWN_METHODS = ("exact", "st", "qbp")


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

    ``keep`` uses 0-based site indices.  ``time_repeats`` is the number of
    timed repetitions per row (median reported); 0 disables timing and
    writes 0.0, which makes the CSV bytes reproducible across runs.  These
    are the sweep's only defaults: the CLI sets just the fields it is given.
    """

    sites: int = 3
    beta_min: float = 0.2
    beta_max: float = 2.0
    beta_steps: int = 10
    methods: tuple = KNOWN_METHODS
    st_slices: tuple = (20, 100)
    qbp_tol: float = qbp.DEFAULT_TOL
    qbp_max_iters: int = qbp.DEFAULT_MAX_ITERS
    qbp_damping: float = qbp.DEFAULT_DAMPING
    keep: tuple = (0, 1)
    out: str | None = None
    time_repeats: int = 5
    couplings: tuple | None = None

    def validate(self) -> None:
        if self.sites < 2:
            raise ValueError(f"sites must be >= 2, got {self.sites}")
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
        qbp.check_options(self.qbp_max_iters, self.qbp_tol, self.qbp_damping)
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
        if self.beta_steps == 1:
            return [float(self.beta_min)]
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


def _qbp_state(result: qbp.QbpResult, keep: tuple) -> np.ndarray:
    keep = tuple(sorted(set(keep)))
    if len(keep) == 1:
        return result.beliefs_single[keep[0]]
    if len(keep) == 2 and keep[1] == keep[0] + 1:
        return result.beliefs_pair[keep]
    raise ValueError(
        f"qbp produces single-site and adjacent-pair beliefs only, cannot keep {keep}"
    )


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
    """
    config.validate()
    keep = tuple(sorted(set(config.keep)))
    methods = sorted(config.methods, key=lambda m: m != "exact")
    records = []
    for beta in config.beta_grid():
        model = spinchain.heisenberg_chain(config.sites, beta, config.couplings)
        reference = None
        if methods[0] != "exact":
            reference, _, _ = _engine_call(config, model, keep, "exact", None)()
        for method in methods:
            for n in config.st_slices if method == "st" else (None,):
                record, state = _run_row(config, model, reference, keep, method, n)
                if method == "exact":
                    reference = state
                records.append(record)
    records.sort(key=lambda r: (r.beta, r.method, r.n_slices or 0))
    return records


def _engine_call(config: SweepConfig, model, keep: tuple, method: str, n_slices):
    """The call a sweep row times; it returns (reduced state on ``keep``, iterations, status)."""
    if method == "exact":
        return lambda: (
            linalg.partial_trace(spinchain.exact_gibbs(model), [2] * model.n_sites, keep), 0, "ok"
        )
    if method == "st":
        return lambda: (
            trotter.st_reduced(trotter.trotter_plan(model, n_slices), keep), n_slices, "ok"
        )
    if method == "qbp":
        def compute():
            result = qbp.qbp_run(
                model,
                max_iters=config.qbp_max_iters,
                tol=config.qbp_tol,
                damping=config.qbp_damping,
            )
            status = "ok" if result.converged else f"not-converged(residual={result.residual:.3e})"
            return _qbp_state(result, keep), result.iterations, status
        return compute
    raise ValueError(f"unknown method {method!r}")  # pragma: no cover - validate() rejects this


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
        if method != "exact" and reference is None:
            raise ValueError("no exact reference state: the exact row failed")
        compute = _engine_call(config, model, keep, method, n_slices)
        (state, iterations, status), wall_ms = _timed(compute, config.time_repeats)
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


@dataclass
class ComplexityRow:
    """Operation counts and wall times for one (sites, slices) grid point;
    ``status`` is "ok" or names each of its two sweep rows that failed."""

    sites: int
    slices: int
    qbp_ops_per_sweep: int
    qbp_ops_total: int
    st_ops: int
    qbp_wall_ms: float
    st_wall_ms: float
    status: str = "ok"


def compare_complexity(
    sites_list, slices_list, beta: float = 1.0, time_repeats: int = 3
) -> list[ComplexityRow]:
    """Closed-form operation counts next to measured wall times.

    Each site count is a one-beta sweep of ``st`` at every slice count and of
    ``qbp``, with the sweep's defaults otherwise, so a row reads the opcounts
    and wall times of its qbp record and one st record: both tables time the
    same calls, and the rows are scored against the exact state as sweep rows
    are.  Every site count's config is validated before any sweep runs.  The
    belief-propagation total is the qbp row's sweep count times its
    per-sweep opcount.
    """
    configs = [
        SweepConfig(sites=sites, beta_min=beta, beta_steps=1, methods=("st", "qbp"),
                    st_slices=tuple(slices_list), time_repeats=time_repeats)
        for sites in sites_list
    ]
    for config in configs:
        config.validate()
    rows = []
    for config in configs:
        records = run_sweep(config)
        (q,) = [r for r in records if r.method == "qbp"]
        st = {r.n_slices: r for r in records if r.method == "st"}
        for s in (st[n] for n in config.st_slices):
            status = "; ".join(f"{r.method}: {r.status}" for r in (q, s) if r.status != "ok")
            rows.append(ComplexityRow(
                config.sites, s.n_slices, q.opcount, q.iterations * q.opcount, s.opcount,
                q.wall_time_ms, s.wall_time_ms, status or "ok",
            ))
    return rows


def format_complexity(rows: list[ComplexityRow]) -> str:
    header = f"{'sites':>5} {'slices':>6} {'qbp/sweep':>10} {'qbp total':>10} {'st ops':>10} {'qbp ms':>10} {'st ms':>10}"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.sites:>5} {r.slices:>6} {r.qbp_ops_per_sweep:>10} {r.qbp_ops_total:>10} "
            f"{r.st_ops:>10} {r.qbp_wall_ms:>10.3f} {r.st_wall_ms:>10.3f}"
        )
    return "\n".join(lines) + "\n"


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
            return _parse_int_list(text)
        lo, _, hi = text.partition("-")
        lo_i, hi_i = int(lo), int(hi)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"{flag}: expected a range (2-6) or a list (3,5), got {text!r}") from None
    if hi_i < lo_i:
        raise ValueError(f"{flag}: empty range {text!r}")
    return tuple(range(lo_i, hi_i + 1))


def _parse_keep(text: str) -> tuple:
    labels = _parse_int_list(text)
    if any(l < 1 for l in labels):
        raise argparse.ArgumentTypeError(f"site labels are 1-based, got {text!r}")
    return tuple(l - 1 for l in labels)


_SWEEP_FIELDS = frozenset(f.name for f in fields(SweepConfig))


def _build_sweep_config(sweep_parser: argparse.ArgumentParser, args) -> SweepConfig:
    """The SweepConfig of the flags given, with unset flags taken from ``--config``.

    A config-file key is a sweep flag without its dashes, converted by that
    flag's own type.  Every other key goes to ``spinchain.model_from_keys``,
    which checks and reads it as ``load_model`` does.  A bare ``beta`` key
    gives a single-point grid unless a grid flag or key is set.
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
    config = SweepConfig(**values)
    if model_keys:
        config.validate()  # the keys are read against a valid site count
        model = spinchain.model_from_keys({**model_keys, "sites": str(config.sites)})
        config.couplings = tuple(spinchain.couplings_from_keys(model_keys, config.sites))
        if "beta" in model_keys and not values.keys() & {"beta_min", "beta_max", "beta_steps"}:
            config.beta_min = config.beta_max = model.beta
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
    sweep.add_argument("--qbp-tol", type=float, dest="qbp_tol")
    sweep.add_argument("--qbp-max-iters", type=int, dest="qbp_max_iters")
    sweep.add_argument("--qbp-damping", type=float, dest="qbp_damping")
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
        else:
            _check_beta(args.beta, "--beta")
            sites = _parse_int_range(args.sites, "--sites")
            _check_distinct(sites, "--sites")
            slices = _parse_int_range(args.slices, "--slices")
            _check_slices(slices, "--slices")
            rows = compare_complexity(sites, slices, beta=args.beta, time_repeats=args.time_repeats)
    except (ValueError, OSError) as exc:
        print(f"spinbp: config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "complexity":
        sys.stdout.write(format_complexity(rows))
        failures = [
            (f"sites={r.sites}, slices={r.slices}", r.status) for r in rows if r.status != "ok"
        ]
    else:
        if config.out:
            emit_csv(records, config.out)
            print(f"wrote {len(records)} rows to {config.out}")
        else:
            sys.stdout.write(format_csv(records))
        failures = [
            (f"beta={r.beta:g}, {r.method}" + (f", n={r.n_slices}" if r.n_slices else ""),
             r.status)
            for r in records if r.status != "ok"
        ]
    for label, status in failures:
        print(f"spinbp: row ({label}): {status}", file=sys.stderr)
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
