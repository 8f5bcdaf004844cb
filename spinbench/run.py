#!/usr/bin/env python3
"""Benchmark of the spinbp engines on beta-sweep workloads.

Run from the repository root:

    python3 spinbench/run.py --workload st-heis-n8 --seed 1 --seconds 25 --trace 0

A workload is a beta grid times the engines ``exact``, ``st`` (once per slice
count) and ``qbp``.  Each row reduces its engine's Gibbs state onto sites
(0, 1) and scores it against ``exact`` with fidelity and trace distance.  A
pass runs every row back to back, building fresh models; after one untimed
warm-up pass, passes repeat in a closed loop (one process, one thread, BLAS
pinned to one thread) until ``--seconds`` have elapsed.  The seed draws the
per-bond couplings J_k in [0.9, 1.1]; the engines only see the built models.

Untraced passes time the top-level public call of each engine.  ``--trace 0``
prints the end-to-end metrics; ``sweep_s`` (the median over rounds of at
least 0.25 s of the mean pass time) and ``setup_s`` are adjusted to a
reference host speed measured beside them (see hostspeed.py), and the raw
times are in the details.  ``--trace 1`` alternates untraced passes with
traced ones, which record spans around each spinbp call, and prints the
per-engine and per-module metrics; the spans are written to ``.spinbench/``
at exit.

Every run checks its outputs (see ``run_checks``) and exits 1 when a check
fails.  A row whose engine raises, whose state the metrics reject, or whose
qbp iteration did not converge is a failed row, as in the CLI's ``status``
column: it lowers ``ok_ratio`` but does not fail the run.  The result's
``failed`` counts only rows whose engine raised.  The last line of stdout is
the result object; the line before it holds the details (host, seed,
couplings, percentiles and sample counts, per-row figures, checks).
"""

import os

# BLAS is pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".spinbench"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import spinbp
from spinbp import bench, cbp, linalg, metrics, qbp, spinchain, trotter
from hostspeed import adjusted, reference_kernel_s
from tracing import Tracer, span, span_cost_s, write_spans

if not Path(spinbp.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"spinbench: spinbp imported from {spinbp.__file__}, not from {ROOT / 'src'}")

KEEP = (0, 1)
SETUP_RUNS = 3
SETUP_SECONDS = 4.0
# Untraced passes are grouped into rounds of at least this long; the host's
# speed is measured after each round (see hostspeed.py).  Short rounds keep
# the reference kernel close in time to the passes it adjusts: on
# sweep-heis-n3, 8 seeds gave a spread of 0.044 with 0.25 s rounds against
# 0.065 with 2 s rounds, run alternately.
ROUND_SECONDS = 0.25
# The README's claim for st with 100 slices on the Heisenberg chain.
ST100_MIN_FIDELITY = 0.9999
# Ceilings on the trace distance to exact of every scored row, so that speed
# bought with accuracy fails a check.  st's Trotter error goes as
# (beta/n_slices)^2: trace distance / (beta/n)^2 was at most 0.47 over 36
# seeds on both Heisenberg workloads and 0.52 with couplings alternating
# 0.9/1.1, the worst case found.  The qbp ceilings (Workload.qbp_td_max) sit
# about 20% above that worst case (0.21, 0.23 and 0.33).
ST_TD_COEFF = 0.6
# qbp's trace distance hardly moves with its tolerance, so the ceilings do not
# catch a looser tolerance or a smaller sweep budget; this check does: a qbp
# row converges below QBP_TOL or runs at least QBP_MIN_SWEEPS sweeps (spinbp's
# defaults when the benchmark was defined).
QBP_TOL = 1e-10
QBP_MIN_SWEEPS = 500

XXZ_DELTA = 0.5
XXZ_FIELD = 0.3
_SX, _SY, _SZ, _I2 = spinchain.SIGMA_X, spinchain.SIGMA_Y, spinchain.SIGMA_Z, spinchain.IDENTITY_2
XXZ_EXCHANGE = (linalg.kron(_SX, _SX) + linalg.kron(_SY, _SY)
                + XXZ_DELTA * linalg.kron(_SZ, _SZ))
XXZ_ZEEMAN = (XXZ_FIELD / 2) * (linalg.kron(_SZ, _I2) + linalg.kron(_I2, _SZ))


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "heisenberg" or "xxz"
    sites: int
    betas: tuple
    st_slices: tuple
    qbp_td_max: float

    def row_specs(self) -> list:
        return [("exact", None)] + [("st", n) for n in self.st_slices] + [("qbp", None)]


# st-heis-n8: the st contraction dominates; qbp stops after one sweep on the
#   SU(2)-symmetric chain, so the qbp iteration is bypassed.
# qbp-xxz-n8: the qbp iteration dominates (hundreds of sweeps); its st rows
#   and its beta=2 qbp row fail today and stay visible.
# sweep-heis-n3: the README's default sweep; 8x8 matrices, so per-call
#   overhead dominates and a rewrite that only pays off at large N shows here.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("st-heis-n8", "heisenberg", 8, (1.0, 2.0), (20, 100), 0.26),
        Workload("qbp-xxz-n8", "xxz", 8, (0.5, 1.0, 2.0), (20,), 0.28),
        Workload("sweep-heis-n3", "heisenberg", 3,
                 tuple(bench.SweepConfig().beta_grid()), (20, 100), 0.39),
    )
}

E2E_UNITS = {"sweep_s": "s", "ok_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-engine times are layer metrics: on st-heis-n8 the two qbp rows take
# about 10 ms of a 2 s pass, too few samples per run for a bounded metric.
LAYER_UNITS = {
    "exact_s": "s",
    "st_s": "s",
    "qbp_s": "s",
    "spinchain.exact_gibbs_ms": "ms",
    "trotter.plan_ms": "ms",
    "trotter.weights_ms": "ms",
    "trotter.opcount": "count",
    "trotter.hermiticity_residue_max": "1",
    "trotter.trace_distance_max": "1",
    "cbp.chain_ms": "ms",
    "cbp.ops_per_s": "1/s",
    "linalg.partial_trace_ms": "ms",
    "qbp.run_ms": "ms",
    "qbp.sweeps": "count",
    "qbp.sweep_ms": "ms",
    "qbp.ops_per_s": "1/s",
    "qbp.update_edge_us": "us",
    "qbp.converged_ratio": "ratio",
    "qbp.residual_max": "1",
    "qbp.trace_distance_max": "1",
    "metrics.fidelity_ms": "ms",
    "metrics.trace_distance_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclass
class Row:
    beta: float
    method: str
    n_slices: int | None
    state: np.ndarray | None = None
    engine_s: float = 0.0
    fidelity: float | None = None
    trace_distance: float | None = None
    status: str = "ok"
    raised: bool = False
    sweeps: int = 0
    converged: bool = True
    residual: float = 0.0
    density: np.ndarray | None = None  # st_density output, kept by traced st rows

    @property
    def label(self) -> str:
        return f"beta={self.beta:g} {self.method}" + (f" n={self.n_slices}" if self.n_slices else "")

    def outcome(self) -> tuple:
        return (self.status, self.fidelity, self.trace_distance, self.sweeps)


def draw_couplings(seed: int, sites: int) -> tuple:
    return tuple(float(j) for j in np.random.default_rng(seed).uniform(0.9, 1.1, sites - 1))


def build_model(workload: Workload, beta: float, couplings: tuple) -> spinchain.SpinChainModel:
    if workload.model == "heisenberg":
        return spinchain.heisenberg_chain(workload.sites, beta, couplings)
    terms = tuple(j * XXZ_EXCHANGE + XXZ_ZEEMAN for j in couplings)
    return spinchain.SpinChainModel(workload.sites, terms, beta)


# Each engine returns the reduced state on KEEP.  Untraced, it makes the
# top-level public call; traced, it makes the same calls stage by stage.


def exact_engine(model, n_slices, tracer, row):
    dims = [2] * model.n_sites
    if tracer is None:
        return linalg.partial_trace(spinchain.exact_gibbs(model), dims, KEEP)
    with tracer.span("spinchain.exact_gibbs"):
        full = spinchain.exact_gibbs(model)
    with tracer.span("linalg.partial_trace"):
        return linalg.partial_trace(full, dims, KEEP)


def st_engine(model, n_slices, tracer, row):
    if tracer is None:
        return trotter.st_reduced(trotter.trotter_plan(model, n_slices), KEEP)
    # st_reduced split into its stages; run_checks requires equal results
    with tracer.span("trotter.trotter_plan"):
        plan = trotter.trotter_plan(model, n_slices)
    with tracer.span("trotter.build_weights"):
        weights = trotter.build_weights(plan).matrix
    with tracer.span("cbp.chain_end_marginal"):
        p = cbp.chain_end_marginal([weights] * n_slices)
    row.density = p.astype(np.complex128) / np.trace(p)
    with tracer.span("linalg.partial_trace"):
        return linalg.partial_trace(row.density, [2] * model.n_sites, KEEP)


def qbp_engine(model, n_slices, tracer, row):
    with span(tracer, "qbp.qbp_run"):
        result = qbp.qbp_run(model)
    row.sweeps, row.converged, row.residual = result.iterations, result.converged, result.residual
    return result.beliefs_pair[KEEP]


ENGINES = {"exact": exact_engine, "st": st_engine, "qbp": qbp_engine}


def run_row(row: Row, model, reference, tracer) -> None:
    start = time.perf_counter()
    try:
        row.state = ENGINES[row.method](model, row.n_slices, tracer, row)
    except Exception as exc:  # an engine that raises fails its row, not the run
        row.engine_s = time.perf_counter() - start
        row.status, row.raised = f"error: {exc}", True
        return
    row.engine_s = time.perf_counter() - start
    if row.method == "exact":
        reference = row.state
    try:
        with span(tracer, "metrics.fidelity"):
            row.fidelity = metrics.fidelity(row.state, reference)
        with span(tracer, "metrics.trace_distance"):
            row.trace_distance = metrics.trace_distance(row.state, reference)
    except (ValueError, linalg.NoConvergenceError) as exc:
        row.fidelity = row.trace_distance = None
        row.status = f"rejected: {exc}"
        return
    if not row.converged:
        row.status = f"not-converged(residual={row.residual:.3e})"


def run_pass(workload: Workload, couplings: tuple, tracer: Tracer | None = None):
    """One closed-loop pass over every row; returns (seconds, rows)."""
    rows = []
    start = time.perf_counter()
    with span(tracer, "pass"):
        for beta in workload.betas:
            with span(tracer, "spinchain.model"):
                model = build_model(workload, beta, couplings)
            reference = None
            for method, n_slices in workload.row_specs():
                row = Row(beta, method, n_slices)
                with span(tracer, f"row.{method}", len(rows)):
                    run_row(row, model, reference, tracer)
                if method == "exact":
                    reference = row.state
                rows.append(row)
    return time.perf_counter() - start, rows


def probe_update_edge(workload: Workload, couplings: tuple, tracer: Tracer) -> None:
    """One sweep of qbp_update_edge over all directed edges of each beta's model."""
    with tracer.span("probe.update_edge"):
        for beta in workload.betas:
            model = build_model(workload, beta, couplings)
            messages = qbp.qbp_init(model)
            for edge in qbp.directed_edges(model):
                with tracer.span("qbp.qbp_update_edge"):
                    qbp.qbp_update_edge(model, messages, edge)


# ---------------------------------------------------------------------------
# Checks


def run_checks(workload, couplings, warm, repeated: bool, traced_equal: bool | None) -> list:
    """(name, ok, detail) for every correctness check of this run."""
    checks = [("passes repeat the warm-up pass bit-for-bit", repeated, "")]
    exact = [r for r in warm if r.method == "exact"]
    checks.append(("exact states are density matrices",
                   all(r.status == "ok" and abs(r.fidelity - 1) < 1e-9 for r in exact),
                   "; ".join(f"{r.label}: {r.status}" for r in exact)))
    if traced_equal is not None:
        checks.append(("traced stage-by-stage states equal the top-level calls",
                       traced_equal, ""))
    if workload.model == "heisenberg":
        checks.append(cli_sweep_check(workload, couplings, warm))
        low = [f"{r.label}: {r.fidelity}" for r in warm if r.method == "st" and r.n_slices == 100
               and (r.fidelity is None or r.fidelity < ST100_MIN_FIDELITY)]
        checks.append((f"st n=100 fidelity >= {ST100_MIN_FIDELITY}", not low, "; ".join(low)))
    loose = []
    for r in warm:
        ceiling = trace_distance_ceiling(workload, r)
        if r.trace_distance is not None and ceiling is not None and r.trace_distance > ceiling:
            loose.append(f"{r.label}: {r.trace_distance:.3e} > {ceiling:.3e}")
    checks.append(("st and qbp trace distances within their ceilings", not loose, "; ".join(loose)))
    short = [f"{r.label}: {r.sweeps} sweeps, residual {r.residual:.3e}" for r in warm
             if r.method == "qbp" and not r.raised
             and not (r.converged and r.residual < QBP_TOL) and r.sweeps < QBP_MIN_SWEEPS]
    checks.append((f"qbp rows reach residual < {QBP_TOL:g} or run {QBP_MIN_SWEEPS} sweeps",
                   not short, "; ".join(short)))
    return checks


def trace_distance_ceiling(workload: Workload, row: Row) -> float | None:
    if row.method == "st":
        return ST_TD_COEFF * (row.beta / row.n_slices) ** 2
    if row.method == "qbp":
        return workload.qbp_td_max
    return None


def same_states(rows: list, reference: list) -> bool:
    return all(
        a.state is None if b.state is None else
        a.state is not None and np.array_equal(a.state, b.state)
        for a, b in zip(rows, reference)
    )


def cli_sweep_check(workload, couplings, rows) -> tuple:
    """The rows' scores equal bench.run_sweep on the same grid bit-for-bit."""
    name = "scores equal bench.run_sweep bit-for-bit"
    config = bench.SweepConfig(
        sites=workload.sites, beta_min=workload.betas[0], beta_max=workload.betas[-1],
        beta_steps=len(workload.betas), st_slices=workload.st_slices, time_repeats=0,
        couplings=couplings,
    )
    if tuple(config.beta_grid()) != workload.betas:
        return (name, False, "the workload's beta grid is not a SweepConfig grid")
    expected = {
        (r.beta, r.method, r.n_slices): (r.status == "ok", r.fidelity, r.trace_distance)
        for r in bench.run_sweep(config)
    }
    got = {
        (r.beta, r.method, r.n_slices): (r.status == "ok", r.fidelity, r.trace_distance)
        for r in rows
    }
    diff = [f"{k}: {got.get(k)} != {v}" for k, v in expected.items() if got.get(k) != v]
    return (name, not diff and got.keys() == expected.keys(), "; ".join(diff))


# ---------------------------------------------------------------------------
# Metrics


def summary(values: list) -> dict:
    """Median, the highest percentile with at least 10 samples beyond it, count."""
    out = {"median": statistics.median(values), "n": len(values)}
    for q in (99, 95, 90, 75, 50):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


def engine_series(untraced: list, methods: list) -> dict:
    """Per-pass wall time and per-engine sums of the untraced passes."""
    series = {"sweep_s": [seconds for seconds, _ in untraced]}
    for method in ("exact", "st", "qbp"):
        series[f"{method}_s"] = [sum(t for t, m in zip(times, methods) if m == method)
                                 for _, times in untraced]
    return series


def closed_form_ops(row: Row, n_sites: int) -> int:
    """st_opcount of an st row, or qbp_opcount per sweep times the sweeps of a qbp row."""
    if row.method == "st" and row.n_slices >= 3:
        return trotter.st_opcount(row.n_slices, n_sites)
    if row.method == "qbp":
        return qbp.qbp_opcount(n_sites) * row.sweeps
    return 0


def worst_trace_distance(rows: list) -> float:
    """Largest trace distance to exact; a row without a score counts as 1, the maximum."""
    return max(1.0 if r.trace_distance is None else r.trace_distance for r in rows)


def hermiticity_residue(rho: np.ndarray | None) -> float:
    return 0.0 if rho is None else float(np.abs(rho - rho.conj().T).max())


def layer_values(n_sites: int, rows: list, tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass (self times summed over the pass)."""
    total = tracer.totals()
    st_rows = [r for r in rows if r.method == "st"]
    qbp_rows = [r for r in rows if r.method == "qbp"]
    opcount = sum(closed_form_ops(r, n_sites) for r in st_rows)
    sweeps = sum(r.sweeps for r in qbp_rows)
    chain_s = total["cbp.chain_end_marginal"]
    qbp_s = total["qbp.qbp_run"]
    return {
        "spinchain.exact_gibbs_ms": total["spinchain.exact_gibbs"] * 1e3,
        "trotter.plan_ms": total["trotter.trotter_plan"] * 1e3,
        "trotter.weights_ms": total["trotter.build_weights"] * 1e3,
        "trotter.opcount": opcount,
        "trotter.hermiticity_residue_max": max(hermiticity_residue(r.density) for r in st_rows),
        "trotter.trace_distance_max": worst_trace_distance(st_rows),
        "cbp.chain_ms": chain_s * 1e3,
        "cbp.ops_per_s": opcount / chain_s,
        "linalg.partial_trace_ms": total["linalg.partial_trace"] * 1e3,
        "qbp.run_ms": qbp_s * 1e3,
        "qbp.sweeps": sweeps,
        "qbp.sweep_ms": qbp_s * 1e3 / sweeps,
        "qbp.ops_per_s": sum(closed_form_ops(r, n_sites) for r in qbp_rows) / qbp_s,
        "qbp.update_edge_us": total["qbp.qbp_update_edge"] * 1e6
        / tracer.calls("qbp.qbp_update_edge"),
        "qbp.converged_ratio": sum(r.converged for r in qbp_rows) / len(qbp_rows),
        "qbp.residual_max": max(r.residual for r in qbp_rows),
        "qbp.trace_distance_max": worst_trace_distance(qbp_rows),
        "metrics.fidelity_ms": total["metrics.fidelity"] * 1e3,
        "metrics.trace_distance_ms": total["metrics.trace_distance"] * 1e3,
    }


def row_table(n_sites: int, warm: list, untraced: list, traced: list) -> list:
    """Per-row outcome, engine time, closed-form count and traced stage times."""
    table = []
    by_row = [tracer.totals(by_row=True) for _, _, _, tracer in traced]
    for index, row in enumerate(warm):
        entry = {
            "row": row.label, "status": row.status, "fidelity": row.fidelity,
            "trace_distance": row.trace_distance,
            "engine_ms": statistics.median(times[index] for _, times in untraced) * 1e3,
        }
        if row.method == "qbp":
            entry["sweeps"] = row.sweeps
        if row.method != "exact":
            entry["opcount"] = closed_form_ops(row, n_sites)
        if by_row:
            names = sorted({name for totals in by_row for r, name in totals if r == index})
            entry["stages_ms"] = {
                name: statistics.median(t.get((index, name), 0.0) for t in by_row) * 1e3
                for name in names
            }
            timed = entry["stages_ms"].get(
                "cbp.chain_end_marginal" if row.method == "st" else "qbp.qbp_run")
            if entry.get("opcount") and timed:
                entry["ops_per_s"] = entry["opcount"] / (timed / 1e3)
        table.append(entry)
    return table


# ---------------------------------------------------------------------------
# Host facts and set-up time


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def host_facts() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            continue
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_cache": l3,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def time_setups(args) -> tuple:
    """Set-up times of fresh processes (at least SETUP_RUNS, SETUP_SECONDS in
    all), raw and adjusted by the host speed measured before and after each."""
    raw, adj = [], []
    kernel_before = reference_kernel_s()
    while len(raw) < SETUP_RUNS or sum(raw) < SETUP_SECONDS:
        raw.append(time_setup(args))
        kernel_after = reference_kernel_s()
        adj.append(adjusted(raw[-1], (kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    return raw, adj


def time_setup(args) -> float:
    """Seconds from starting a fresh process to the end of its warm-up pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up process exited with {code} after {line!r}")
    return elapsed


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    couplings = draw_couplings(args.seed, workload.sites)
    if args.setup_child:
        run_pass(workload, couplings)
        print("ready", flush=True)
        return 0

    setups, setups_adj = ([], []) if args.trace else time_setups(args)
    _, warm = run_pass(workload, couplings)
    expected = [r.outcome() for r in warm]
    # Timed passes keep only their figures, not their rows, so memory and
    # garbage-collection work stay flat however many passes a run makes.
    # untraced: (seconds, engine seconds per row); traced: (seconds, spans the
    # pass itself recorded, layer values, tracer)
    untraced, traced = [], []
    repeated, traced_equal = True, True
    attempted = failed = ok_rows = 0
    rounds, batch = [], []  # (mean pass seconds, reference kernel seconds around them)
    kernel_before = reference_kernel_s()
    deadline = time.perf_counter() + args.seconds
    while True:
        tracer = Tracer() if args.trace and len(traced) < len(untraced) else None
        seconds, rows = run_pass(workload, couplings, tracer)
        repeated &= [r.outcome() for r in rows] == expected
        attempted += len(rows)
        failed += sum(r.raised for r in rows)
        ok_rows += sum(r.status == "ok" for r in rows)
        if tracer is None:
            untraced.append((seconds, [r.engine_s for r in rows]))
            batch.append(seconds)
        else:
            # warm ran the top-level calls; traced passes run them stage by stage
            traced_equal &= same_states(rows, warm)
            pass_spans = len(tracer.spans)
            probe_update_edge(workload, couplings, tracer)
            traced.append((seconds, pass_spans, layer_values(workload.sites, rows, tracer), tracer))
        if not args.trace and sum(batch) >= ROUND_SECONDS:
            kernel_after = reference_kernel_s()
            rounds.append((statistics.fmean(batch), (kernel_before + kernel_after) / 2))
            kernel_before, batch = kernel_after, []
        if time.perf_counter() >= deadline and (traced if args.trace else rounds):
            break

    checks = run_checks(workload, couplings, warm, repeated, traced_equal if traced else None)
    series = engine_series(untraced, [r.method for r in warm])
    if args.trace:
        per_pass = [layers for _, _, layers, _ in traced]
        # median_low keeps the exact counts integers
        values = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
        values.update((f"{m}_s", statistics.median(series[f"{m}_s"])) for m in ("exact", "st", "qbp"))
        # The overhead is the spans a pass records times the cost of one
        # empty span.  The paired difference of traced and untraced passes
        # (each traced pass runs right after an untraced one) is in the
        # details only: run-to-run noise of tens of ms swamps it.
        span_s = span_cost_s()
        pass_spans = statistics.median_low(n for _, n, _, _ in traced)
        values["trace.overhead_ms"] = pass_spans * span_s * 1e3
        traced_s = [seconds for seconds, _, _, _ in traced]
        series["traced_sweep_s"] = traced_s
        series["traced_minus_untraced_s"] = [t - u for t, u in zip(traced_s, series["sweep_s"])]
        tracing_detail = {"pass_spans": pass_spans, "span_cost_us": span_s * 1e6}
        units = LAYER_UNITS
    else:
        series["round_mean_s"] = [mean for mean, _ in rounds]
        series["reference_kernel_s"] = [kernel for _, kernel in rounds]
        series["round_adjusted_s"] = [adjusted(mean, kernel) for mean, kernel in rounds]
        values = {"sweep_s": statistics.median(series["round_adjusted_s"])}
        values["ok_ratio"] = ok_rows / attempted
        values["setup_s"] = statistics.median(setups_adj)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        series["setup_raw_s"] = setups
        series["setup_adjusted_s"] = setups_adj
        tracing_detail = None
        units = E2E_UNITS

    correct = all(ok for _, ok, _ in checks)
    detail = {
        "workload": workload.name, "sites": workload.sites, "seed": args.seed,
        "couplings": couplings, "trace": args.trace, "seconds": args.seconds,
        "host": host_facts(),
        "timings": {name: summary(v) for name, v in series.items()},
        "tracing": tracing_detail,
        "rows": row_table(workload.sites, warm, untraced, traced),
        "checks": [{"check": name, "ok": ok, "detail": d} for name, ok, d in checks],
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if traced:
        write_spans(OUT_DIR / f"{stem}.spans.jsonl", [tracer for _, _, _, tracer in traced])
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    if not correct:
        for name, ok, d in checks:
            if not ok:
                print(f"spinbench: check failed: {name}: {d}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
