#!/usr/bin/env python3
"""Self-test of the benchmark: one tiny run per workload and trace mode.

Run from the repository root:

    python3 spinbench/selftest.py

Each workload of BENCHMARK.json runs untraced and traced with a tiny
``--seconds``, so a run makes its set-up, its warm-up pass and one round of
timed passes (one traced pass with ``--trace 1``); the six runs take about a
minute.  Every run must pass its checks and print, on its last line, exactly
the metrics BENCHMARK.json names for that mode, each with its unit.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "0.1",
                                     "--trace", str(trace)]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics {got} != {expected[trace]}")
            if not (result["correct"] and result["attempted"] >= 1):
                problems.append(f"{where}: result {result}")
            print(f"{where}: ok", flush=True)
    for p in problems:
        print(f"selftest: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
