"""Self-test of the traced run.

    python3 perfbench/selftest.py [--seed N]

For every workload it makes two traced runs with the same seed and checks
that their count metrics agree exactly.  On ``k10x10_d3``, where the traced
loop only decides, it checks that the layers' self times plus
``engine.decide.self_s`` add up to the traced decide total; on ``replay`` it
checks that no LP runs in the traced loop.  Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from spans import RECORD_KINDS, SELF_TIME_LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Metrics that count work, so they must repeat exactly for a seed.
COUNTS = (
    "lp.feasibility.calls",
    "lp.maximize.calls",
    "lp.infeasible.calls",
    "lp.cells",
    "lp.out_bits.max",
    "separation.radon.calls",
    "separation.radon.useful_ratio",
    "separation.margin.calls",
    "stress.build.calls",
    "geometry.span.calls",
    "reduction.project.calls",
    "reduction.closure.calls",
    "engine.records",
    "docio.bytes",
    "cert_bytes.mean",
) + tuple(f"engine.kind.{kind}" for kind in RECORD_KINDS)


def traced_run(workload: str, seed: int) -> dict:
    """One traced run; returns its trace file's metrics plus cert_bytes.mean."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stderr}")
    doc = json.loads((HERE / "out" / f"trace-{workload}-seed{seed}.json").read_text())
    return {**doc["metrics"], "cert_bytes.mean": doc["cert_bytes.mean"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    problems = []
    for workload in WORKLOADS:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        for name in COUNTS:
            if first[name] != second[name]:
                problems.append(f"{workload}: {name} was {first[name]} then {second[name]}")
        for run in (first, second):
            if workload == "k10x10_d3":
                layers = sum(run[name] for name in SELF_TIME_LAYERS)
                total = run["engine.decide.total_s"]
                if not math.isclose(layers + run["engine.decide.self_s"], total, rel_tol=1e-9):
                    problems.append(f"{workload}: self times add to "
                                    f"{layers + run['engine.decide.self_s']} s, decide took {total} s")
            if workload == "replay":
                lp_calls = run["lp.feasibility.calls"] + run["lp.maximize.calls"]
                if lp_calls:
                    problems.append(f"{workload}: {lp_calls} LP calls in the traced loop")
        print(f"{workload}: " + ", ".join(f"{name}={first[name]}" for name in COUNTS))
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
