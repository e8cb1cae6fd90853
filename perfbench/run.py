"""The repository's benchmark: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload k10x10_d3 --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its ``src``
directory.  With ``--trace 0`` it measures the workload for ``--seconds``
and prints the end-to-end metrics; with ``--trace 1`` it runs a fixed
number of operations twice, untraced and then with spans around every call
into a package module, and prints the per-layer metrics and the tracing
overhead.  Either way it then checks every output (see ``workloads.Gate``),
prints a report and a provenance line, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 1 when a check missed and 2 when it cannot run at all.
"""

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bipartite_rigidity"

#: Imports and set-ups per timed run; ``setup_s`` adds their medians.
SETUP_REPEATS = 3
#: p90 is reported only with at least ten samples beyond it.
P90_SAMPLES = 100


def host_reference() -> dict:
    """Seconds for a fixed pure-Python ``Fraction`` loop, the host's speed.

    Five repetitions; the fastest is the host with the least interference
    from other load, the median what the workload around it saw.
    """
    times = []
    for _ in range(5):
        begin = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 4001):
            acc += Fraction(k % 17 - 8, k % 13 + 1) * Fraction(k % 7 + 1, k % 11 + 1)
        times.append(time.perf_counter() - begin)
    return {"min": min(times), "median": statistics.median(times)}


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); begin = time.perf_counter(); "
            "import bipartite_rigidity; print(time.perf_counter() - begin)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def provenance(args, extra: dict) -> dict:
    import numpy

    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        out = None
    if out is not None and out.returncode == 0:
        top, head = out.stdout.split()
        # A checkout inside some other repository is not that repository.
        if Path(top).resolve() == ROOT:
            commit = head
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": workloads.batch_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        **extra,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    scale = 1 << 20 if sys.platform == "darwin" else 1 << 10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


class Drive:
    """Runs a workload's operations and keeps their timings.

    Only ``call`` is timed.  ``fastest`` keeps each input key's fastest
    time: on ``replay`` the corpus repeats and the fastest time is the
    chain's cost with the least interference from other load on the host;
    elsewhere every input is new, and it is simply the operation's time.
    """

    def __init__(self, wl: "workloads.Workload", gate: "workloads.Gate") -> None:
        self.wl, self.gate = wl, gate
        self.latencies: list[float] = []
        self.fastest: dict[int, tuple[float, int]] = {}
        self.busy = 0.0
        self.done = 0
        self.held: list[tuple] = []

    def run(self, *, seconds: float = math.inf, ops: int = -1, hold: bool = False) -> None:
        """Operate until ``seconds`` of timed calls or ``ops`` operations.

        With ``hold`` the results are kept for :meth:`check_held` instead of
        being checked at once, so checks stay out of a traced pass.
        """
        i = 0
        while i != ops and self.busy < seconds:
            item = self.wl.item(i)
            begin = time.perf_counter()
            try:
                result = self.wl.call(item)
            except Exception:  # a failed operation is counted, not fatal
                result, failure = None, traceback.format_exc(limit=4)
            else:
                failure = None
            elapsed = time.perf_counter() - begin
            self.busy += elapsed
            self.latencies.append(elapsed)
            if failure:
                self.gate.check(False, failure)
            else:
                count = self.wl.count(item)
                self.done += count
                key = self.wl.key(i)
                if key not in self.fastest or elapsed < self.fastest[key][0]:
                    self.fastest[key] = (elapsed, count)
                if hold:
                    self.held.append((item, result))
                else:
                    self.wl.check(item, result, self.gate)
            i += 1

    def check_held(self) -> None:
        for item, result in self.held:
            self.wl.check(item, result, self.gate)
        self.held.clear()

    def floor_rate(self) -> float:
        """Items per second, each input timed at its fastest; 0 if none ran."""
        seconds = sum(t for t, _ in self.fastest.values())
        return sum(count for _, count in self.fastest.values()) / seconds if seconds else 0.0


def timed(args) -> tuple[dict, dict, "workloads.Gate", list[str]]:
    reference = [host_reference()]
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    setups = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed)
        setups.append(time.perf_counter() - begin)
    gate = workloads.Gate()
    drive = Drive(wl, gate)
    drive.run(seconds=args.seconds)
    reference.append(host_reference())
    wl.final_checks(gate)

    op_name, rate_name = wl.op_name, wl.rate_name
    ms = [1e3 * t for t in drive.latencies]
    floor_ms = [1e3 * t for t, _ in drive.fastest.values()] or [math.nan]
    setup_s = statistics.median(imports) + statistics.median(setups)
    metrics = {
        "ops_per_s": (drive.floor_rate(), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    report = [
        f"{op_name}.p50 = {statistics.median(ms):.3f} ms (n={len(ms)})",
        f"{op_name}.p90 = " + (f"{statistics.quantiles(ms, n=10)[-1]:.3f} ms (n={len(ms)})"
                               if len(ms) >= P90_SAMPLES
                               else f"not reported (n={len(ms)} < {P90_SAMPLES})"),
        f"{op_name}.fastest_p50 = {statistics.median(floor_ms):.3f} ms "
        f"(n={len(floor_ms)} inputs, fastest of {len(ms) / len(floor_ms):.1f} runs each)",
        f"{rate_name} = {drive.done / drive.busy:.4f} 1/s ({drive.done} in {drive.busy:.3f} s)",
        f"ops_per_s = {drive.floor_rate():.4f} 1/s (each input at its fastest)",
        f"cert_bytes.mean = {wl.chain_bytes / max(wl.chains, 1):.1f} bytes (n={wl.chains} chains)",
        f"failed_frac = {gate.failed / gate.attempted:.6f} ({gate.failed} of {gate.attempted})",
        f"setup_s = {setup_s:.4f} s (median of imports "
        + ", ".join(f"{t:.4f}" for t in imports) + " + median of set-ups "
        + ", ".join(f"{t:.4f}" for t in setups) + ")",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    extra = {
        "samples": {"operations": len(ms), "inputs": len(floor_ms), "items": drive.done,
                    "chains": wl.chains, "setups": len(setups)},
        "host_reference_s": {"before": reference[0], "after": reference[1]},
        "batch_size": getattr(wl, "batch", None),
    }
    return metrics, extra, gate, report


def traced(args) -> tuple[dict, dict, "workloads.Gate", list[str]]:
    import spans

    reference = [host_reference()]
    gate = workloads.Gate()
    plain = Drive(workloads.WORKLOADS[args.workload](args.seed), gate)
    plain.run(ops=plain.wl.trace_ops)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    drive = Drive(wl, gate)
    tracer = spans.Tracer()
    tracer.install()
    try:
        drive.run(ops=wl.trace_ops, hold=True)
    finally:
        tracer.uninstall()
    reference.append(host_reference())
    drive.check_held()
    wl.final_checks(gate)

    layers = tracer.layer_metrics()
    layers["trace.overhead_frac"] = drive.busy / plain.busy - 1
    metrics = {name: (value, spans.unit(name)) for name, value in layers.items()}
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    out_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ops": wl.trace_ops,
        "cert_bytes.mean": wl.chain_bytes / max(wl.chains, 1),
        "untraced_s": plain.busy,
        "traced_s": drive.busy,
        "metrics": layers,
        "spans": tracer.span_dicts(),
    }) + "\n", encoding="utf-8")
    report = [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    report.append(f"trace: {wl.trace_ops} ops, untraced {plain.busy:.3f} s, traced "
                  f"{drive.busy:.3f} s, {len(tracer.spans)} spans -> {out_path}")
    extra = {
        "samples": {"operations": wl.trace_ops, "spans": len(tracer.spans)},
        "host_reference_s": {"before": reference[0], "after": reference[1]},
        "batch_size": getattr(wl, "batch", None),
    }
    return metrics, extra, gate, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    metrics, extra, gate, report = (traced if args.trace else timed)(args)
    for line in report:
        print(line)
    for miss in gate.misses:
        print(f"MISS: {miss}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, extra)}, sort_keys=True))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no package source at {PACKAGE}; run from a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    sys.exit(main())
