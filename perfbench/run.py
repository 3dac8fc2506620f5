"""Benchmark of makaro-zkp, driven from outside the library.

    python3 perfbench/run.py --workload prove-5x5 --seed 1 --seconds 6 --trace 0

Runs one workload (see workloads.py and README.md) as a closed loop for
--seconds, checks every op's output, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
time is split over PROCESSES fresh processes run one after another, and the
metrics are the end-to-end ones.  With --trace 1 one process runs half the
time untraced and half under span tracing, and the metrics are the
per-layer ones.  The lines before it are a header (machine, versions,
commit, seed, workload parameters) and a summary under the workload's own
metric names.  Results and spans are also written to .perfbench_out/.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any heavy import

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from probe import REF_KERNEL_MS, SpeedProbe
from spans import Tracer, snapshot, unchanged
from workloads import WORKLOADS, check_pinned_transcript, load_example

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# An untraced run splits its time over PROCESSES fresh processes, one after
# another: this one and PROCESSES - 1 children.  Each sets up and measures
# its share.  A process is consistently faster or slower than the next by
# up to about 8% (memory layout, hash seed), which pooling evens out.
PROCESSES = 5
OPS_PER_PROCESS = 1_000_000  # process k runs ops k * OPS_PER_PROCESS on
WARMUP_OP = -1

# The summary's names for each workload's wall-clock items per second and
# median op time.
WORKLOAD_NAMES = {
    "prove-5x5": ("proofs_per_s", "proof_ms_p50"),
    "zk-5x5": ("zk_transcripts_per_s", "zk_comparison_ms_p50"),
    "sweep-3x3": ("sweep_fillings_per_s", "sweep_pass_ms_p50"),
    "solve-5x5": ("solves_per_s", "solve_ms"),
}


class BenchError(Exception):
    pass


def load_library():
    """Import makaro_zkp from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import makaro_zkp
    except ImportError as err:
        raise BenchError(f"cannot import makaro_zkp from {src}: {err}") from err
    if not Path(makaro_zkp.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"makaro_zkp was imported from {makaro_zkp.__file__}, not {src}")
    return makaro_zkp


def set_up(api, name: str, seed: int):
    """Build the workload's inputs and check the pinned transcript; returns
    the workload and the number of failed checks."""
    example = load_example(api, ROOT)
    workload = WORKLOADS[name](api, example, seed)
    return workload, int(not check_pinned_transcript(api, *example))


def measure(workload, seconds: float, tracer=None, first_op: int = 0,
            probe: SpeedProbe | None = None) -> dict:
    """Closed loop: whole blocks of ops until `seconds` have passed.

    Op times leave out the time speed probes took inside them.  With a
    probe, each block's op times are also converted to ref-ms at the speed
    its probes saw.
    """
    wall_ms, ref_ms, wall_rates, ref_rates = [], [], [], []
    failed = 0
    i = first_op
    clock = time.perf_counter
    start = clock()
    while not wall_rates or clock() - start < seconds:
        items = 0
        block = []
        first_sample = len(probe.durations) if probe else 0
        for _ in range(workload.ops_per_block):
            if tracer is not None:
                tracer.op = i
            probed = probe.total if probe else 0.0
            t = clock()
            done, ok = workload.run_op(i)
            elapsed = clock() - t
            if probe:
                elapsed -= probe.total - probed
            block.append(elapsed)
            items += done
            failed += not ok
            i += 1
        wall_ms += [s * 1e3 for s in block]
        wall_rates.append(items / sum(block))
        if probe:
            to_ref_ms = REF_KERNEL_MS / probe.mean_since(first_sample)
            ref_ms += [s * to_ref_ms for s in block]
            ref_rates.append(items * 1e3 / (sum(block) * to_ref_ms))
    return {"wall_ms": wall_ms, "wall_rates": wall_rates, "ref_ms": ref_ms,
            "ref_rates": ref_rates, "failed": failed, "items_per_block": items}


def child_part(args, part: int) -> dict:
    """Set up and measure one share of the run in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--part", str(part)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=90, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"measuring process {part} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def percentile(values: list[float], p: float) -> float | None:
    """Nearest-rank percentile, or None with fewer than ten samples beyond it."""
    n = len(values)
    if n * (100 - p) / 100 < 10:
        return None
    return sorted(values)[math.ceil(p / 100 * n) - 1]


def tail(values: list[float]) -> dict | None:
    """The highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        value = percentile(values, p)
        if value is not None:
            return {"percentile": p, "value": value, "samples": len(values)}
    return None


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def header(args, workload) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": git_commit(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "loop": "closed, one caller",
        "processes": 1 if args.trace else PROCESSES,
        "unit": workload.unit, "params": workload.params,
    }


def run_part(args, workload, setup: dict, failed: int) -> dict:
    """This process's share: args.seconds / PROCESSES of probed ops."""
    probe = SpeedProbe()
    with probe.running():
        m = measure(workload, args.seconds / PROCESSES, first_op=args.part * OPS_PER_PROCESS,
                    probe=probe)
    m.update(setup, attempted=2 + len(m["wall_ms"]), failed=failed + m["failed"],
             peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
             probe_kernel_ms=probe.mean_since(0) * 1e3)
    return m


def pool(args, parts: list[dict]) -> tuple[dict, dict, int, int]:
    def joined(key):
        return [x for part in parts for x in part[key]]

    setups = [part["setup_s"] for part in parts]
    metrics = {
        "items_per_ref_s": {"value": statistics.median(joined("ref_rates")), "unit": "1/ref-s"},
        "op_ref_ms_p50": {"value": statistics.median(joined("ref_ms")), "unit": "ref-ms"},
        "peak_rss_mb": {"value": statistics.median(part["peak_rss_mb"] for part in parts),
                        "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    rate_name, ms_name = WORKLOAD_NAMES[args.workload]
    wall_ms = joined("wall_ms")
    summary = {
        rate_name: statistics.median(joined("wall_rates")),
        ms_name: statistics.median(wall_ms),
        "processes": len(parts), "blocks": len(joined("wall_rates")),
        "items_per_block": parts[0]["items_per_block"],
        "wall_rate_quartiles": quartiles(joined("wall_rates")),
        "ref_rate_quartiles": quartiles(joined("ref_rates")),
        "ref_rate_medians_by_process": [statistics.median(p["ref_rates"]) for p in parts],
        "ops": len(wall_ms), "wall_ms_quartiles": quartiles(wall_ms),
        "ref_ms_quartiles": quartiles(joined("ref_ms")), "wall_ms_tail": tail(wall_ms),
        "probe_kernel_ms_by_process": [p["probe_kernel_ms"] for p in parts],
        "setup_s_samples": setups,
        "setup_wall_s_samples": [part["setup_wall_s"] for part in parts],
    }
    if args.workload == "prove-5x5":
        summary["proof_ms_p99"] = percentile(wall_ms, 99.0)
    return (metrics, summary, sum(p["attempted"] for p in parts),
            sum(p["failed"] for p in parts))


def run_traced(args, api, workload, failed: int) -> tuple[dict, dict, int, int]:
    half = args.seconds / 2
    plain = measure(workload, half)
    before = snapshot()
    tracer = Tracer()
    with tracer.installed():  # spans recorded while setting up get SETUP_OP
        traced_workload, traced_failed = set_up(api, args.workload, args.seed)
        traced = measure(traced_workload, half, tracer, first_op=len(plain["wall_ms"]))
    restored = unchanged(before, snapshot())
    ops = len(traced["wall_ms"])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracer.layer_metrics(ops).items()}
    plain_ms = statistics.median(plain["wall_ms"])
    traced_ms = statistics.median(traced["wall_ms"])
    metrics["trace.overhead_ms_per_op"] = {"value": traced_ms - plain_ms, "unit": "ms/op"}
    metrics["trace.overhead_pct"] = {"value": (traced_ms / plain_ms - 1) * 100, "unit": "%"}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    summary = {"untraced_op_ms_p50": plain_ms, "traced_op_ms_p50": traced_ms,
               "untraced_ops": len(plain["wall_ms"]), "traced_ops": ops,
               "spans": len(tracer.start), "attributes_restored": restored}
    # this process's set-up checks, the traced pinned check, and the restore
    attempted = 2 + len(plain["wall_ms"]) + ops + 2
    failed += traced_failed + plain["failed"] + traced["failed"] + int(not restored)
    return metrics, summary, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        probe = SpeedProbe()
        with probe.running():
            api = load_library()
            workload, failed = set_up(api, args.workload, args.seed)
            failed += not workload.run_op(WARMUP_OP)[1]
        setup = {"setup_wall_s": time.perf_counter() - T0}
        # in seconds at the probe's reference speed, like the ref-ms of the ops
        setup["setup_s"] = ((setup["setup_wall_s"] - probe.total)
                            * REF_KERNEL_MS / 1e3 / probe.mean_since(0))
        if args.trace:
            metrics, summary, attempted, failed = run_traced(args, api, workload, failed)
        else:
            own = run_part(args, workload, setup, failed)
            if args.part:
                print(json.dumps(own))
                return 0
            parts = [own] + [child_part(args, part) for part in range(1, PROCESSES)]
            metrics, summary, attempted, failed = pool(args, parts)
    except (BenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    summary["failed_ratio"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    head = header(args, workload)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(
        {"header": head, "summary": summary, "result": result}, indent=2) + "\n")
    print(json.dumps({"header": head}))
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
