"""Run one workload of the edgelab benchmark and print its metrics.

    python3 perfbench/run.py --workload classify_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` times whole passes of the workload for ``--seconds`` and
prints the end-to-end metrics.  ``--trace 1`` runs a fixed amount of the
workload twice, untraced and traced, and prints the per-layer metrics from
the spans; the spans are written to ``perfbench/_out/trace-<workload>.npz``.
``--workload all`` runs the three workloads one after another, each in a
child process of its own so that each reports its own peak memory.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every failed operation is a known defect
(an input and reason in ``workloads.KNOWN_DEFECTS``), 1 when any other
oracle check fails, 2 when the edgelab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
SETUP_PAIRS = 10  # pairs of launches, all before the workload
# The reference launch of measure_setup: numpy and one LAPACK call, no edgelab.
REFERENCE_LAUNCH = "import numpy; numpy.linalg.eigvalsh(numpy.eye(9))"
REF_SETUP_S = 0.3

# end-to-end metric -> unit, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "batch_s": "s",
}
# What the workload-specific metrics measure, by the name a reader of the
# workload would give them: (name, unit, factor from the generic unit).
NAMED = {
    "classify_grid": {
        "throughput_per_s": ("classify_per_s", "1/s", 1),
        "latency_p50_ms": ("classify_us_p50", "us", 1e3),
        "latency_tail_ms": ("classify_us_p99", "us", 1e3),
        "batch_s": ("grid_pass_s", "s", 1),
    },
    "edge_search": {
        "throughput_per_s": ("search_starts_per_s", "1/s", 1),
        "latency_p50_ms": ("search_ms_p50", "ms", 1),
        "latency_tail_ms": ("search_ms_p90", "ms", 1),
        "batch_s": ("search_pass_s", "s", 1),
    },
    "cli_sweep": {
        "throughput_per_s": ("sweep_rows_per_s", "1/s", 1),
        "latency_p50_ms": ("roundtrip_ms_p50", "ms", 1),
        "latency_tail_ms": ("roundtrip_ms_p90", "ms", 1),
        "batch_s": ("search_sweep_s", "s", 1),
    },
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_us", "_us_p50")):
        return "us"
    if name.endswith(("_ms", "_ms_p50")):
        return "ms"
    if name.endswith(("calls", "_per_classify", "_per_start")):
        return "count"
    if name.endswith("bytes_per_matrix"):
        return "bytes"
    return "ratio"


def environment() -> str:
    import numpy as np

    try:
        git = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        git = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"git={git} nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} "
        f"EDGELAB_THREADS={os.environ.get('EDGELAB_THREADS', 'unset')}"
    )


def measure_setup(seed: int) -> list[float]:
    """Fresh interpreter -> import edgelab -> first classified state, in seconds.

    CPU time of the child (all its threads, OpenBLAS's included).  Process
    start-up on a shared machine moves by 15-30% between phases of tens of
    seconds, which the calibration of this process does not follow.  So each
    launch is paired with one of REFERENCE_LAUNCH, and a sample is the ratio
    of the two times REF_SETUP_S: the set-up time on a machine where the
    reference launch takes REF_SETUP_S.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 9])
    b, theta = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.1, 1.0))
    code = f"import edgelab; edgelab.classify(edgelab.edge_state({b!r}, {theta!r}))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def launch(code: str) -> float:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        return after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime

    return [launch(code) / launch(REFERENCE_LAUNCH) * REF_SETUP_S for _ in range(SETUP_PAIRS)]


def end_to_end(workload: str, m, setup: list[float]) -> tuple[dict, list[str]]:
    lat = m.latencies
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "ok_ratio": (1 - m.outcome.failed / m.outcome.attempted, m.outcome.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "throughput_per_s": (statistics.median(m.rates) * 1e9, m.work),
        "latency_p50_ms": (statistics.median(lat) / 1e6, len(lat)),
        "latency_tail_ms": (statistics.median(m.pass_tails) / 1e6, len(lat)),
        "batch_s": (statistics.median(m.pass_times) / 1e9, len(m.pass_times)),
    }
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    lines = []
    for name, unit in END_TO_END.items():
        value, n = values[name]
        shown, shown_unit, factor = NAMED[workload].get(name, (name, unit, 1))
        lines.append(f"  {shown:<22} {value * factor:>14.6g} {shown_unit:<5} n={n:<8} [{name}]")
    lines.append(f"  {'fail_ratio':<22} {1 - values['ok_ratio'][0]:>14.6g} {'ratio':<5} n={m.outcome.attempted:<8} [1 - ok_ratio]")
    sp = m.speed
    cal = f"{statistics.median(sp.samples) / 1e6:.3f} ms (reference {sp.REF_NS / 1e6:.3f} ms, n={len(sp.samples)})"
    if sp.pool_samples:
        cal += (
            f", on a pool of two threads {statistics.median(sp.pool_samples) / 1e6:.3f} ms "
            f"(reference {sp.REF_POOL_NS / 1e6:.3f} ms, n={len(sp.pool_samples)})"
        )
    lines.append(
        f"  operation timings above are scaled to the reference speed; calibration routine median {cal}; "
        f"operation p50 in unscaled wall time {statistics.median(m.wall_latencies) / 1e6:.6g} ms"
    )
    return metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, object, list[str]]:
    from perfbench import workloads

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            outcome, layer = workloads.traced_run(
                workload, seed, str(workdir), str(OUT / f"trace-{workload}.npz")
            )
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
            lines = [f"  {k:<34} {v:>14.6g} {per_layer_unit(k)}" for k, v in layer.items()]
        else:
            setup = measure_setup(seed)
            m = workloads.timed(workload, seed, seconds, str(workdir))
            outcome = m.outcome
            metrics, lines = end_to_end(workload, m, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return metrics, outcome, lines


def failure_lines(workload: str, outcome) -> tuple[list[str], bool]:
    """The failed inputs, each with its reasons; and whether all are known defects."""
    from perfbench.workloads import known_defect

    by_input: dict[str, Counter] = {}
    for label, reason in outcome.failures:
        by_input.setdefault(label, Counter())[reason] += 1
    lines, all_known = [], True
    for label, reasons in by_input.items():
        whys = {reason: known_defect(workload, label, reason) for reason in reasons}
        known = all(whys.values())
        all_known &= known
        lines.append(f"  FAILED {label}" + (f" [known defect: {next(iter(whys.values()))}]" if known else ""))
        lines += [f"    x{n} {reason}" + ("" if whys[reason] else " [UNEXPECTED]") for reason, n in reasons.items()]
    return lines, all_known


def run_children(args) -> dict | None:
    """Each workload in a child process of its own; their results merged."""
    from perfbench.workloads import WORKLOADS

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace), "--pool-threads", str(args.pool_threads)]
        child = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = child.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith(("perfbench ", "env: "))), flush=True)
        sys.stderr.write(child.stderr)
        if child.returncode not in (0, 1) or not lines:
            return None
        got = json.loads(lines[-1])
        result["correct"] &= got["correct"]
        result["attempted"] += got["attempted"]
        result["failed"] += got["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in got["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify_grid", "edge_search", "cli_sweep", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pool-threads", type=int, default=0,
        help="EDGELAB_THREADS for the sweep pool; 0 (the default) leaves it unset, as users get it",
    )
    args = parser.parse_args(argv)

    if not (SRC / "edgelab" / "__init__.py").is_file():
        print(f"perfbench: no edgelab sources under {SRC}", file=sys.stderr)
        return 2
    if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
        sys.path.pop(0)
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.pool_threads > 0:
        os.environ["EDGELAB_THREADS"] = str(args.pool_threads)
    else:
        os.environ.pop("EDGELAB_THREADS", None)  # the sweep pool runs at its default size
    import edgelab

    if Path(edgelab.__file__).resolve().parent != (SRC / "edgelab").resolve():
        print(f"perfbench: imported edgelab from {edgelab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(f"perfbench seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"env: {environment()}", flush=True)
    if args.workload == "all":
        result = run_children(args)
        if result is None:
            print("perfbench: a workload ended without a result", file=sys.stderr)
            return 2
    else:
        metrics, outcome, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(f"{args.workload}: {outcome.attempted} operations, {outcome.failed} failed")
        print("\n".join(lines))
        flines, all_known = failure_lines(args.workload, outcome)
        print("\n".join(flines) if flines else "  no failed operations")
        result = {"correct": all_known, "attempted": outcome.attempted, "failed": outcome.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
