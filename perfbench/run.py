"""gcalab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload smoke-cell --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run it from the root of a checkout. It sets up the workload several times
(the median is ``setup_s``), then runs units of work until ``--seconds`` have
passed while sampling a fixed reference task, checks every unit's outputs,
and prints a per-workload summary. The last line of standard output is one
JSON object: the end-to-end metrics named in BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("smoke-cell", "train-steps", "grid-tsv")
SETUP_REPEATS = 9
# Wall time between two runs of the reference task during a unit of work
# (see reference.py).
SAMPLE_INTERVAL_S = 0.05
# The lab's single-core premise: every BLAS and OpenMP pool gets one thread.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SUMMARY_UNITS = {
    "setup_s": "s", "unit_ref_ratio": "ratio", "unit_s": "s", "reference_ms": "ms",
    "cell_s": "s", "grid_s": "s", "resume_s": "s", "step_ms.p50": "ms", "step_ms.p90": "ms",
    "train_examples_per_s": "1/s", "peak_rss_mb": "MB", "fail_frac": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="data seed of the workload")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: trace the lab's layers and report per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def import_lab():
    """Import the lab from this checkout's src/ and no other place."""
    src = ROOT / "src"
    if not (src / "gcalab" / "__init__.py").is_file():
        raise SystemExit(f"error: no gcalab sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import gcalab

    if Path(gcalab.__file__).resolve().parent != (src / "gcalab").resolve():
        raise SystemExit(f"error: imported gcalab from {gcalab.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def import_seconds() -> float:
    """Time a fresh interpreter takes to import NumPy and the lab."""
    code = ("import time; started = time.perf_counter(); import numpy, gcalab; "
            "print(time.perf_counter() - started)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True, timeout=120)
    return float(child.stdout)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    from reference import Sampler
    from tracer import Tracer

    work = workdir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            state = workload.setup(seed, work)
            setup_s.append(import_seconds() + time.perf_counter() - started)

        tracer = Tracer() if trace else None
        sampler = Sampler(SAMPLE_INTERVAL_S)
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        last_s = 0.0
        # Start a unit only if it should end within half a unit of the
        # deadline. Traced runs alternate untraced and traced units, so the
        # tracing overhead is measured on the same work in the same process.
        # The reference task is sampled during untraced units only, and its
        # time is taken out of theirs.
        while not plain or (trace and not traced) or time.perf_counter() + last_s / 2 < deadline:
            started = time.perf_counter()
            if trace and len(traced) < len(plain):
                with tracer.installed():
                    unit = workload.unit(state)
                traced.append((unit, time.perf_counter() - started))
            else:
                with sampler.installed():
                    unit = workload.unit(state)
                ended = time.perf_counter()
                plain.append((unit, ended - started - sampler.within(started, ended)))
            last_s = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setup_s, plain, traced, sampler, tracer


def run_one(args) -> int:
    for name in THREAD_VARS:
        os.environ[name] = "1"
    import_lab()
    from tracer import metric_names
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload]
    workdir = Path("perfbench") / "runs" / f"{workload.name}-seed{args.seed}"
    setup_s, plain, traced, sampler, tracer = measure(
        workload, args.seed, args.seconds, bool(args.trace), workdir
    )

    units = [u for u, _ in plain + traced]
    attempted = sum(u.attempted for u in units)
    run_problems = []
    digests = sorted({u.digest for u in units})
    if len(digests) != 1:
        run_problems.append(f"units of one run disagree: record_digest {digests}")
    failed = min(attempted, sum(u.failed for u in units) + len(run_problems))
    problems = [p for u in units for p in u.problems] + run_problems
    correct = not problems

    busy_s = [u.ended - u.began - sampler.within(u.began, u.ended) for u, _ in plain]
    unit_s = median(busy_s)
    reference = fmean(sampler.durations)
    summary = {"setup_s": (median(setup_s), len(setup_s))}
    summary["unit_ref_ratio"] = (unit_s / reference, len(plain))
    summary["unit_s"] = (unit_s, len(plain))
    summary["reference_ms"] = (reference * 1e3, len(sampler.durations))
    summary.update(workload.summary([u for u, _ in plain]))
    summary["train_examples_per_s"] = (plain[0][0].examples / unit_s, len(plain))
    summary["peak_rss_mb"] = (peak_rss_mb(), 1)
    summary["fail_frac"] = (failed / attempted, attempted)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "unit": workload.unit_name,
        "record_digest": digests[0] if len(digests) == 1 else digests,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_runs_s": setup_s,
        "unit_busy_s": busy_s,
        "reference_s": list(sampler.durations),
        "samples": {name: [x for u, _ in plain for x in u.samples[name]]
                    for name in plain[0][0].samples},
        "summary": {name: {"value": v, "n": n, "unit": SUMMARY_UNITS[name]}
                    for name, (v, n) in summary.items()},
    }
    print(f"# environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"record_digest={result['record_digest']} unit={workload.unit_name}")
    for problem in problems:
        print(f"# PROBLEM {problem}")

    if args.trace:
        per_layer = tracer.table()
        plain_s = min(s for _, s in plain)
        traced_s = min(s for _, s in traced)
        per_layer["trace.overhead_s"] = traced_s - plain_s
        per_layer["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
        result["per_layer"] = per_layer
        result["trace_units"] = {"untraced_s": [s for _, s in plain],
                                 "traced_s": [s for _, s in traced]}
        tracer.write(workdir / "trace.json.gz")
        print(f"# tracing overhead per {workload.unit_name}: {traced_s - plain_s:+.4f} s "
              f"({(traced_s - plain_s) / plain_s:+.1%}; untraced {plain_s:.4f} s, "
              f"traced {traced_s:.4f} s)")
        print("# per unit of work, by inclusive time:")
        spans = sorted({k[: -len(".calls")] for k in per_layer if k.endswith(".calls")},
                       key=lambda k: -per_layer[f"{k}.s"])
        for name in spans:
            if per_layer[f"{name}.calls"]:
                print(f"#   {name:40s} calls {per_layer[name + '.calls']:>10.1f}  "
                      f"s {per_layer[name + '.s']:10.5f}  self_s {per_layer[name + '.self_s']:10.5f}")
        known = metric_names() | {"trace.overhead_s", "trace.overhead_frac"}
        wanted = spec["per_layer"]
        values = per_layer
    else:
        for name, (value, n) in summary.items():
            print(f"# {workload.name:12s} {name:22s} {value:14.6f} {SUMMARY_UNITS[name]:6s} n={n}")
        known = set(summary)
        wanted = spec["end_to_end"]
        values = {name: value for name, (value, _) in summary.items()}

    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    unknown = [m["name"] for m in wanted if m["name"] not in known]
    if unknown:
        raise SystemExit(f"error: BENCHMARK.json names metrics this run does not measure: {unknown}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
