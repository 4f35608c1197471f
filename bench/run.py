"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload sparse_stereo --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; with ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced run.  A video that raises or
a failed check makes ``correct`` false.  Results and traces are also written
under ``.bench_out/``.
"""

import os
import sys
import time

START = time.perf_counter()
# one thread for BLAS and OpenMP pools: on a small shared machine extra
# threads make wall time vary far more than they shorten it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _import_program():
    src = ROOT / "src"
    if not (src / "trailblaze" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {src / 'trailblaze'}; run from a checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    # import every layer now, so import time is part of set-up, not of the first step
    from trailblaze import classify, encoding, flowfields, keypoints, media, roi, shape  # noqa: F401
    from bench import workloads
    return workloads


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_s, out, workloads):
    steps = out.step_ms
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "videos_per_s": {"value": out.videos_per_s, "unit": "1/s"},
        "step_p50_ms": {"value": workloads.percentile(steps, 50), "unit": "ms"},
        "step_p90_ms": {"value": workloads.percentile(steps, 90), "unit": "ms"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads = _import_program()
    from bench import checks, layers, trace
    import_s = time.perf_counter() - START
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    # an inactive recorder costs one attribute test per span; only a traced
    # run wraps the layers
    rec = trace.Recorder()
    if args.trace:
        rec.install()
    work_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    wl = workloads.make(args.workload, args.seed, work_dir)
    # untraced first; a traced run then repeats the phase traced, and the
    # gap between the two is the tracing overhead
    out = workloads.Outcome()
    traced = workloads.Outcome() if args.trace else None
    report = {}
    try:
        try:
            setup_s = import_s + wl.setup()
            rec.active = False
            wl.warm_up()
            wl.timed(args.seconds / (2 if args.trace else 1), rec, out)
            if traced is not None:
                rec.active = True
                wl.timed(args.seconds / 2, rec, traced)
                rec.active = False
        finally:
            rec.uninstall()
            shutil.rmtree(work_dir, ignore_errors=True)
        failed = out.failed + (traced.failed if traced else 0)
        if failed:
            raise checks.CheckFailed(f"{failed} videos raised; tracebacks on standard error")
        report = wl.check(out)
        if traced is not None:
            wl.check(traced)
        correct = True
    except checks.CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        correct = False

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # a run stopped by a failed check before its timed phase ended has no
    # metrics; it still reports what it attempted, at least the round that failed
    metrics = {}
    if traced is None and out.seconds:
        metrics = end_to_end(setup_s, out, workloads)
    elif traced is not None and traced.seconds:
        metrics = layers.per_layer(rec, out, traced)
        rec.write(OUT_DIR / f"trace-{stem}.json")
        print(layers.table(rec), end="")
    for key, value in report.items():
        print(f"{args.workload} {key}: {value:.3f}")
    result = {"correct": correct, "attempted": max(out.attempted, 1), "failed": out.failed,
              "metrics": metrics}
    line = json.dumps(result)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
