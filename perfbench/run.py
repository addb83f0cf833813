#!/usr/bin/env python3
"""volkit benchmark: probing campaigns, dataset ingest and served predictions.

    python3 perfbench/run.py --workload {campaign,ingest,predict} \\
        --seed N --seconds S --trace {0,1} [--fast]

Run from the root of a source checkout; volkit is imported from ``src/``.
The seed drives every generated input.  Inputs are generated and set-up is
measured in helper processes; the operations run in this process, closed
loop, one client.  Human-readable report lines come first, each
``metric <name> <value> <unit>``; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones, taken from spans around every call
the benchmark makes into volkit.  ``--fast`` shrinks every input for the
self-test.  Results and spans are also written under ``.perfbench/``.
"""

import os

# Pin BLAS and OpenMP threads before numpy is first imported.  One thread
# (nproc is only an upper limit) keeps a single-client run steady on a
# shared machine.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"
GEN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 60


def import_volkit() -> None:
    """Import volkit from this checkout's ``src``, or exit without a result."""
    if not (SRC / "volkit" / "__init__.py").is_file():
        sys.exit(f"error: no volkit sources under {SRC}; "
                 "run from a volkit checkout")
    sys.path.insert(0, str(SRC))
    import volkit
    if Path(volkit.__file__).resolve().parent != (SRC / "volkit").resolve():
        sys.exit(f"error: imported volkit from {volkit.__file__}, "
                 f"not from {SRC}")


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_omp_threads": THREADS,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
    }


def child(*args, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(CHILD), args[0], str(SRC), *map(str, args[1:])],
        capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"helper {args[0]} failed:\n{proc.stderr}")
    return proc.stdout


def prepare_inputs(workload: str, run) -> float:
    """Generate the workload's input files; returns the time it took."""
    t0 = time.perf_counter()
    if workload == "campaign":
        run.inputs.update(campaign_points_per_axis=run.sizes.campaign_points)
    elif workload == "ingest":
        path = run.path("dataset.json")
        child("gen-dataset", path, run.sizes.ingest_points, run.seed,
              timeout=GEN_TIMEOUT_S)
        run.inputs.update(dataset_path=path,
                          dataset_bytes=os.path.getsize(path),
                          dataset_points_per_axis=run.sizes.ingest_points)
    elif workload == "predict":
        path = run.path("archive.json")
        child("gen-archive", path, run.sizes.archive_points, run.seed,
              timeout=GEN_TIMEOUT_S)
        run.inputs.update(archive_path=path,
                          archive_bytes=os.path.getsize(path),
                          archive_points_per_axis=run.sizes.archive_points,
                          period_ns=list(run.sizes.period_ns))
    return time.perf_counter() - t0


def measure_setup(workload: str, run) -> dict:
    """Median cold set-up over fresh interpreters, with its components.

    ``scaled_s`` is each set-up time at the reference host speed: scaled by
    the calibration loop's reference time over its time in the same child.
    """
    from calibration import REFERENCE_S

    samples = [json.loads(child("setup", workload,
                                run.inputs.get("archive_path", ""),
                                timeout=SETUP_TIMEOUT_S))
               for _ in range(run.sizes.setup_repeats)]
    for s in samples:
        s["scaled_s"] = s["total_s"] * REFERENCE_S / s["calibration_s"]
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


def metric_lines(metrics: dict) -> list[str]:
    return [f"metric {name} {value:.6g} {unit}"
            for name, (value, unit) in metrics.items()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("campaign", "ingest", "predict"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fast", action="store_true",
                    help="tiny inputs, for the self-test")
    args = ap.parse_args()

    import_volkit()
    import workloads
    from layers import per_layer
    from tracer import NullTracer, Tracer

    env = environment()
    sizes = workloads.FAST if args.fast else workloads.FULL
    tracer = Tracer() if args.trace else NullTracer()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(seed=args.seed, seconds=args.seconds, sizes=sizes,
                        tracer=tracer, workdir=str(workdir))
    try:
        gen_s = prepare_inputs(args.workload, run)
        setup = measure_setup(args.workload, run)
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n_ops = len(outcome.op_times)
    units = outcome.unit_times()
    relative = [u / c for u, c in zip(units, outcome.unit_local_cal())]
    end_to_end = {
        "setup_s": (setup["scaled_s"], "s"),
        "op_p50_cal": (statistics.median(relative), "cal"),
        "op_mean_cal": (statistics.mean(relative), "cal"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = dict(end_to_end)
    report.update({
        "op_p50_ms": (1e3 * statistics.median(units), "ms"),
        "ops_per_s": (len(units) / sum(units), "1/s"),
        "calibration_ms": (1e3 * statistics.median(outcome.cal_times), "ms"),
    })
    report.update({f"setup.{k}": (v, "s") for k, v in setup.items()
                   if k != "scaled_s"})
    report.update(outcome.report)
    report["error_rate"] = (outcome.failed / outcome.attempted, "fraction")
    report["input_generation_s"] = (gen_s, "s")

    if args.trace:
        layer_metrics = per_layer(tracer, n_ops, outcome.quality,
                                  Tracer.span_cost_s())
        untraced = OUT / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text())["report"]["op_p50_cal"][0]
            report["trace.measured_overhead_frac"] = (
                end_to_end["op_p50_cal"][0] / base - 1.0, "fraction")
        metrics = layer_metrics
    else:
        metrics = end_to_end

    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "fast": args.fast,
              "environment": env, "inputs": {
                  k: v for k, v in run.inputs.items() if not k.endswith("_path")},
              "report": report, "op_times_s": outcome.op_times,
              "result": result}
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.write(str(OUT / "traces" / f"{stem}.json"))

    print(f"volkit benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          + (" fast" if args.fast else ""))
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("inputs: " + " ".join(f"{k}={v}" for k, v in record["inputs"].items()))
    print("\n".join(metric_lines(report)))
    if args.trace:
        print("\n".join(metric_lines(metrics)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
