#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the correctness gates trip on a perturbed archive and on a
perturbed waveform, that ``--fast`` runs of every workload emit every metric
of BENCHMARK.json with its unit (and every report metric its workload
promises), and that the benchmark refuses to run without volkit's sources.
Exits 0 when every check passes.  The functions are also collected by
pytest when it is pointed at this file.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from child import _exact_dataset  # noqa: E402
from volkit import (  # noqa: E402
    MultiplierCascade,
    SaturatingAmplifier,
    analytic_dataset,
    extract,
    kernel_oracle,
    spectrum_of,
    standard_sweep_plan,
    synthesize_total,
    transient,
)

REPORT_METRICS = {
    "campaign": ["setup_s", "campaign_cascade_s", "campaign_amplifier_s",
                 "kernel_max_rel_err", "peak_rss_mb", "error_rate"],
    "ingest": ["setup_s", "ingest_s", "kernel_max_rel_err", "peak_rss_mb",
               "error_rate"],
    "predict": ["setup_s", "predict_p50_ms", "predict_tail_ms",
                "predict_rps", "predict_max_nrmse", "peak_rss_mb",
                "error_rate"],
}


def _trips(fn, *args) -> bool:
    try:
        fn(*args)
    except wl.GateError:
        return True
    return False


def _cascade_archive(points):
    archive, _ = extract(_exact_dataset(points=points, seed=3))
    return archive


def test_perturbed_archive_trips_kernel_gates():
    archive = _cascade_archive(2)
    oracle = wl.Oracle(MultiplierCascade())
    wl.gate_kernels(archive, oracle, wl.INGEST_KERNEL_TOL)
    args, value = next(iter(archive.grid(3).items()))
    # a point determined k times averages to (k + 10) / (k + 1) of its value
    archive.grid(3).insert(args, 10.0 * value)
    assert _trips(wl.gate_kernels, archive, oracle, wl.INGEST_KERNEL_TOL)
    assert _trips(wl.gate_kernels, archive, oracle, wl.CASCADE_KERNEL_TOL)


def test_perturbed_archive_trips_leakage_gate():
    amplifier = SaturatingAmplifier()
    plan = standard_sweep_plan(points_per_axis=2, levels_dbm=(-30.0, -20.0))
    archive, _ = extract(analytic_dataset(
        lambda f, n: kernel_oracle(amplifier, f, n), plan, truncation=3))
    wl.gate_leakage(archive)
    odd_scale = max(abs(v) for n in (1, 3) for _, v in archive.grid(n).items())
    args, _ = next(iter(archive.grid(1).items()))
    archive.grid(2).insert((args[0], args[0]), 0.01 * odd_scale)
    assert _trips(wl.gate_leakage, archive)


def test_perturbed_waveform_trips_nrmse_gate():
    archive = _cascade_archive(wl.FAST.archive_points)
    wave, period = next(wl.request_stream(5, wl.FAST.period_ns))
    window = period - wl.WINDOW_GUARD
    spectrum, _ = spectrum_of(wave, period)
    prediction = synthesize_total(archive, spectrum, window, wl.DT).total.samples
    reference = transient(MultiplierCascade(), wave, window, wl.DT).samples
    wl.gate_nrmse(prediction, reference)
    span = reference.max() - reference.min()
    ripple = 0.1 * span * np.sin(np.linspace(0.0, 20.0, len(prediction)))
    assert _trips(wl.gate_nrmse, prediction + ripple, reference)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--fast"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_fast_mode_emits_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            reported = {ln.split()[1] for ln in lines
                        if ln.startswith("metric ")}
            missing = set(REPORT_METRICS[workload]) - reported
            assert not missing, (workload, missing)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "predict", 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as err:   # report every failure, then exit 1
            failed += 1
            print(f"FAIL {name}: {err!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
