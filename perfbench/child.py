"""Helper processes of the benchmark: input generation and cold set-up.

Generation runs here so that the memory and module state it leaves behind
never reach the measured process.  Set-up runs here so that each repeat
starts from a fresh interpreter, which is what a new volkit process pays.

    child.py gen-dataset <src> <out.json> <points_per_axis> <seed>
    child.py gen-archive <src> <out.json> <points_per_axis> <seed>
    child.py setup <src> <workload> [<archive.json>]

``setup`` prints one JSON object of timings in seconds, including the
calibration loop's time measured right after the set-up in the same
interpreter.
"""

import json
import statistics
import sys
import time

CALIBRATION_REPEATS = 5


def _exact_dataset(points: int, seed: int):
    """Closed-form cascade dataset on the stock cross sweep."""
    from volkit import (MultiplierCascade, analytic_dataset, kernel_oracle,
                        standard_sweep_plan)

    system = MultiplierCascade()
    plan = standard_sweep_plan(points_per_axis=points, seed=seed,
                               plan_id=f"perfbench-{points}pt-s{seed}")
    memo: dict = {}

    def kernel(freqs_hz, order):
        key = (tuple(freqs_hz), order)
        if key not in memo:
            memo[key] = kernel_oracle(system, freqs_hz, order)
        return memo[key]

    return analytic_dataset(kernel, plan, truncation=3)


def gen_dataset(path: str, points: int, seed: int) -> None:
    from volkit.storage import save_dataset

    save_dataset(path, _exact_dataset(points, seed))


def gen_archive(path: str, points: int, seed: int) -> None:
    from volkit import extract
    from volkit.storage import save_archive

    archive, _ = extract(_exact_dataset(points, seed))
    save_archive(path, archive)


def setup(workload: str, archive_path: str | None) -> dict:
    t0 = time.perf_counter()
    import volkit
    out = {"import_s": time.perf_counter() - t0}
    if workload == "campaign":
        volkit.MultiplierCascade()
        volkit.SaturatingAmplifier()
    elif workload == "predict":
        from volkit.storage import load_archive

        t1 = time.perf_counter()
        archive = load_archive(archive_path)
        t2 = time.perf_counter()
        for order in sorted(archive.grids):
            archive.frozen(order)
        out["load_archive_s"] = t2 - t1
        out["freeze_s"] = time.perf_counter() - t2
    out["total_s"] = time.perf_counter() - t0
    from calibration import calibration_loop
    out["calibration_s"] = statistics.median(
        calibration_loop() for _ in range(CALIBRATION_REPEATS))
    return out


def main(argv: list[str]) -> int:
    cmd, src = argv[0], argv[1]
    sys.path.insert(0, src)
    if cmd == "gen-dataset":
        gen_dataset(argv[2], int(argv[3]), int(argv[4]))
    elif cmd == "gen-archive":
        gen_archive(argv[2], int(argv[3]), int(argv[4]))
    elif cmd == "setup":
        print(json.dumps(setup(argv[2], argv[3] if len(argv) > 3 else None)))
    else:
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
