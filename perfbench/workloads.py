"""The benchmark's workloads, their seeded inputs and correctness gates.

Every workload is a closed loop with one client: the next operation starts
only when the previous one has finished.  Operations are timed one by one
until their summed time reaches the run length.  Each output is checked
against the closed-form oracles right after its operation, outside the
timed interval, and an operation that raises or fails its gate counts as
failed.

* ``campaign``: one operation is one probing campaign, for the multiplier
  cascade and the saturating amplifier in turn; a unit of work is a round
  of both, and end-to-end times are taken per round.  The cascade's
  state equation is linear while the amplifier has ``tanh`` inside
  ``deriv``, so a probing shortcut that holds only for linear-state systems
  shows up as a cascade-only change.  It is the only workload that probes
  and the only one that writes datasets.
* ``ingest``: one operation turns one dataset file into a kernel archive.
  It reads the format ``campaign`` writes and does no probing.
* ``predict``: one operation is one request, a seeded trapezoid waveform
  with its own period, answered from an archive loaded and frozen at
  set-up.  It touches only the spectrum, synthesis and kernel queries.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from volkit import (
    MultiplierCascade,
    SaturatingAmplifier,
    TrapezoidPulse,
    Waveform,
    extract,
    kernel_oracle,
    nrmse,
    simulate_dataset,
    spectrum_of,
    standard_sweep_plan,
    synthesize_order,
    synthesize_total,
    transient,
    unknowns_at_index,
)
from calibration import calibration_loop
from volkit.storage import (
    archive_to_dict,
    load_archive,
    load_dataset,
    save_archive,
    save_dataset,
)

# Correctness gates.
CASCADE_KERNEL_TOL = 0.05   # simulated extraction vs oracle (README tolerance)
LEAKAGE_TOL = 1e-3          # amplifier even-order peak over odd-order scale
INGEST_KERNEL_TOL = 1e-9    # exact input: only roundoff may remain
NRMSE_TOL = 0.05            # prediction vs direct transient simulation

# Request shape.  The period sets the cost (order-3 tuples grow about
# as its cube), so requests come in blocks that hold each of PERIOD_LEVELS
# evenly spaced periods once, in seeded order, and a run ends on a block
# boundary.  Every run then has the same period mix, which keeps its median
# and tail steady, while the pulses themselves differ from seed to seed.
# An odd level count puts the median inside the middle level's cluster
# rather than between two clusters; few levels put more samples in it.
PERIOD_LEVELS = 5
DT = 5e-12                   # solver and synthesis time step
DECAY_MARGIN = 14e-9         # quiet time after the pulse, for periodicity
WINDOW_GUARD = 1e-9          # evaluated window is the period minus this

CALIBRATE_EVERY_S = 0.5      # operation time per calibration loop


@dataclass(frozen=True)
class Sizes:
    campaign_points: int      # sweep points per axis of each campaign
    ingest_points: int        # sweep points per axis of the ingested dataset
    archive_points: int       # sweep points per axis of the served archive
    period_ns: tuple[float, float]
    setup_repeats: int


FULL = Sizes(campaign_points=3, ingest_points=8, archive_points=12,
             period_ns=(20.0, 56.0), setup_repeats=5)
FAST = Sizes(campaign_points=2, ingest_points=3, archive_points=4,
             period_ns=(18.0, 22.0), setup_repeats=1)


@dataclass
class Run:
    seed: int
    seconds: float
    sizes: Sizes
    tracer: object
    workdir: str
    inputs: dict = field(default_factory=dict)   # path and size of inputs

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


@dataclass
class Outcome:
    """What one workload run measured, before it is turned into metrics."""

    op_times: list[float] = field(default_factory=list)
    cal_times: list[float] = field(default_factory=list)
    cal_marks: list[int] = field(default_factory=list)  # burst ends
    group: int = 1            # consecutive operations per unit of work
    attempted: int = 0
    failed: int = 0
    report: dict = field(default_factory=dict)    # name -> (value, unit)
    quality: dict = field(default_factory=dict)   # per-layer quality values

    def unit_times(self) -> list[float]:
        """Wall time of each unit of work: ``group`` operations summed."""
        t, g = self.op_times, self.group
        return [sum(t[i:i + g]) for i in range(0, len(t) - g + 1, g)]

    def unit_local_cal(self) -> list[float]:
        """Median calibration time around each unit of work: the bursts
        before its first operation, between its operations and after its
        last one.  ``cal_marks[k]`` ends the burst that follows op k - 1."""
        g, m = self.group, [0] + self.cal_marks
        return [statistics.median(self.cal_times[m[i]:m[i + g + 1]])
                for i in range(0, len(self.op_times) - g + 1, g)]


# ---------------------------------------------------------------------------
# gates


class Oracle:
    """Memoized closed-form kernels of one reference system."""

    def __init__(self, system) -> None:
        self.system = system
        self._memo: dict = {}

    def __call__(self, freqs_hz, order: int) -> complex:
        key = (tuple(freqs_hz), order)
        if key not in self._memo:
            self._memo[key] = kernel_oracle(self.system, freqs_hz, order)
        return self._memo[key]


def kernel_max_rel_err(archive, oracle: Oracle) -> float:
    worst = 0.0
    for order, grid in archive.grids.items():
        for args, value in grid.items():
            ref = oracle(args, order)
            worst = max(worst, abs(value - ref) / abs(ref))
    return worst


def even_leakage(archive) -> float:
    """Largest even-order kernel magnitude over the odd-order scale."""
    peak = {order: max(abs(v) for _, v in grid.items())
            for order, grid in archive.grids.items()}
    odd = max(v for order, v in peak.items() if order % 2)
    even = max((v for order, v in peak.items() if order % 2 == 0), default=0.0)
    return even / odd


def same_archive(a, b) -> bool:
    """Equal stored content: canonical sums, counts, lattices, metadata.

    Averaged values (``KernelGrid.items``) are not compared: they can differ
    in the last bit between a fresh and a reloaded archive, because the
    division runs on numpy scalars in one and on Python complex in the
    other.
    """
    return archive_to_dict(a) == archive_to_dict(b)


class GateError(AssertionError):
    """An operation's output failed its correctness gate."""


def gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def gate_kernels(archive, oracle: Oracle, tol: float) -> float:
    err = kernel_max_rel_err(archive, oracle)
    gate(err <= tol, f"kernel error {err:.3g} > {tol}")
    return err


def gate_leakage(archive) -> float:
    leak = even_leakage(archive)
    gate(leak <= LEAKAGE_TOL, f"even-order leakage {leak:.3g} > {LEAKAGE_TOL}")
    return leak


def gate_nrmse(prediction, reference) -> float:
    err = nrmse(prediction, reference)
    gate(err <= NRMSE_TOL, f"prediction NRMSE {err:.3g} > {NRMSE_TOL}")
    return err


# ---------------------------------------------------------------------------
# shared helpers


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def rk4_steps(capture) -> int:
    """Solver steps of one probing batch: settle plus one record."""
    dt = capture.record_s / capture.samples_per_record
    return math.ceil(capture.settle_s / dt) + capture.samples_per_record


def extraction_counts(dataset, report, truncation: int = 3) -> dict:
    ls_systems = sum(1 for k in dataset.indices
                     if unknowns_at_index(k, truncation))
    return {
        "ls_systems": ls_systems,
        "rhs_columns": ls_systems * report.n_triplets - len(report.failures),
        "success_fraction": report.success_fraction,
        "max_rel_residual": report.max_relative_residual,
        **{f"kernel_points.o{n}": p
           for n, p in report.points_per_order.items()},
    }


def timed_loop(run: Run, outcome: Outcome, name: str, inputs, op,
               check, block: int = 1) -> None:
    """Closed loop over ``inputs``: ``op`` timed under a root span, then
    ``check`` on its result.  Inputs are generated outside the timing.  The
    loop ends once the timed total reaches the run length and a whole
    number of ``block``-sized input blocks has been served.  Calibration
    loops run before the first operation and after each one, about one per
    CALIBRATE_EVERY_S of operation time."""
    outcome.cal_times.append(calibration_loop())
    outcome.cal_marks.append(len(outcome.cal_times))
    i = 0
    while sum(outcome.op_times) < run.seconds or i % block:
        item = next(inputs)
        outcome.attempted += 1
        t0 = time.perf_counter()
        try:
            with run.tracer.op(f"{name}-{i}", name):
                result = op(item)
            outcome.op_times.append(time.perf_counter() - t0)
            check(result)
        except Exception:
            if len(outcome.op_times) < outcome.attempted:
                outcome.op_times.append(time.perf_counter() - t0)
            outcome.failed += 1
            print(f"operation {name}-{i} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        for _ in range(max(1, round(outcome.op_times[-1] / CALIBRATE_EVERY_S))):
            outcome.cal_times.append(calibration_loop())
        outcome.cal_marks.append(len(outcome.cal_times))
        i += 1


# ---------------------------------------------------------------------------
# campaign


def campaign(run: Run) -> Outcome:
    tr = run.tracer
    outcome = Outcome(group=2)
    amplifier = SaturatingAmplifier()
    systems = (
        ("cascade", MultiplierCascade(), {}),
        ("amplifier", amplifier, {"levels_dbm": (-30.0, -20.0),
                                  "amp_limit_v": amplifier.saturation_limit_v}),
    )
    cascade_oracle = Oracle(systems[0][1])
    per_system: dict[str, list[float]] = {"cascade": [], "amplifier": []}
    quality = {"kernel_max_rel_err": 0.0, "even_leakage": 0.0}

    def campaigns():
        """Cascade and amplifier in turn, each with its own jitter seed."""
        plan_seeds = np.random.default_rng(run.seed)
        for i in itertools.count():
            label, system, plan_kw = systems[i % 2]
            yield i, label, system, plan_kw, int(plan_seeds.integers(2**31))

    def op(item):
        i, label, system, plan_kw, plan_seed = item
        t0 = time.perf_counter()
        ds_path = run.path(f"{label}-dataset.json")
        ar_path = run.path(f"{label}-archive.json")
        with tr.span("sweeps.standard_sweep_plan"):
            plan = standard_sweep_plan(
                points_per_axis=run.sizes.campaign_points, seed=plan_seed,
                plan_id=f"{label}-{i}", **plan_kw)
        with tr.span("probing.simulate_dataset", system=label) as c:
            dataset = simulate_dataset(system, plan)
        c.update(operating_points=dataset.n_runs,
                 rk4_steps=rk4_steps(dataset.capture))
        with tr.span("storage.save_dataset") as c:
            save_dataset(ds_path, dataset)
        c["bytes"] = os.path.getsize(ds_path)
        with tr.span("extraction.extract") as c:
            archive, report = extract(dataset, plan)
        c.update(extraction_counts(dataset, report))
        with tr.span("storage.save_archive") as c:
            save_archive(ar_path, archive)
        c["bytes"] = os.path.getsize(ar_path)
        per_system[label].append(time.perf_counter() - t0)
        return label, dataset, archive, ds_path, ar_path

    def check(result):
        label, dataset, archive, ds_path, ar_path = result
        if label == "cascade":
            err = gate_kernels(archive, cascade_oracle, CASCADE_KERNEL_TOL)
            quality["kernel_max_rel_err"] = max(
                quality["kernel_max_rel_err"], err)
        else:
            quality["even_leakage"] = max(quality["even_leakage"],
                                          gate_leakage(archive))
        gate(np.array_equal(load_dataset(ds_path).phasors, dataset.phasors),
             f"{label} dataset file does not read back")
        gate(same_archive(load_archive(ar_path), archive),
             f"{label} archive file does not read back")

    timed_loop(run, outcome, "campaign", campaigns(), op, check, block=2)
    outcome.report.update({
        "campaign_cascade_s": (median(per_system["cascade"]), "s"),
        "campaign_amplifier_s": (median(per_system["amplifier"]), "s"),
        "kernel_max_rel_err": (quality["kernel_max_rel_err"], "ratio"),
        "amplifier_even_leakage": (quality["even_leakage"], "ratio"),
    })
    outcome.quality["extraction.kernel_max_rel_err"] = \
        quality["kernel_max_rel_err"]
    return outcome


# ---------------------------------------------------------------------------
# ingest


def ingest(run: Run) -> Outcome:
    tr = run.tracer
    outcome = Outcome()
    ds_path = run.inputs["dataset_path"]
    ar_path = run.path("ingested-archive.json")
    oracle = Oracle(MultiplierCascade())
    worst = [0.0]

    def op(_):
        with tr.span("storage.load_dataset") as c:
            dataset = load_dataset(ds_path)
        c["bytes"] = os.path.getsize(ds_path)
        with tr.span("extraction.extract") as c:
            archive, report = extract(dataset)
        c.update(extraction_counts(dataset, report))
        for order in sorted(archive.grids):
            with tr.span("kernels.freeze", order=order) as c:
                frozen = archive.frozen(order)
            c["fill_fraction"] = frozen.fill_fraction
        with tr.span("storage.save_archive") as c:
            save_archive(ar_path, archive)
        c["bytes"] = os.path.getsize(ar_path)
        return archive

    def check(archive):
        worst[0] = max(worst[0],
                       gate_kernels(archive, oracle, INGEST_KERNEL_TOL))
        gate(same_archive(load_archive(ar_path), archive),
             "ingested archive file does not read back")

    timed_loop(run, outcome, "ingest", itertools.repeat(None), op,
               check)
    outcome.report.update({
        "ingest_s": (median(outcome.op_times), "s"),
        "kernel_max_rel_err": (worst[0], "ratio"),
    })
    outcome.quality["extraction.kernel_max_rel_err"] = worst[0]
    return outcome


# ---------------------------------------------------------------------------
# predict


def request_stream(seed: int, period_ns: tuple[float, float]):
    """Distinct seeded trapezoid waveforms, each one period long."""
    rng = np.random.default_rng(seed)
    steps = np.round(np.linspace(*period_ns, PERIOD_LEVELS) * 1e-9 / DT)
    while True:
        for n in rng.permutation(steps).astype(int):
            period = n * DT
            rise, fall = rng.uniform(0.5e-9, 1.5e-9, size=2)
            width = rng.uniform(
                1e-9, min(6e-9, period - DECAY_MARGIN - rise - fall))
            pulse = TrapezoidPulse(v0=rng.uniform(0.5, 1.0), t_rise=rise,
                                   t_width=width, t_fall=fall)
            yield Waveform(samples=pulse(DT * np.arange(n)), dt=DT), period


def predict(run: Run) -> Outcome:
    tr = run.tracer
    outcome = Outcome()
    system = MultiplierCascade()
    with tr.span("storage.load_archive") as c:
        archive = load_archive(run.inputs["archive_path"])
    c["bytes"] = os.path.getsize(run.inputs["archive_path"])
    for order in sorted(archive.grids):
        with tr.span("kernels.freeze", order=order) as c:
            frozen = archive.frozen(order)
        c["fill_fraction"] = frozen.fill_fraction
    worst = [0.0]

    def op(request):
        wave, period = request
        window = period - WINDOW_GUARD
        with tr.span("synthesis.spectrum_of"):
            spectrum, _ = spectrum_of(wave, period)
        if not tr.enabled:
            total = synthesize_total(archive, spectrum, window, DT).total.samples
            return wave, spectrum, window, total
        total = None
        for order in sorted(archive.grids):
            with tr.span("synthesis.synthesize_order", order=order) as c:
                part, info = synthesize_order(archive, spectrum, order,
                                              window, DT)
            c.update(tuples=info.n_tuples, bins_used=info.n_bins_used,
                     dropped_tuple_fraction=info.dropped_tuple_fraction)
            total = part.samples if total is None else total + part.samples
        return wave, spectrum, window, total

    checked = [0]

    def check(result):
        wave, spectrum, window, total = result
        # synthesize_total is deterministic; once per block bounds the cost
        if tr.enabled and checked[0] % PERIOD_LEVELS == 0:
            whole = synthesize_total(archive, spectrum, window, DT)
            gate(whole.total.samples.tobytes() == total.tobytes(),
                 "per-order sum differs from synthesize_total")
        checked[0] += 1
        reference = transient(system, wave, window, DT)
        worst[0] = max(worst[0], gate_nrmse(total, reference.samples))

    timed_loop(run, outcome, "predict",
               request_stream(run.seed, run.sizes.period_ns), op, check,
               block=PERIOD_LEVELS)
    ms = sorted(1e3 * t for t in outcome.op_times)
    outcome.report.update({
        "predict_p50_ms": (median(ms), "ms"),
        "predict_rps": (len(ms) / sum(outcome.op_times), "1/s"),
        "predict_max_nrmse": (worst[0], "ratio"),
    })
    if len(ms) > 10:
        # highest percentile with at least ten samples beyond it
        outcome.report["predict_tail_ms"] = (ms[-11], "ms")
        outcome.report["predict_tail_percentile"] = (
            100.0 * (len(ms) - 10) / len(ms), "%")
    outcome.report["predict_samples"] = (len(ms), "count")
    outcome.quality["synthesis.max_nrmse"] = worst[0]
    return outcome


WORKLOADS = {"campaign": campaign, "ingest": ingest, "predict": predict}
