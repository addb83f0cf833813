"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Pipeline-scale criteria run on the 6-points-per-axis reduction of the
stock sweep (same starts, step, resolution, tolerances); the full 18-point
sweep is available through the CLI.
"""

import itertools
import time
from functools import partial

import numpy as np
import pytest

from volkit.extraction import analytic_dataset, extract
from volkit.kernels import KernelGrid
from volkit.mixing import (
    enumerate_kernels_for_order,
    enumerate_output_indices,
    is_canonical,
    term_multiplicity,
    terms_at_index,
)
from volkit.probing import simulate_dataset
from volkit.sweeps import (
    SweepPlan,
    standard_sweep_plan,
    validate_plan,
)
from volkit.synthesis import (
    DiscreteSpectrum,
    nrmse,
    spectrum_of,
    synthesize_order,
    synthesize_total,
)
from volkit.systems import MultiplierCascade, kernel_oracle

from conftest import PULSE_DT, PULSE_PERIOD, PULSE_WINDOW


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_enumeration_exactness():
    t0 = time.time()
    freqs = enumerate_output_indices(3, 3)
    per_order = {
        n: sum(len(v) for v in enumerate_kernels_for_order(3, 3, n).values())
        for n in (1, 2, 3)
    }
    elapsed = time.time() - t0
    assert len(freqs) == 31
    assert per_order == {1: 3, 2: 9, 3: 28}
    assert elapsed < 1.0
    report("criterion 1 (enumeration exactness)",
           f"3/9/28 kernels, 31 frequencies in {elapsed * 1e3:.0f} ms")


def test_criterion_2_plan_validity():
    t0 = time.time()
    plan = standard_sweep_plan(coverage="aligned")
    result = validate_plan(plan, domain="cube")
    elapsed = time.time() - t0
    assert result.ok
    assert result.n_triplets_checked == 18
    assert elapsed < 10.0

    bad = SweepPlan(axes_hz=((100e6,), (200e6,), (350e6,)), df_hz=1e6,
                    max_mixing_order=3, schedule=((1.0, 1.0, 1.0),))
    bad_result = validate_plan(bad, domain="cube")
    assert not bad_result.ok
    report("criterion 2 (plan validity)",
           f"18 aligned triplets collision-free over the full index cube in "
           f"{elapsed:.2f} s; commensurate plan rejected with "
           f"{len(bad_result.collisions)} collisions")


def test_criterion_3_oracle_round_trip(bench_system, bench_plan):
    t0 = time.time()
    ds = analytic_dataset(partial(kernel_oracle, bench_system), bench_plan,
                          truncation=3)
    archive, rep = extract(ds, bench_plan)
    worst = 0.0
    n_checked = 0
    for order in (1, 2, 3):
        for args, val in archive.grid(order).items():
            truth = kernel_oracle(bench_system, args, order)
            worst = max(worst, abs(val - truth) / abs(truth))
            n_checked += 1
    elapsed = time.time() - t0
    assert rep.success_fraction == 1.0
    assert worst <= 1e-6
    assert elapsed < 60.0
    report("criterion 3 (oracle round trip)",
           f"{n_checked} lattice points, worst relative error {worst:.2e} "
           f"in {elapsed:.1f} s")


def test_criterion_4_simulated_extraction(bench_system, bench_archive):
    blk = bench_system.blocks[0]
    h1_errs = []
    for args, val in bench_archive.grid(1).items():
        truth = complex(blk.transfer_hz(args[0]))
        h1_errs.append(abs(val - truth) / abs(truth))
    h1_worst = max(h1_errs)
    assert len(h1_errs) == 18
    assert h1_worst <= 0.02

    worst = {2: 0.0, 3: 0.0}
    slice_points = 0
    for order in (2, 3):
        for args, val in bench_archive.grid(order).items():
            truth = kernel_oracle(bench_system, args, order)
            worst[order] = max(worst[order],
                               abs(val - truth) / abs(truth))
            if order == 3 and any(4.4e8 <= abs(a) <= 5.7e8 for a in args):
                slice_points += 1
    assert slice_points > 100  # the 0.5 GHz region is well populated
    assert worst[2] <= 0.05
    assert worst[3] <= 0.05
    report("criterion 4 (simulated-data extraction)",
           f"H1 worst {h1_worst:.2e} (limit 2e-2); H2 worst {worst[2]:.2e}, "
           f"H3 worst {worst[3]:.2e} (limit 5e-2, {slice_points} points in "
           f"the 0.5 GHz slice region)")


def test_criterion_5_symmetry_audit(bench_archive):
    h2 = bench_archive.grid(2)
    rng = np.random.default_rng(11)
    checked = 0
    for args, val in h2.items():
        a, b = args
        assert h2.query_exact((b, a)) == val
        assert h2.query_exact((-a, -b)) == complex(np.conj(val))
        checked += 1
    assert checked >= 200

    # fixed third argument: permutation symmetry in the first two arguments
    # survives, conjugation within the slice does not
    h3 = bench_archive.grid(3)
    w3 = 447e6
    slice_pairs = []
    for args, val in h3.items():
        for perm in set(itertools.permutations(args)):
            if perm[2] == w3:
                slice_pairs.append((perm[0], perm[1]))
    slice_pairs = sorted(set(slice_pairs))
    assert len(slice_pairs) >= 50
    conj_breaks = 0
    for a, b in slice_pairs:
        v = h3.query_exact((a, b, w3))
        assert h3.query_exact((b, a, w3)) == v
        flipped = h3.query_exact((-a, -b, w3))
        if flipped is not None and abs(flipped - np.conj(v)) > 1e-3 * abs(v):
            conj_breaks += 1
    assert conj_breaks > 0
    report("criterion 5 (symmetry audit)",
           f"H2 store exact under permutation/conjugation at {checked} "
           f"points; fixed-w3 H3 slice keeps only the w1=w2 symmetry "
           f"({conj_breaks} conjugation breaks observed)")


def test_criterion_6_order_scaling(bench_system, bench_archive, unit_pulse):
    alpha = 10.0 ** (-3.0 / 20.0)
    base = (0.2, 0.2, 0.2)
    plan = SweepPlan(
        axes_hz=((7e6,), (41e6,), (87e6,)), df_hz=1e6, max_mixing_order=3,
        schedule=(base, tuple(alpha * v for v in base)), plan_id="scaling")
    ds = simulate_dataset(bench_system, plan)
    b2 = ds.phasors[0, :, ds.indices.index((1, 1, 0))]
    b3 = ds.phasors[0, :, ds.indices.index((1, 1, 1))]
    drop2 = 20.0 * np.log10(abs(b2[0]) / abs(b2[1]))
    drop3 = 20.0 * np.log10(abs(b3[0]) / abs(b3[1]))
    assert abs(drop2 - 6.0) <= 0.1
    assert abs(drop3 - 9.0) <= 0.1

    spectrum, _ = spectrum_of(unit_pulse, PULSE_PERIOD)
    halved = DiscreteSpectrum(spectrum.period_s, spectrum.bins,
                              0.5 * spectrum.coeffs)
    dev = 0.0
    for order in (1, 2, 3):
        full, _ = synthesize_order(bench_archive, spectrum, order,
                                   PULSE_WINDOW, 5e-11)
        half, _ = synthesize_order(bench_archive, halved, order,
                                   PULSE_WINDOW, 5e-11)
        scale = np.abs(full.samples).max()
        dev = max(dev, np.abs(half.samples - 0.5**order * full.samples).max()
                  / scale)
    assert dev <= 1e-12
    report("criterion 6 (order scaling)",
           f"probed drops {drop2:.3f}/{drop3:.3f} dB for a 3 dB input step; "
           f"synthesizer alpha^n deviation {dev:.1e}")


def test_criterion_7_time_domain_end_to_end(bench_archive, unit_pulse,
                                            bench_pulse_reference):
    spectrum, spec_info = spectrum_of(unit_pulse, PULSE_PERIOD)
    resp = synthesize_total(bench_archive, spectrum, PULSE_WINDOW, PULSE_DT)
    total_err = nrmse(resp.total.samples, bench_pulse_reference.samples)
    linear_err = nrmse(resp.per_order[1].samples,
                       bench_pulse_reference.samples)
    assert total_err <= 0.05
    assert linear_err >= 3.0 * total_err
    assert spec_info.dropped_power_fraction <= 1e-3
    report("criterion 7 (time-domain end to end)",
           f"total NRMSE {total_err:.4f} (limit 0.05); linear-only "
           f"{linear_err:.4f} = {linear_err / total_err:.0f}x total")


def test_criterion_8_surrogate_amplifier(amp_system, amp_archive):
    odd_scale = max(
        max(abs(v) for _, v in amp_archive.grid(1).items()),
        max(abs(v) for _, v in amp_archive.grid(3).items()))
    even_peak = max(abs(v) for _, v in amp_archive.grid(2).items())
    assert even_peak <= 1e-3 * odd_scale

    from volkit.probing import transient
    from volkit.synthesis import TrapezoidPulse
    errs = []
    for v0 in (0.2, 0.1, 0.05):
        pulse = TrapezoidPulse(v0=v0)
        ref = transient(amp_system, pulse, PULSE_WINDOW, PULSE_DT)
        spectrum, _ = spectrum_of(pulse, PULSE_PERIOD)
        resp = synthesize_total(amp_archive, spectrum, PULSE_WINDOW, PULSE_DT)
        errs.append(nrmse(resp.total.samples, ref.samples))
    assert errs[0] <= 0.10
    assert errs[0] > errs[1] > errs[2]
    report("criterion 8 (surrogate amplifier)",
           f"even/odd kernel ratio {even_peak / odd_scale:.1e} (limit 1e-3); "
           f"NRMSE at 0.2/0.1/0.05 V drives: "
           f"{errs[0]:.4f}/{errs[1]:.4f}/{errs[2]:.4f}, monotone")


def test_criterion_9_randomized_property_suite():
    rng = np.random.default_rng(2024)

    # canonicalization: one representative per +/- pair, zero canonical
    for _ in range(1000):
        k = tuple(int(v) for v in rng.integers(-3, 4, size=3))
        neg = tuple(-v for v in k)
        if any(k):
            assert is_canonical(k) != is_canonical(neg)
        else:
            assert is_canonical(k)

    # multiplicity: counts distinct argument orderings, sums to (2M)^n
    cases = 0
    while cases < 1000:
        n = int(rng.integers(1, 5))
        k = tuple(int(v) for v in rng.integers(-n, n + 1, size=3))
        terms = terms_at_index(k, n)
        for term in terms:
            perms = set(itertools.permutations(term.argument_tones()))
            assert term_multiplicity(term) == len(perms)
            cases += 1
    for n in (1, 2, 3):
        total = 0
        for k in itertools.product(range(-n, n + 1), repeat=3):
            if sum(map(abs, k)) > n:
                continue
            for term in terms_at_index(k, n):
                total += term_multiplicity(term)
        assert total == 6**n

    # store symmetry: permutation and conjugation exact for random tuples
    units = tuple(range(1, 13))
    grid = KernelGrid(order=3, lattice_units=units, df_hz=1e6)
    inserted = []
    for _ in range(1000):
        args = tuple(float(rng.choice(units) * 1e6) * (-1) ** rng.integers(2)
                     for _ in range(3))
        val = complex(rng.normal(), rng.normal())
        grid.insert(args, val)
        inserted.append(args)
    for args in inserted:
        v = grid.query_exact(args)
        perm = tuple(rng.permutation(args))
        assert grid.query_exact(perm) == v
        assert grid.query_exact(tuple(-a for a in args)) == complex(np.conj(v))
    report("criterion 9 (randomized properties)",
           "1000-case canonicalization, multiplicity, and store-symmetry "
           "suites passed with fixed seed 2024")
