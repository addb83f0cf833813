from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from volkit.extraction import (
    RESIDUAL_TOL,
    ExtractionError,
    ExtractionReport,
    _phasor_map,
    _scaled_pinv,
    analytic_dataset,
    extract,
)
from volkit.kernels import KernelGrid
from volkit.mixing import (
    enumerate_output_indices,
    unknowns_at_index,
)
from volkit.probing import SpectralDataset, simulate_dataset
from volkit.sweeps import (
    SweepPlan,
    amplitude_schedule,
    standard_sweep_plan,
    validate_plan,
)
from volkit.systems import MultiplierCascade, SaturatingAmplifier, kernel_oracle

from conftest import input_coefficient

CASCADE_KERNEL = partial(kernel_oracle, MultiplierCascade())


def make_plan(n_points=2, schedule=None, coverage="cross", df=1e6):
    axes = (
        tuple(7e6 + 120e6 * i for i in range(n_points)),
        tuple(41e6 + 120e6 * i for i in range(n_points)),
        tuple(87e6 + 120e6 * i for i in range(n_points)),
    )
    if schedule is None:
        schedule = tuple(amplitude_schedule((5.0, 10.0), n_extra=4))
    plan = SweepPlan(axes_hz=axes, df_hz=df, max_mixing_order=3,
                     schedule=tuple(schedule), coverage=coverage,
                     plan_id=f"test-{n_points}pt")
    assert validate_plan(plan, domain="ball").ok
    return plan


def coefficients(plan, k, truncation=3):
    """(amplitudes, terms) coefficient matrix of one index."""
    return _phasor_map(plan, [k], truncation)[1][0]


# -- the per-term, per-index reference the vectorised code must reproduce --


def reference_coefficients(terms, schedule):
    return np.array([[input_coefficient(term, amps) for term in terms]
                     for amps in schedule])


def reference_rows(term, trips):
    tones = np.array(term.argument_tones())
    return np.sign(tones) * trips[:, np.abs(tones) - 1]


def reference_analytic_phasors(kernel_fn, plan, truncation):
    """One ``kernel_fn`` call per argument row, one term at a time."""
    indices = enumerate_output_indices(plan.m_tones, plan.max_mixing_order,
                                       include_dc=True)
    trips = np.array(plan.triplets(), dtype=float)
    phasors = np.zeros((len(trips), len(plan.schedule), len(indices)),
                       dtype=complex)
    for ki, k in enumerate(indices):
        terms = unknowns_at_index(k, truncation)
        coeffs = reference_coefficients(terms, plan.schedule)
        for term, column in zip(terms, coeffs.T):
            values = np.array(
                [kernel_fn(tuple(row), term.order)
                 for row in reference_rows(term, trips).tolist()],
                dtype=complex)
            phasors[:, :, ki] += values[:, None] * column
    return phasors


def exact_lstsq(a, b):
    """Least-squares solution of full-rank ``a`` for each complex column of
    ``b``, from the normal equations in exact rational arithmetic."""
    a = [[Fraction(v) for v in row] for row in a.tolist()]
    n = len(a[0])
    gram = [[sum(row[i] * row[j] for row in a) for j in range(n)]
            for i in range(n)]

    def solve(col):
        rhs = [sum(row[i] * Fraction(v) for row, v in zip(a, col))
               for i in range(n)]
        m = [g[:] + [h] for g, h in zip(gram, rhs)]
        for c in range(n):
            p = next(r for r in range(c, n) if m[r][c])
            m[c], m[p] = m[p], m[c]
            for r in range(n):
                if r != c and m[r][c]:
                    f = m[r][c] / m[c][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        return [float(m[i][n] / m[i][i]) for i in range(n)]

    return np.array([solve(col) for col in b.real.T.tolist()]).T \
        + 1j * np.array([solve(col) for col in b.imag.T.tolist()]).T


def reference_extract(dataset, truncation=3, exact=False):
    """One scaled least-squares solve per index, in dataset order; returns
    (grids, report).  ``exact`` takes each solution from ``exact_lstsq``."""
    plan = dataset.plan
    lattice = tuple(int(round(f / plan.df_hz)) for f in plan.lattice_hz())
    grids = {n: KernelGrid(order=n, lattice_units=lattice, df_hz=plan.df_hz)
             for n in range(1, truncation + 1)}
    trips = np.array(plan.triplets(), dtype=float)
    report = ExtractionReport(n_indices=len(dataset.indices),
                              n_triplets=len(trips))
    finite = dataset.phasors[np.isfinite(dataset.phasors)]
    rhs_floor = max(1e-5 * np.abs(finite).max(initial=0.0), 1e-300)
    samples = {n: ([], []) for n in grids}
    for k in dataset.indices:
        unknowns = unknowns_at_index(k, truncation)
        if not unknowns:
            continue
        block = dataset.phasors[:, :, dataset.indices.index(k)]
        finite = np.isfinite(block)
        good = finite.all(axis=1)
        report.failures.extend(
            (int(t), k, f"missing phasor at amplitude {np.argmin(finite[t])}")
            for t in np.nonzero(~good)[0])
        good_ids = np.nonzero(good)[0]
        if not len(good_ids):
            continue
        a = reference_coefficients(unknowns, plan.schedule)
        b = block[good_ids].T
        scales = np.linalg.norm(a, axis=0)
        scales[scales == 0.0] = 1.0
        x, _, rank, sv = np.linalg.lstsq(a / scales, b, rcond=None)
        x = exact_lstsq(a, b) if exact else (x.T / scales).T
        if rank < len(unknowns):
            cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
            reason = (f"index {k}: rank {rank} < {len(unknowns)} unknowns "
                      f"(condition {cond:.3g})")
            report.failures.extend((int(t), k, reason) for t in good_ids)
            continue
        resid = np.linalg.norm(b - a @ x, axis=0)
        rhs_norm = np.maximum(np.linalg.norm(b, axis=0), rhs_floor)
        bad = resid > RESIDUAL_TOL * rhs_norm
        if bad.any():
            report.warnings.append(
                f"index {k}: residual above tolerance for "
                f"{int(bad.sum())}/{b.shape[1]} right-hand sides")
        report.max_relative_residual = max(report.max_relative_residual,
                                           float((resid / rhs_norm).max()))
        for term, vals in zip(unknowns, x):
            args, vals_list = samples[term.order]
            args.append(reference_rows(term, trips[good_ids]))
            vals_list.append(vals)
    for n, (args, vals) in samples.items():
        if args:
            grids[n].insert(np.concatenate(args), np.concatenate(vals))
        report.points_per_order[n] = grids[n].n_points
    return grids, report


class TestPhasorMap:
    @pytest.mark.parametrize("truncation", [3, 5])
    def test_bit_identical_to_per_term_loop(self, truncation):
        plan = standard_sweep_plan(points_per_axis=3)
        plan = SweepPlan(axes_hz=plan.axes_hz, df_hz=plan.df_hz,
                         max_mixing_order=truncation, schedule=plan.schedule)
        indices = enumerate_output_indices(3, truncation, include_dc=True)
        trips = np.array(plan.triplets(), dtype=float)
        for k, ts, a, rows in zip(indices,
                                  *_phasor_map(plan, indices, truncation)):
            assert ts == unknowns_at_index(k, truncation)
            assert a.shape == (len(plan.schedule), len(ts))
            want = reference_coefficients(ts, plan.schedule)
            assert a.tobytes() == want.tobytes(), k
            assert len(rows) == len(ts)
            for term, got in zip(ts, rows):
                assert got.tobytes() == reference_rows(term, trips).tobytes()

    def test_analytic_dataset_byte_identical_to_per_term_loop(self):
        for plan in (make_plan(n_points=2),
                     standard_sweep_plan(points_per_axis=3)):
            ds = analytic_dataset(CASCADE_KERNEL, plan, truncation=3)
            want = reference_analytic_phasors(CASCADE_KERNEL, plan, 3)
            assert ds.phasors.tobytes() == want.tobytes()


class TestBuildSystem:
    def test_row_coefficients_for_fundamental(self):
        plan = make_plan()
        a = coefficients(plan, (0, 0, 1))
        v1, v2, v3 = plan.schedule[0]
        np.testing.assert_allclose(
            a[0], [v3 / 2, v3**3 / 16, v3 * v2**2 / 8, v3 * v1**2 / 8])

    def test_single_column_difference_product(self):
        plan = make_plan()
        a = coefficients(plan, (0, 1, -2))
        assert a.shape == (len(plan.schedule), 1)
        v1, v2, v3 = plan.schedule[0]
        assert a[0, 0] == pytest.approx(v2 * v3**2 / 16)


class TestSolve:
    def test_rank_deficiency_reported_with_condition(self):
        # identical rows cannot separate four unknowns
        rows = (((0.5, 0.5, 0.5),) * 6)
        plan = make_plan(schedule=rows)
        ds = analytic_dataset(CASCADE_KERNEL, plan, truncation=3)
        _, report = extract(ds, plan, min_success_fraction=0.0)
        reasons = [r for _, k, r in report.failures if k == (0, 0, 1)]
        assert len(reasons) == plan.n_triplets
        assert all("rank" in r and "condition" in r for r in reasons)

    def test_condition_improves_with_level_spread(self):
        plan_narrow = make_plan(
            schedule=tuple(amplitude_schedule((9.0, 10.0), n_extra=0)))
        plan_wide = make_plan(
            schedule=tuple(amplitude_schedule((5.0, 10.0), n_extra=0)))
        conds = []
        for plan in (plan_narrow, plan_wide):
            conds.append(_scaled_pinv(coefficients(plan, (0, 0, 1)))[2])
        assert conds[1] < conds[0]


def kernel_means(grids):
    return {n: grid.sums / grid.counts for n, grid in grids.items()}


def assert_matches_reference(dataset, kernel_tol=1e-13):
    """``extract`` agrees with the per-index reference solve: the same
    points, counts, failures, warnings and point counts; kernels within
    ``kernel_tol`` of each order's peak; the same largest residual within
    1e-15.  Returns the kernel means of both, by order."""
    archive, report = extract(dataset, min_success_fraction=0.0)
    grids, want = reference_extract(dataset)
    for n, grid in archive.grids.items():
        assert np.array_equal(grid.coords, grids[n].coords)
        assert np.array_equal(grid.counts, grids[n].counts)
    got, ref = kernel_means(archive.grids), kernel_means(grids)
    for n in got:
        peak = np.abs(ref[n]).max(initial=0.0)
        assert np.abs(got[n] - ref[n]).max(initial=0.0) <= kernel_tol * peak
    assert report.failures == want.failures
    assert report.warnings == want.warnings
    assert report.points_per_order == want.points_per_order
    assert abs(report.max_relative_residual
               - want.max_relative_residual) <= 1e-15
    return report, got, ref


class TestBatchedSolve:
    """Each distinct coefficient matrix is factored once for all the
    indices that share it; the result matches one solve per index."""

    def test_two_point_cascade(self):
        plan = make_plan(n_points=2)
        ds = analytic_dataset(CASCADE_KERNEL, plan, truncation=3)
        assert assert_matches_reference(ds)[0].failures == []

    def test_three_point_amplifier(self):
        # A probed dataset leaves a residual, and any solve then rounds the
        # order-3 kernels by some 1e-13 of their peak: the per-index solve
        # misses the exact least-squares solution by 3e-13 of it here.  The
        # batched solve must come at least as close to the exact solution.
        amp = SaturatingAmplifier()
        plan = standard_sweep_plan(points_per_axis=3,
                                   levels_dbm=(-30.0, -20.0),
                                   amp_limit_v=amp.saturation_limit_v)
        ds = simulate_dataset(amp, plan)
        report, got, ref = assert_matches_reference(ds, kernel_tol=1e-12)
        assert report.max_relative_residual > RESIDUAL_TOL
        exact = kernel_means(reference_extract(ds, exact=True)[0])
        assert not got[2].any()
        for n in (1, 3):
            assert (np.abs(got[n] - exact[n]).max()
                    <= np.abs(ref[n] - exact[n]).max())

    def test_missing_entries(self):
        plan = make_plan(n_points=2)
        ds = analytic_dataset(CASCADE_KERNEL, plan, truncation=3)
        for t, a, k in ((3, 1, (0, 1, -2)), (0, 0, (1, 0, 0)),
                        (5, 11, (0, 0, 0)), (5, 2, (0, 0, 0)),
                        (7, 4, (2, 1, 0)), (1, 6, (0, 1, 2))):
            ds.phasors[t, a, ds.indices.index(k)] = np.nan
        ds.phasors[2, :, ds.indices.index((1, -1, 1))] = np.nan
        ds.phasors[:, 3, ds.indices.index((0, 2, 0))] = np.nan  # every triplet
        report = assert_matches_reference(ds)[0]
        assert len(report.failures) == 6 + plan.n_triplets

    def test_rank_deficient_schedule(self):
        plan = make_plan(schedule=((0.5, 0.5, 0.5),) * 6)
        ds = analytic_dataset(CASCADE_KERNEL, plan, truncation=3)
        report = assert_matches_reference(ds)[0]
        assert any("rank" in reason for _, _, reason in report.failures)


class TestExtract:
    def test_oracle_round_trip_exact_to_solver_tolerance(self):
        sys = MultiplierCascade()
        plan = make_plan(n_points=2)
        ds = analytic_dataset(partial(kernel_oracle, sys), plan, truncation=3)
        archive, report = extract(ds, plan)
        assert report.success_fraction == 1.0
        assert report.max_relative_residual <= 1e-10
        checked = 0
        for n in (1, 2, 3):
            for args, val in archive.grid(n).items():
                truth = kernel_oracle(sys, args, n)
                assert abs(val - truth) <= 1e-8 * abs(truth)
                checked += 1
        assert checked > 50

    def test_per_triplet_yield_counts(self):
        sys = MultiplierCascade()
        plan = make_plan(n_points=1)  # exactly one triplet
        ds = analytic_dataset(partial(kernel_oracle, sys), plan, truncation=3)
        archive, report = extract(ds, plan)
        assert report.points_per_order == {1: 3, 2: 12, 3: 28}
        keep = [i for i, k in enumerate(ds.indices) if any(k)]
        no_dc, _ = extract(SpectralDataset(
            plan=plan, indices=tuple(ds.indices[i] for i in keep),
            phasors=ds.phasors[:, :, keep]), plan)
        assert no_dc.grid(2).n_points == 9
        assert no_dc.grid(1).n_points == 3
        assert no_dc.grid(3).n_points == 28

    def test_failure_isolation_and_reporting(self):
        sys = MultiplierCascade()
        plan = make_plan(n_points=2)
        ds = analytic_dataset(partial(kernel_oracle, sys), plan, truncation=3)
        kpos = ds.indices.index((0, 1, -2))
        ds.phasors[3, 1, kpos] = np.nan
        archive, report = extract(ds, plan)
        assert len(report.failures) == 1
        t, k, reason = report.failures[0]
        assert (t, k) == (3, (0, 1, -2))
        assert "amplitude 1" in reason
        assert report.success_fraction < 1.0
        assert archive.grid(3).n_points > 0

    def test_low_success_fraction_raises(self):
        sys = MultiplierCascade()
        plan = make_plan(n_points=1)
        ds = analytic_dataset(partial(kernel_oracle, sys), plan, truncation=3)
        ds.phasors[:, 4, :] = np.nan
        with pytest.raises(ExtractionError, match="resolved"):
            extract(ds, plan)

    @pytest.mark.parametrize("fraction", [np.nan, -1.0, 1.5, np.inf])
    def test_min_success_fraction_must_lie_in_unit_interval(self, fraction):
        plan = make_plan()
        ds = analytic_dataset(CASCADE_KERNEL, plan, truncation=3)
        ds.phasors[:] = np.nan   # nothing resolves, so no bound could pass
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            extract(ds, plan, min_success_fraction=fraction)

    def test_truncation_above_plan_order_rejected(self):
        plan = make_plan()
        ds = analytic_dataset(CASCADE_KERNEL, plan, truncation=3)
        with pytest.raises(ValueError, match="truncation"):
            extract(ds, plan, truncation=5)

    def test_undersized_schedule_rejected_up_front(self):
        plan = make_plan(schedule=((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)))
        ds = analytic_dataset(CASCADE_KERNEL, plan, truncation=3)
        with pytest.raises(ValueError, match="widest index system"):
            extract(ds, plan)

    def test_dataset_without_indices_rejected(self):
        plan = make_plan()
        ds = SpectralDataset(plan=plan, indices=(), phasors=np.zeros(
            (plan.n_triplets, len(plan.schedule), 0), dtype=complex))
        with pytest.raises(ValueError, match="no output indices"):
            extract(ds, plan)

    def test_plan_must_be_the_datasets(self):
        plan = make_plan()
        ds = analytic_dataset(CASCADE_KERNEL, plan, truncation=3)
        assert extract(ds, make_plan())[1].success_fraction == 1.0  # equal
        shifted = SweepPlan(
            axes_hz=tuple(tuple(f + 2e6 for f in ax) for ax in plan.axes_hz),
            df_hz=plan.df_hz, max_mixing_order=3, schedule=plan.schedule,
            plan_id=plan.plan_id)
        with pytest.raises(ValueError, match="plan differs"):
            extract(ds, shifted)

    def test_eight_tone_probe_recovers_every_kernel(self):
        # index sets are built per order, so many tones cost what they output
        tones_hz = (13e6, 14e6, 17e6, 63e6, 132e6, 256e6, 441e6, 797e6)
        plan = SweepPlan(
            axes_hz=tuple((f,) for f in tones_hz), df_hz=1e6,
            max_mixing_order=3,
            schedule=tuple(amplitude_schedule((-10, -4), m_tones=8)))
        assert validate_plan(plan, domain="ball").ok
        sys = MultiplierCascade()
        archive, report = extract(simulate_dataset(sys, plan))
        assert report.failures == []
        for order, grid in archive.grids.items():
            vals = np.array([v for _, v in grid.items()])
            truth = kernel_oracle(sys, grid.coords * grid.df_hz, order)
            assert np.abs(vals - truth).max() <= 1e-9 * np.abs(truth).min()
