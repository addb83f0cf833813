from functools import partial

import numpy as np
import pytest

from volkit.extraction import (
    ExtractionError,
    _coefficients,
    _lstsq_scaled,
    analytic_dataset,
    extract,
)
from volkit.mixing import unknowns_at_index
from volkit.probing import SpectralDataset, simulate_dataset
from volkit.sweeps import SweepPlan, amplitude_schedule, validate_plan
from volkit.systems import MultiplierCascade, kernel_oracle

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


class TestUnknowns:
    def test_fundamental_has_linear_plus_three_third_order(self):
        terms = unknowns_at_index((0, 0, 1), 3)
        assert len(terms) == 4
        assert terms[0].order == 1
        assert {t.argument_tones() for t in terms[1:]} == {
            (3, 3, -3), (2, -2, 3), (1, -1, 3)}

    def test_pure_cube_is_single_unknown(self):
        terms = unknowns_at_index((0, 0, 3), 3)
        assert len(terms) == 1

    def test_truncation_5_extends_fundamental(self):
        terms = unknowns_at_index((0, 0, 1), 5)
        assert len(terms) == 10
        assert any(t.argument_tones() == (3, 3, 3, -3, -3) for t in terms)


class TestBuildSystem:
    def test_row_coefficients_for_fundamental(self):
        plan = make_plan()
        a = _coefficients(unknowns_at_index((0, 0, 1), 3), plan.schedule)
        v1, v2, v3 = plan.schedule[0]
        np.testing.assert_allclose(
            a[0], [v3 / 2, v3**3 / 16, v3 * v2**2 / 8, v3 * v1**2 / 8])

    def test_single_column_difference_product(self):
        plan = make_plan()
        a = _coefficients(unknowns_at_index((0, 1, -2), 3), plan.schedule)
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
            a = _coefficients(unknowns_at_index((0, 0, 1), 3), plan.schedule)
            conds.append(_lstsq_scaled(a, np.ones(len(a)))[2])
        assert conds[1] < conds[0]


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
        kpos = ds.index_position((0, 1, -2))
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
