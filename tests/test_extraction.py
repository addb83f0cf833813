import numpy as np
import pytest

from volkit.extraction import (
    ExtractionError,
    ExtractionSettings,
    LSSystem,
    MissingPhasorError,
    build_ls_system,
    coefficient_matrix,
    extract,
    solve_ls,
    unknowns_at_index,
)
from volkit.mixing import MixTerm
from volkit.probing import analytic_dataset
from volkit.sweeps import SweepPlan, amplitude_schedule, validate_plan
from volkit.systems import MultiplierCascade, kernel_oracle, oracle_fn


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
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, truncation=3)
        system = build_ls_system(ds, 0, (0, 0, 1))
        v1, v2, v3 = plan.schedule[0]
        np.testing.assert_allclose(
            system.matrix[0],
            [v3 / 2, v3**3 / 16, v3 * v2**2 / 8, v3 * v1**2 / 8])

    def test_single_column_difference_product(self):
        plan = make_plan()
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, truncation=3)
        system = build_ls_system(ds, 0, (0, 1, -2))
        assert system.matrix.shape[1] == 1
        v1, v2, v3 = plan.schedule[0]
        assert system.matrix[0, 0] == pytest.approx(v2 * v3**2 / 16)

    def test_missing_phasor_is_named(self):
        plan = make_plan()
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, truncation=3)
        kpos = ds.index_position((0, 0, 1))
        ds.phasors[0, 2, kpos] = np.nan
        with pytest.raises(MissingPhasorError) as err:
            build_ls_system(ds, 0, (0, 0, 1))
        assert err.value.triplet_id == 0
        assert err.value.amp_id == 2
        assert err.value.index == (0, 0, 1)

    def test_triplet_set_stacks_single_systems(self):
        plan = make_plan()
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, truncation=3)
        ids = [5, 0, 3]
        stacked = build_ls_system(ds, ids, (0, 0, 1))
        assert stacked.rhs.shape == (len(plan.schedule), len(ids))
        for col, t in enumerate(ids):
            single = build_ls_system(ds, t, (0, 0, 1))
            np.testing.assert_array_equal(stacked.matrix, single.matrix)
            np.testing.assert_array_equal(stacked.rhs[:, col], single.rhs)
        values, _ = solve_ls(stacked)
        one, _ = solve_ls(build_ls_system(ds, 3, (0, 0, 1)))
        for term in stacked.unknowns:
            assert values[term][2] == pytest.approx(one[term], rel=1e-12)

    def test_missing_phasor_in_triplet_set_is_named(self):
        plan = make_plan()
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, truncation=3)
        kpos = ds.index_position((0, 1, -2))
        ds.phasors[4, 3, kpos] = np.nan
        with pytest.raises(MissingPhasorError) as err:
            build_ls_system(ds, [2, 4, 6], (0, 1, -2))
        assert (err.value.triplet_id, err.value.amp_id) == (4, 3)


class TestSolve:
    def test_single_unknown_two_rows_is_ratio(self):
        term = MixTerm(k=(0, 0, 3), r=(0, 0, 0))
        h = 0.4 - 0.9j
        amps = ((0.5, 0.5, 0.5), (0.5, 0.5, 1.0))
        a = coefficient_matrix((0, 0, 3), [term], amps)
        rhs = (a[:, 0] * h).astype(complex)
        system = LSSystem(index=(0, 0, 3), matrix=a, rhs=rhs,
                          unknowns=[term], row_amplitudes=amps)
        values, diag = solve_ls(system)
        assert values[term] == pytest.approx(h)
        assert diag.ok

    def test_underdetermined_rejected(self):
        plan = make_plan(schedule=((0.5, 0.5, 0.5),))
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, truncation=3)
        with pytest.raises(ExtractionError, match="rows"):
            solve_ls(build_ls_system(ds, 0, (0, 0, 1)))

    def test_rank_deficiency_reported_with_condition(self):
        # identical rows cannot separate four unknowns
        rows = (((0.5, 0.5, 0.5),) * 6)
        plan = make_plan(schedule=rows)
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, truncation=3)
        with pytest.raises(ExtractionError, match="rank"):
            solve_ls(build_ls_system(ds, 0, (0, 0, 1)))

    def test_condition_improves_with_level_spread(self):
        plan_narrow = make_plan(
            schedule=tuple(amplitude_schedule((9.0, 10.0), n_extra=0)))
        plan_wide = make_plan(
            schedule=tuple(amplitude_schedule((5.0, 10.0), n_extra=0)))
        conds = []
        for plan in (plan_narrow, plan_wide):
            ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, 3)
            _, diag = solve_ls(build_ls_system(ds, 0, (0, 0, 1)))
            conds.append(diag.cond)
        assert conds[1] < conds[0]


class TestExtract:
    def test_oracle_round_trip_exact_to_solver_tolerance(self):
        sys = MultiplierCascade()
        plan = make_plan(n_points=2)
        ds = analytic_dataset(oracle_fn(sys), plan, truncation=3)
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
        ds = analytic_dataset(oracle_fn(sys), plan, truncation=3)
        archive, report = extract(ds, plan)
        assert report.points_per_order == {1: 3, 2: 12, 3: 28}
        no_dc, _ = extract(ds, plan, ExtractionSettings(include_dc=False))
        assert no_dc.grid(2).n_points == 9
        assert no_dc.grid(1).n_points == 3
        assert no_dc.grid(3).n_points == 28

    def test_failure_isolation_and_reporting(self):
        sys = MultiplierCascade()
        plan = make_plan(n_points=2)
        ds = analytic_dataset(oracle_fn(sys), plan, truncation=3)
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
        ds = analytic_dataset(oracle_fn(sys), plan, truncation=3)
        ds.phasors[:, 4, :] = np.nan
        with pytest.raises(ExtractionError, match="resolved"):
            extract(ds, plan)

    def test_truncation_above_plan_order_rejected(self):
        plan = make_plan()
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, truncation=3)
        with pytest.raises(ValueError, match="truncation"):
            extract(ds, plan, ExtractionSettings(truncation=5))

    def test_undersized_schedule_rejected_up_front(self):
        plan = make_plan(schedule=((0.5, 0.5, 0.5), (1.0, 1.0, 1.0)))
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, truncation=3)
        with pytest.raises(ValueError, match="widest index system"):
            extract(ds, plan)


class TestTwoStage:
    @staticmethod
    def fifth_order_oracle():
        bench = MultiplierCascade()
        h = bench.blocks[0].transfer_hz

        def fn(freqs_hz, order):
            if order <= 3:
                return kernel_oracle(bench, freqs_hz, order)
            if order == 5:
                return 20.0 * complex(np.prod([h(f) for f in freqs_hz]))
            return 0.0

        return fn

    def test_two_stage_shields_linear_kernel_from_truncation_bias(self):
        # Data contains order-5 energy; the model truncates at 3.  With a
        # schedule whose lowest rows are genuinely small, solving the linear
        # term there first keeps the order-5 bias out of it.
        schedule = tuple(amplitude_schedule((-20.0, 0.0, 10.0), n_extra=6))
        plan = make_plan(schedule=schedule)
        ds = analytic_dataset(self.fifth_order_oracle(), plan, truncation=5)
        truth = kernel_oracle(MultiplierCascade(), (92e6,), 1)

        single, _ = solve_ls(
            build_ls_system(ds, 0, (0, 0, 1)),
            ExtractionSettings(two_stage=False))
        staged, _ = solve_ls(
            build_ls_system(ds, 0, (0, 0, 1)),
            ExtractionSettings(two_stage=True))
        h1 = [t for t in unknowns_at_index((0, 0, 1), 3) if t.order == 1][0]
        err_single = abs(single[h1] - truth)
        err_staged = abs(staged[h1] - truth)
        assert err_staged < err_single

    def test_two_stage_noop_when_orders_homogeneous(self):
        plan = make_plan()
        ds = analytic_dataset(oracle_fn(MultiplierCascade()), plan, 3)
        system = build_ls_system(ds, 0, (0, 0, 3))
        plain, _ = solve_ls(system, ExtractionSettings(two_stage=False))
        staged, _ = solve_ls(system, ExtractionSettings(two_stage=True))
        term = system.unknowns[0]
        assert plain[term] == staged[term]
