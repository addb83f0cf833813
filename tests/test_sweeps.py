import numpy as np
import pytest

from volkit.sweeps import (
    PlanReport,
    SweepPlan,
    amplitude_schedule,
    dbm_to_volts,
    standard_sweep_plan,
    validate_plan,
)


class TestDbmConversion:
    def test_10_dbm_is_one_volt_peak(self):
        assert dbm_to_volts(10.0) == pytest.approx(1.0)

    def test_5_dbm(self):
        # sqrt(2 * 50 * 10**(-2.5)) computed independently
        assert dbm_to_volts(5.0) == pytest.approx(0.5623413251903491)

    def test_minus_20_dbm(self):
        assert dbm_to_volts(-20.0) == pytest.approx(np.sqrt(2 * 50 * 1e-5))


class TestAmplitudeSchedule:
    def test_cross_product_size(self):
        rows = amplitude_schedule((5.0, 10.0), m_tones=3, n_extra=0)
        assert len(rows) == 8

    def test_extra_rows_are_intermediate(self):
        rows = amplitude_schedule((5.0, 10.0), m_tones=3, n_extra=4, seed=7)
        lo, hi = dbm_to_volts(5.0), dbm_to_volts(10.0)
        assert len(rows) == 12
        for row in rows[8:]:
            assert all(lo <= v <= hi for v in row)

    def test_deterministic_under_seed(self):
        a = amplitude_schedule((5.0, 10.0), n_extra=3, seed=42)
        b = amplitude_schedule((5.0, 10.0), n_extra=3, seed=42)
        assert a == b

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            amplitude_schedule(())


class TestStandardPlan:
    def test_axis_geometry(self):
        plan = standard_sweep_plan()
        assert len(plan.axes_hz[0]) == 18
        assert plan.axes_hz[0][0] == 7e6
        assert plan.axes_hz[1][0] == 41e6
        assert plan.axes_hz[2][0] == 87e6
        assert plan.axes_hz[0][-1] == pytest.approx(2.047e9)
        assert plan.axes_hz[1][-1] == pytest.approx(2.081e9)
        assert plan.axes_hz[2][-1] == pytest.approx(2.127e9)

    def test_first_aligned_triplet(self):
        plan = standard_sweep_plan(coverage="aligned")
        assert plan.triplets()[0] == (7e6, 41e6, 87e6)
        assert plan.n_triplets == 18

    def test_cross_triplet_count(self):
        plan = standard_sweep_plan()
        assert plan.n_triplets == 18**3

    def test_effective_lattice_spacing_near_40mhz(self):
        lat = standard_sweep_plan().lattice_hz()
        gaps = np.diff(lat)
        assert len(lat) == 54
        assert gaps.mean() == pytest.approx(40e6, rel=0.01)
        assert gaps.max() <= 46e6

    def test_amplitude_limit_enforced_at_plan_time(self):
        with pytest.raises(ValueError, match="exceeds amplitude limit"):
            standard_sweep_plan(levels_dbm=(5.0, 10.0), amp_limit_v=0.07)
        plan = standard_sweep_plan(levels_dbm=(-30.0, -20.0), amp_limit_v=0.07)
        assert plan.max_amplitude_v < 0.07

    def test_off_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="not a multiple"):
            SweepPlan(axes_hz=((1.5e6,),), df_hz=1e6, max_mixing_order=3,
                      schedule=((1.0,),))

    @pytest.mark.parametrize("axes, order, schedule, message", [
        (((np.nan,),), 3, ((1.0,),), "axis frequency nan"),
        (((np.inf,),), 3, ((1.0,),), "axis frequency inf"),
        (((0.0,),), 3, ((1.0,),), "axis frequency 0.0"),
        (((-2e6,),), 3, ((1.0,),), "axis frequency -2000000.0"),
        (((2e6,),), 3, ((np.nan,),), r"amplitudes \[nan\]"),
        (((2e6,),), 3, ((np.inf,),), r"amplitudes \[inf\]"),
        (((2e6,),), 3, ((-0.5,),), r"amplitudes \[-0.5\]"),
        (((2e6,),), 0, ((1.0,),), "max_mixing_order must be >= 1, not 0"),
        (((2e6,), ()), 3, ((1.0, 1.0),), "axis 1 has no frequencies"),
    ], ids=["nan tone", "infinite tone", "zero tone", "negative tone",
            "nan amplitude", "infinite amplitude", "negative amplitude",
            "order zero", "empty axis"])
    def test_impossible_plan_rejected(self, axes, order, schedule, message):
        with pytest.raises(ValueError, match=message):
            SweepPlan(axes_hz=axes, df_hz=1e6, max_mixing_order=order,
                      schedule=schedule)


class TestValidatePlan:
    def test_aligned_standard_plan_passes_full_cube(self):
        report = validate_plan(standard_sweep_plan(coverage="aligned"),
                               domain="cube")
        assert report.ok
        assert report.n_triplets_checked == 18

    def test_oversized_cube_refused_up_front(self):
        plan = SweepPlan(
            axes_hz=tuple((f * 1e6,) for f in range(10, 22)), df_hz=1e6,
            max_mixing_order=3, schedule=((1.0,) * 12,), coverage="aligned")
        with pytest.raises(ValueError, match="holds 13841287201 vectors"):
            validate_plan(plan, domain="cube")

    def test_triplet_units_follow_triplets(self):
        plan = standard_sweep_plan(points_per_axis=2)
        units = plan.triplet_units()
        assert units.dtype == np.int64
        assert units.tolist() == [[round(f / 1e6) for f in t]
                                  for t in plan.triplets()]

    def test_cross_plan_passes_recorded_product_domain(self):
        report = validate_plan(standard_sweep_plan(points_per_axis=6),
                               domain="ball")
        assert report.ok

    def test_harmonic_overlap_detected(self):
        plan = SweepPlan(
            axes_hz=((100e6,), (200e6,), (350e6,)), df_hz=1e6,
            max_mixing_order=3, schedule=((1.0, 1.0, 1.0),))
        report = validate_plan(plan, domain="cube")
        assert not report.ok
        pairs = {frozenset([k1, k2]) for _, k1, k2 in report.collisions}
        assert frozenset([(2, 0, 0), (0, 1, 0)]) in pairs

    def test_sum_frequency_overlap_detected(self):
        plan = SweepPlan(
            axes_hz=((100e6,), (230e6,), (330e6,)), df_hz=1e6,
            max_mixing_order=3, schedule=((1.0, 1.0, 1.0),))
        report = validate_plan(plan, domain="cube")
        assert not report.ok
        pairs = {frozenset([k1, k2]) for _, k1, k2 in report.collisions}
        assert frozenset([(1, 1, 0), (0, 0, 1)]) in pairs

    def test_report_string_mentions_triplet(self):
        plan = SweepPlan(
            axes_hz=((100e6,), (200e6,), (350e6,)), df_hz=1e6,
            max_mixing_order=3, schedule=((1.0, 1.0, 1.0),))
        text = str(validate_plan(plan))
        assert "INVALID" in text and "triplet 0" in text
        assert "ok" in str(PlanReport(ok=True, domain="cube", n_triplets_checked=3))

    def test_collision_free_iff_sums_injective(self):
        # Brute-force restatement of the report for a small custom plan.
        plan = SweepPlan(
            axes_hz=((3e6, 5e6), (7e6, 11e6)), df_hz=1e6,
            max_mixing_order=2, schedule=((1.0, 1.0),), coverage="cross")
        report = validate_plan(plan, domain="ball")
        import itertools
        ball = [k for k in itertools.product(range(-2, 3), repeat=2)
                if abs(k[0]) + abs(k[1]) <= 2]
        for trip in plan.triplets():
            units = [int(t / 1e6) for t in trip]
            sums = [k[0] * units[0] + k[1] * units[1] for k in ball]
            assert (len(set(sums)) == len(sums)) == report.ok
