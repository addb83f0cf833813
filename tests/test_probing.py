import math

import numpy as np
import pytest

from volkit.mixing import MixTerm, input_coefficient
from volkit.probing import (
    CaptureAlignmentError,
    PlanInvalidError,
    ProbeSettings,
    TransientBlowupError,
    Waveform,
    analytic_dataset,
    capture_phasors,
    simulate_dataset,
    transient,
)
from volkit.sweeps import SweepPlan, ToneSet, standard_sweep_plan, validate_plan
from volkit.systems import (
    MultiplierCascade,
    SaturatingAmplifier,
    kernel_oracle,
    lowpass_ladder,
    oracle_fn,
)


def small_plan(schedule=((0.05, 0.04, 0.03),), coverage="cross"):
    """Fast three-tone plan: df = 4 MHz, one triplet, sub-GHz products."""
    plan = SweepPlan(
        axes_hz=((52e6,), (68e6,), (92e6,)),
        df_hz=4e6,
        max_mixing_order=3,
        schedule=schedule,
        coverage=coverage,
        plan_id="test-small",
    )
    assert validate_plan(plan, domain="ball").ok
    return plan


class Unstable:
    state_dim = 1
    slowest_time_constant = 1.0

    def deriv(self, x, u):
        return 5e9 * x + u

    def output(self, x, u):
        return x[0]


class Oscillator:
    """Growing 1 GHz rotation; RK4 at the small plan's step overflows to NaN
    within one check interval."""

    state_dim = 2
    slowest_time_constant = 1e-9
    a = np.array([[2e9, 2 * np.pi * 1e9], [-2 * np.pi * 1e9, 2e9]])

    def deriv(self, x, u):
        return self.a @ x + np.array([[1.0], [0.0]]) * u

    def output(self, x, u):
        return x[0]


class TestTransient:
    def test_zero_input_gives_zero_output(self):
        sys = MultiplierCascade()
        wave = transient(sys, lambda t: np.zeros_like(t), 50e-9, 0.1e-9)
        assert np.all(wave.samples == 0.0)

    def test_single_tone_fundamental_matches_transfer(self):
        sys = MultiplierCascade()
        f0, df, amp = 500e6, 4e6, 0.02
        tones = ToneSet(freqs_hz=(f0,), amps_v=(amp,))
        record = 1.0 / df
        dt = record / 2048
        wave = transient(sys, tones, 300e-9 + record, dt)
        got = capture_phasors(wave, (f0,), df, 1, settle_s=300e-9,
                              record_s=record, include_dc=False)[(1,)]
        expect = 0.5 * amp * sys.blocks[0].transfer_hz(f0)
        assert abs(got - expect) / abs(expect) < 5e-3

    def test_step_halving_shows_fourth_order_convergence(self):
        sys = MultiplierCascade()
        tones = ToneSet(freqs_hz=(400e6,), amps_v=(0.5,))
        dur = 40e-9
        y = {}
        for div in (1, 2, 4):
            dt = 0.4e-9 / div
            y[div] = transient(sys, tones, dur, dt).samples[::div][:100]
        e1 = np.abs(y[1] - y[2]).max()
        e2 = np.abs(y[2] - y[4]).max()
        order = np.log2(e1 / e2)
        assert order >= 3.5

    def test_blowup_detected(self):
        with pytest.raises(TransientBlowupError):
            transient(Unstable(), lambda t: np.ones_like(t), 100e-9, 0.01e-9)

    def test_blowup_checked_after_last_step(self):
        # 1000 steps, fewer than a check interval: the state ends finite
        # but far past the limit
        with pytest.raises(TransientBlowupError, match="at t=1e-08 s"):
            transient(Unstable(), lambda t: np.ones_like(t), 10e-9, 0.01e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_is_a_blowup(self):
        plan = small_plan()
        tones = ToneSet(freqs_hz=plan.triplets()[0], amps_v=plan.schedule[0])
        with pytest.raises(TransientBlowupError, match="nan"):
            transient(Oscillator(), tones, 450e-9, 1.0 / plan.df_hz / 512)

    def test_waveform_drive_requires_matching_step(self):
        wave = Waveform(samples=np.zeros(16), dt=1e-9)
        with pytest.raises(ValueError, match="solver step"):
            transient(MultiplierCascade(), wave, 8e-9, 0.5e-9)


class TestCapture:
    def test_cosine_phasor_is_half_amplitude(self):
        df, amp, f0 = 1e6, 0.8, 250e6
        dt = 1.0 / df / 4096
        t = np.arange(int(1.2 / df / dt)) * dt
        wave = Waveform(samples=amp * np.cos(2 * np.pi * f0 * t), dt=dt)
        got = capture_phasors(wave, (f0,), df, 1, settle_s=0.1 / df,
                              record_s=1.0 / df)
        assert got[(1,)] == pytest.approx(amp / 2.0, abs=1e-12)

    def test_synthetic_multitone_is_bin_exact(self):
        # Known two-sided phasors at the mixing bins of a three-tone set.
        plan = small_plan()
        trip = plan.triplets()[0]
        units = [int(f / plan.df_hz) for f in trip]
        rng = np.random.default_rng(3)
        from volkit.mixing import enumerate_output_indices
        idx = enumerate_output_indices(3, 3, include_dc=True)
        truth = {}
        for k in idx:
            s = sum(ki * ui for ki, ui in zip(k, units))
            if s == 0:
                truth[k] = complex(rng.normal(), 0.0)
            else:
                truth[k] = complex(rng.normal(), rng.normal())
        dt = 1.0 / plan.df_hz / 1024
        t = np.arange(int(1.25 / plan.df_hz / dt)) * dt
        y = np.zeros_like(t)
        for k, b in truth.items():
            s = sum(ki * ui for ki, ui in zip(k, units))
            f = s * plan.df_hz
            if s == 0:
                y += b.real
            else:
                y += 2.0 * (b * np.exp(2j * np.pi * f * t)).real
        wave = Waveform(samples=y, dt=dt)
        got = capture_phasors(wave, trip, plan.df_hz, 3,
                              settle_s=0.25 / plan.df_hz,
                              record_s=1.0 / plan.df_hz)
        scale = max(abs(v) for v in truth.values())
        for k, b in truth.items():
            assert abs(got[k] - b) <= 1e-12 * scale

    def test_products_beyond_max_order_not_captured(self):
        plan = small_plan()
        dt = 1.0 / plan.df_hz / 512
        wave = Waveform(samples=np.zeros(int(1.0 / plan.df_hz / dt)), dt=dt)
        got = capture_phasors(wave, plan.triplets()[0], plan.df_hz, 3,
                              settle_s=0.0, record_s=1.0 / plan.df_hz)
        assert all(sum(map(abs, k)) <= 3 for k in got)

    def test_off_grid_tone_rejected(self):
        wave = Waveform(samples=np.zeros(4096), dt=1e-9 / 4)
        with pytest.raises(CaptureAlignmentError, match="not a multiple"):
            capture_phasors(wave, (13.37e6,), 4e6, 3, settle_s=0.0,
                            record_s=0.25e-6)

    def test_wrong_record_length_rejected(self):
        wave = Waveform(samples=np.zeros(4096), dt=1e-9)
        with pytest.raises(CaptureAlignmentError, match="resolution period"):
            capture_phasors(wave, (52e6,), 4e6, 3, settle_s=0.0,
                            record_s=0.5e-6)


class TestBruteForceKernelConstants:
    """Time-domain probing pins the oracle's normalization constants."""

    def test_second_harmonic_fixes_diagonal_h2(self):
        sys = MultiplierCascade()
        f0, df, amp = 100e6, 4e6, 0.01
        record = 1.0 / df
        dt = record / 1024
        wave = transient(sys, ToneSet(freqs_hz=(f0,), amps_v=(amp,)),
                         250e-9 + record, dt)
        got = capture_phasors(wave, (f0,), df, 2, settle_s=250e-9,
                              record_s=record)[(2,)]
        # B at 2f = (V/2)^2/2! * H2(f, f); oracle says H2(f, f) = 2*Ha*Hb
        h = sys.blocks[0].transfer_hz(f0)
        expect = amp**2 / 8.0 * 2.0 * h * h
        assert abs(got - expect) / abs(expect) < 2e-3

    def test_sum_tone_fixes_off_diagonal_h2(self):
        sys = MultiplierCascade()
        plan = small_plan(schedule=((0.01, 0.012, 0.008),))
        trip = plan.triplets()[0]
        record = 1.0 / plan.df_hz
        dt = record / 1024
        tones = ToneSet(freqs_hz=trip, amps_v=plan.schedule[0])
        wave = transient(sys, tones, 250e-9 + record, dt)
        got = capture_phasors(wave, trip, plan.df_hz, 3, settle_s=250e-9,
                              record_s=record)
        v1, v2, v3 = plan.schedule[0]
        h = sys.blocks[0].transfer_hz
        b110 = v1 * v2 / 4.0 * kernel_oracle(sys, (trip[0], trip[1]), 2)
        assert abs(got[(1, 1, 0)] - b110) / abs(b110) < 2e-3
        b111 = v1 * v2 * v3 / 8.0 * kernel_oracle(sys, trip, 3)
        assert abs(got[(1, 1, 1)] - b111) / abs(b111) < 5e-3

    def test_orders_above_three_are_numerically_absent(self):
        # Separate y1..y3 from three scaled runs; they must explain a fourth.
        sys = MultiplierCascade()
        pulse = lambda t: np.exp(-((t - 10e-9) / 3e-9) ** 2)
        dt = 0.05e-9
        dur = 60e-9
        scales = (1.0, 0.5, 0.25)
        outs = [transient(sys, lambda t, a=a: a * pulse(t), dur, dt).samples
                for a in scales]
        vand = np.array([[a, a**2, a**3] for a in scales])
        orders = np.linalg.solve(vand, np.stack(outs))
        a4 = 0.75
        predicted = np.array([a4, a4**2, a4**3]) @ orders
        actual = transient(sys, lambda t: a4 * pulse(t), dur, dt).samples
        assert np.abs(predicted - actual).max() <= 1e-9 * np.abs(actual).max()


class TestSimulatedDataset:
    def test_convention_lock_against_analytic_first_order(self):
        lin = MultiplierCascade(include_orders=(1,))
        plan = small_plan(schedule=((0.05, 0.04, 0.03), (0.02, 0.02, 0.02)))
        sim = simulate_dataset(lin, plan)
        ana = analytic_dataset(oracle_fn(lin), plan, truncation=1)
        for ti in range(plan.n_triplets):
            for ai in range(len(plan.schedule)):
                for k in sim.indices:
                    got = sim.phasor(ti, ai, k)
                    ref = ana.phasor(ti, ai, k)
                    if sum(map(abs, k)) == 1:
                        assert abs(got - ref) / abs(ref) < 5e-3
                    else:
                        assert abs(got) <= 1e-10

    def test_pure_order_indices_scale_as_6_and_9_db(self):
        sys = MultiplierCascade()
        alpha = 10 ** (-3.0 / 20.0)
        base = (0.2, 0.18, 0.16)
        down = tuple(alpha * v for v in base)
        plan = small_plan(schedule=(base, down))
        ds = simulate_dataset(sys, plan)
        drop2 = 20 * np.log10(abs(ds.phasor(0, 0, (1, 1, 0))) /
                              abs(ds.phasor(0, 1, (1, 1, 0))))
        drop3 = 20 * np.log10(abs(ds.phasor(0, 0, (1, 1, 1))) /
                              abs(ds.phasor(0, 1, (1, 1, 1))))
        assert drop2 == pytest.approx(6.0206, abs=0.1)
        assert drop3 == pytest.approx(9.0309, abs=0.1)

    def test_colliding_plan_refused(self):
        plan = SweepPlan(axes_hz=((100e6,), (200e6,), (348e6,)), df_hz=4e6,
                         max_mixing_order=3, schedule=((0.01, 0.01, 0.01),))
        with pytest.raises(PlanInvalidError):
            simulate_dataset(MultiplierCascade(), plan)

    def test_all_canonical_indices_present_with_dc(self):
        plan = small_plan()
        ds = simulate_dataset(MultiplierCascade(), plan)
        assert len(ds.indices) == 32
        assert ds.indices[0] == (0, 0, 0)
        assert np.all(np.isfinite(ds.phasors))
        assert ds.phasors[0, 0, 0].imag == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_state_is_a_blowup(self):
        with pytest.raises(TransientBlowupError, match="nan"):
            simulate_dataset(Oscillator(), small_plan())

    @pytest.mark.parametrize("system", [MultiplierCascade(),
                                        SaturatingAmplifier()],
                             ids=["cascade", "amplifier"])
    def test_batched_runs_match_single_transient_runs(self, system):
        plan = small_plan(schedule=((0.05, 0.04, 0.03), (0.02, 0.03, 0.01)))
        ds = simulate_dataset(system, plan)
        info = ds.capture
        dt = info.record_s / info.samples_per_record
        settle = math.ceil(info.settle_s / dt) * dt
        trip = plan.triplets()[0]
        for a, amps in enumerate(plan.schedule):
            wave = transient(system, ToneSet(freqs_hz=trip, amps_v=amps),
                             settle + info.record_s, dt)
            got = capture_phasors(wave, trip, plan.df_hz, 3, settle_s=settle,
                                  record_s=info.record_s)
            assert len(got) == len(ds.indices)
            scale = np.abs(ds.phasors[0, a]).max()
            for k, b in got.items():
                assert abs(ds.phasor(0, a, k) - b) <= 1e-12 * scale

    def test_auto_record_length_for_standard_plan(self):
        plan = standard_sweep_plan()
        from volkit.probing import resolve_settings
        _, info = resolve_settings(MultiplierCascade(), plan, None)
        assert info.samples_per_record == 32768
        assert info.record_s == pytest.approx(1e-6)
        assert info.settle_s == pytest.approx(200e-9)


class TestAnalyticDataset:
    def test_first_order_row_value(self):
        plan = small_plan()
        ds = analytic_dataset(oracle_fn(MultiplierCascade(include_orders=(1,))),
                              plan, truncation=1)
        trip = plan.triplets()[0]
        v3 = plan.schedule[0][2]
        h1 = lowpass_ladder().transfer_hz(trip[2])
        assert ds.phasor(0, 0, (0, 0, 1)) == pytest.approx(0.5 * v3 * complex(h1))

    def test_fundamental_includes_compression_and_desensitization(self):
        plan = small_plan()
        sys = MultiplierCascade()
        ds = analytic_dataset(oracle_fn(sys), plan, truncation=3)
        trip = plan.triplets()[0]
        v1, v2, v3 = plan.schedule[0]
        w1, w2, w3 = trip
        expect = (
            v3 / 2 * kernel_oracle(sys, (w3,), 1)
            + v3**3 / 16 * kernel_oracle(sys, (w3, w3, -w3), 3)
            + v3 * v2**2 / 8 * kernel_oracle(sys, (w2, -w2, w3), 3)
            + v3 * v1**2 / 8 * kernel_oracle(sys, (w1, -w1, w3), 3)
        )
        assert ds.phasor(0, 0, (0, 0, 1)) == pytest.approx(expect)

    def test_difference_product_single_term(self):
        plan = small_plan()
        sys = MultiplierCascade()
        ds = analytic_dataset(oracle_fn(sys), plan, truncation=3)
        w1, w2, w3 = plan.triplets()[0]
        v1, v2, v3 = plan.schedule[0]
        expect = v2 * v3**2 / 16 * kernel_oracle(sys, (w2, -w3, -w3), 3)
        assert ds.phasor(0, 0, (0, 1, -2)) == pytest.approx(expect)

    def test_matches_input_coefficient_helper(self):
        term = MixTerm(k=(0, 1, -2), r=(0, 0, 0))
        assert input_coefficient(term, (0.5, 0.6, 0.7)) == pytest.approx(
            0.6 * 0.49 / 16)
