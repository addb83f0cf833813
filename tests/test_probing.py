from functools import partial

import numpy as np
import pytest

from volkit import probing
from volkit.extraction import analytic_dataset, extract
from volkit.mixing import MixTerm, enumerate_output_indices, input_coefficient
from volkit.probing import (
    CHECK_INTERVAL,
    RUN_CHUNK,
    CaptureAlignmentError,
    PlanInvalidError,
    SpectralDataset,
    TransientBlowupError,
    Waveform,
    _capture_info,
    simulate_dataset,
    transient,
)
from volkit.sweeps import SweepPlan, standard_sweep_plan, validate_plan
from volkit.synthesis import TrapezoidPulse
from volkit.systems import (
    MultiplierCascade,
    SaturatingAmplifier,
    kernel_oracle,
    lowpass_ladder,
)


def tone_drive(freqs_hz, amps_v):
    """Drive callable: a sum of cosines with peak amplitudes ``amps_v``."""
    f = np.asarray(freqs_hz)
    v = np.asarray(amps_v)
    return lambda t: (v[:, None] * np.cos(2.0 * np.pi * f[:, None] * t)
                      ).sum(axis=0)


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


def capture_phasors(
    wave: Waveform,
    freqs_hz: tuple[float, ...],
    df_hz: float,
    max_order: int,
    settle_s: float,
    record_s: float,
    include_dc: bool = True,
) -> dict:
    """Read the phasor at every canonical mixing product of one tone set
    from a stored waveform: the transient-side reference for the probe.

    The record must be exactly one resolution period (1/df) and every tone
    must be an integer multiple of df, so each product falls on a bin.
    """
    if abs(record_s * df_hz - 1.0) > 1e-9:
        raise CaptureAlignmentError(
            f"record {record_s} s must be one resolution period 1/{df_hz}")
    units = []
    for f in freqs_hz:
        m = f / df_hz
        if abs(m - round(m)) > 1e-9:
            raise CaptureAlignmentError(
                f"tone {f} Hz is not a multiple of df={df_hz} Hz")
        units.append(int(round(m)))
    n_rec = record_s / wave.dt
    if abs(n_rec - round(n_rec)) > 1e-6:
        raise CaptureAlignmentError("record is not a whole number of samples")
    n_rec = int(round(n_rec))
    i0 = int(round(settle_s / wave.dt))
    if i0 + n_rec > len(wave.samples):
        raise ValueError("waveform shorter than settle + record")
    seg = wave.samples[i0:i0 + n_rec]
    spec = np.fft.rfft(seg) / n_rec
    t_start = wave.t0 + i0 * wave.dt
    out = {}
    for k in enumerate_output_indices(len(freqs_hz), max_order,
                                      include_dc=include_dc):
        s = sum(ki * ui for ki, ui in zip(k, units))
        b = abs(s)
        if b >= len(spec):
            raise CaptureAlignmentError(
                f"product {k} at {b * df_hz:.3g} Hz beyond Nyquist")
        if s == 0:
            out[k] = complex(spec[0].real, 0.0)
            continue
        val = spec[b] * np.exp(-2j * np.pi * (b * df_hz) * t_start)
        out[k] = complex(np.conj(val)) if s < 0 else complex(val)
    return out


def block_diag(*mats):
    out = np.zeros(np.sum([m.shape for m in mats], axis=0))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def state_space(sys):
    """``(dim, deriv, output)`` of a reference system's coupled state
    equation over its whole state, written out by hand and vectorized over
    a trailing batch axis."""
    if isinstance(sys, SaturatingAmplifier):
        b1, b2 = sys.in_block, sys.out_block
        n1 = b1.order
        a = block_diag(b1.a, b2.a)

        def limited(x, u):
            v = b1.c @ x[:n1] + b1.d * u
            return sys.vsat * np.tanh(sys.gain * v / sys.vsat)

        def deriv(x, u):
            out = a @ x
            out[:n1] += b1.b[:, None] * u
            out[n1:] += b2.b[:, None] * limited(x, u)
            return out

        def output(x, u):
            return b2.c @ x[n1:] + b2.d * limited(x, u)
        return len(a), deriv, output

    a = block_diag(*(blk.a for blk in sys.blocks))
    b = np.concatenate([blk.b for blk in sys.blocks])[:, None]
    c = block_diag(*(blk.c[None, :] for blk in sys.blocks))
    d = np.array([blk.d for blk in sys.blocks])[:, None]

    def deriv(x, u):
        return a @ x + b * u

    def output(x, u):
        p, q, r = c @ x + d * u
        terms = {1: p, 2: p * q, 3: p * q * r}
        return sum(terms[k] for k in sys.include_orders)
    return len(a), deriv, output


def coupled_rk4(sys, drive, duration, dt):
    """Classical RK4 of the coupled state equation, stage by stage: the
    reference ``transient`` must equal to rounding."""
    dim, deriv, output = state_space(sys)
    n = int(round(duration / dt))
    u = probing._drive_stage_values(drive, dt, n)
    x = np.zeros((dim, 1))
    y = np.empty(n)
    for j in range(n):
        u0, um, u1 = u[2 * j:2 * j + 3, None]
        y[j] = output(x, u0)[0]
        k1 = deriv(x, u0)
        k2 = deriv(x + 0.5 * dt * k1, um)
        k3 = deriv(x + 0.5 * dt * k2, um)
        k4 = deriv(x + dt * k3, u1)
        x = x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def constant(t):
    return np.ones_like(t)


SYSTEMS = {"cascade": MultiplierCascade(),
           "amplifier": SaturatingAmplifier(),
           "linear": MultiplierCascade(include_orders=(1,))}


class TestTransient:
    DT = 5e-12

    @pytest.mark.parametrize("drive", ["waveform", "callable"])
    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_matches_coupled_state_space_rk4(self, name, drive):
        sys, dt = SYSTEMS[name], self.DT
        if drive == "waveform":
            wave = TrapezoidPulse()(dt * np.arange(2400))
            drive = Waveform(samples=wave, dt=dt)
        else:
            drive = tone_drive((300e6, 710e6), (0.4, 0.3))
        # one full check block and a partial last one, and one short run
        for n in (2400, 600):
            assert n < CHECK_INTERVAL or n % CHECK_INTERVAL
            got = transient(sys, drive, n * dt, dt).samples
            want = coupled_rk4(sys, drive, n * dt, dt)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["cascade", "amplifier"])
    def test_each_distinct_block_stepped_once(self, name, monkeypatch):
        # the cascade's three input blocks are one object; the amplifier
        # steps its input block and its output block
        calls = []
        step = probing._step_block
        monkeypatch.setattr(probing, "_step_block",
                            lambda *a: calls.append(1) or step(*a))
        transient(SYSTEMS[name], constant, 100 * self.DT, self.DT)
        assert len(calls) == {"cascade": 1, "amplifier": 2}[name]

    def test_zero_input_gives_zero_output(self):
        sys = MultiplierCascade()
        wave = transient(sys, lambda t: np.zeros_like(t), 50e-9, 0.1e-9)
        assert np.all(wave.samples == 0.0)

    def test_single_tone_fundamental_matches_transfer(self):
        sys = MultiplierCascade()
        f0, df, amp = 500e6, 4e6, 0.02
        tones = tone_drive((f0,), (amp,))
        record = 1.0 / df
        dt = record / 2048
        wave = transient(sys, tones, 300e-9 + record, dt)
        got = capture_phasors(wave, (f0,), df, 1, settle_s=300e-9,
                              record_s=record, include_dc=False)[(1,)]
        expect = 0.5 * amp * sys.blocks[0].transfer_hz(f0)
        assert abs(got - expect) / abs(expect) < 5e-3

    def test_step_halving_shows_fourth_order_convergence(self):
        sys = MultiplierCascade()
        tones = tone_drive((400e6,), (0.5,))
        dur = 40e-9
        y = {}
        for div in (1, 2, 4):
            dt = 0.4e-9 / div
            y[div] = transient(sys, tones, dur, dt).samples[::div][:100]
        e1 = np.abs(y[1] - y[2]).max()
        e2 = np.abs(y[2] - y[4]).max()
        order = np.log2(e1 / e2)
        assert order >= 3.5

    # at a 4 ns step RK4 is unstable for the ladder blocks: the state
    # grows about 200-fold a step from the first

    def test_blowup_detected(self):
        # the check after the first step passes; the next check is after
        # the first step of the second block, long past overflow
        dt = 4e-9
        for sys in (MultiplierCascade(), SaturatingAmplifier()):
            with pytest.raises(TransientBlowupError) as err:
                transient(sys, constant, (CHECK_INTERVAL + 300) * dt, dt)
            at = float(str(err.value).split(" at t=")[1].rstrip(" s"))
            assert at == pytest.approx((CHECK_INTERVAL + 1) * dt, rel=1e-2)

    def test_blowup_checked_after_last_step(self):
        # 25 steps, fewer than a check interval: the check after the first
        # passes, and the state ends finite but far past the limit
        for sys in (MultiplierCascade(), SaturatingAmplifier()):
            with pytest.raises(TransientBlowupError,
                               match=r"magnitude \d.*e\+\d+ at t=1e-07 s"):
                transient(sys, constant, 100e-9, 4e-9)

    def test_non_finite_state_is_a_blowup(self):
        for sys in (MultiplierCascade(), SaturatingAmplifier()):
            with pytest.raises(TransientBlowupError,
                               match="nan at t=2e-06 s"):
                transient(sys, constant, 2e-6, 4e-9)

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
        wave = transient(sys, tone_drive((f0,), (amp,)),
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
        tones = tone_drive(trip, plan.schedule[0])
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
        ana = analytic_dataset(partial(kernel_oracle, lin), plan, truncation=1)
        for ti in range(plan.n_triplets):
            for ai in range(len(plan.schedule)):
                for k in sim.indices:
                    got = sim.phasors[ti, ai, sim.index_position(k)]
                    ref = ana.phasors[ti, ai, ana.index_position(k)]
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
        b2 = ds.phasors[0, :, ds.index_position((1, 1, 0))]
        b3 = ds.phasors[0, :, ds.index_position((1, 1, 1))]
        drop2 = 20 * np.log10(abs(b2[0]) / abs(b2[1]))
        drop3 = 20 * np.log10(abs(b3[0]) / abs(b3[1]))
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

    def test_system_without_steady_state_refused(self):
        # transient steps the blocks the probe filters, and refuses a system
        # without them in the same words
        said = []
        for run in (lambda sys: simulate_dataset(sys, small_plan()),
                    lambda sys: transient(sys, constant, 1e-9, 1e-10)):
            with pytest.raises(TypeError, match="object has no input_blocks"
                               ) as err:
                run(object())
            said.append(str(err.value))
        assert said[0] == said[1]

    def test_auto_record_length_for_standard_plan(self):
        # the cascade declares degree 3, the amplifier and a plain object
        # declare none and keep the NYQUIST_HEADROOM record
        plan = standard_sweep_plan()
        from volkit.probing import _capture_info
        for system, n in ((MultiplierCascade(), 16384),
                          (SaturatingAmplifier(), 32768),
                          (object(), 32768)):
            info = _capture_info(system, plan, None)
            assert info.samples_per_record == n
            assert info.record_s == pytest.approx(1e-6)


def run_scaled_gap(got, ref):
    """Largest |got - ref| over the indices, relative to each run's scale."""
    scale = np.abs(ref).max(axis=-1, keepdims=True)
    return float((np.abs(got - ref) / scale).max())


class TestSteadyState:
    """The probe's periodic steady state against independent references."""

    SETTLE_S = 300e-9

    @pytest.mark.parametrize("plan", [
        small_plan(schedule=((0.05, 0.04, 0.03), (0.2, 0.18, 0.16))),
        standard_sweep_plan(points_per_axis=3, plan_id="std-3")],
        ids=["small", "standard-3"])
    def test_cascade_equals_analytic_dataset(self, plan):
        # the cascade's Volterra series stops at order 3: exact to rounding
        sys = MultiplierCascade()
        sim = simulate_dataset(sys, plan)
        ana = analytic_dataset(partial(kernel_oracle, sys), plan, 3)
        assert sim.indices == ana.indices
        assert run_scaled_gap(sim.phasors, ana.phasors) <= 1e-12

    def transient_gap(self, system, plan, samples_per_record):
        ds = simulate_dataset(system, plan, samples_per_record)
        assert ds.capture.settle_s == 0.0
        record = ds.capture.record_s
        dt = record / samples_per_record
        trip = plan.triplets()[0]
        ref = np.empty_like(ds.phasors)
        for a, amps in enumerate(plan.schedule):
            wave = transient(system, tone_drive(trip, amps),
                             self.SETTLE_S + record, dt)
            got = capture_phasors(wave, trip, plan.df_hz, 3,
                                  settle_s=self.SETTLE_S, record_s=record)
            ref[0, a] = [got[k] for k in ds.indices]
        return run_scaled_gap(ds.phasors, ref)

    @pytest.mark.parametrize("system", [MultiplierCascade(),
                                        SaturatingAmplifier()],
                             ids=["cascade", "amplifier"])
    def test_matches_settled_transient_to_rk4_error(self, system):
        # the gap is RK4's step error (4.5e-4 cascade, 1.5e-4 amplifier at
        # the default step); halving the step shrinks it ~16x (4th order)
        # the record (and so the RK4 step) the tolerances were set at; the
        # cascade's own default record is 256 samples, twice the step
        plan = small_plan(schedule=((0.05, 0.04, 0.03), (0.02, 0.03, 0.01)))
        n = 512
        gap = self.transient_gap(system, plan, n)
        gap_half = self.transient_gap(system, plan, 2 * n)
        assert gap <= 1e-3
        assert gap_half <= gap / 10.0

    def test_amplifier_limiter_aliasing_negligible(self):
        # tanh harmonics above Nyquist fold back; doubling the record's
        # sample count must not move any phasor
        amp = SaturatingAmplifier()
        plan = standard_sweep_plan(
            points_per_axis=3, levels_dbm=(-30.0, -20.0),
            amp_limit_v=amp.saturation_limit_v, plan_id="amp-3")
        ds = simulate_dataset(amp, plan)
        n = ds.capture.samples_per_record
        ds2 = simulate_dataset(amp, plan, samples_per_record=2 * n)
        assert run_scaled_gap(ds2.phasors, ds.phasors) <= 1e-12


class TestRecordLength:
    """The probe's default record follows the system's declared degree."""

    def test_cascade_record_is_the_shortest_exact_one(self):
        sys = MultiplierCascade()
        plan = standard_sweep_plan(points_per_axis=3, plan_id="std-3")
        ds = simulate_dataset(sys, plan)
        assert ds.capture.samples_per_record == 2048
        long = simulate_dataset(sys, plan, samples_per_record=32768)
        ana = analytic_dataset(partial(kernel_oracle, sys), plan, 3)
        assert run_scaled_gap(ds.phasors, long.phasors) <= 1e-13
        assert run_scaled_gap(ds.phasors, ana.phasors) <= 1e-13
        # half the record puts the top product at Nyquist
        with pytest.raises(CaptureAlignmentError):
            simulate_dataset(sys, plan, samples_per_record=1024)

    def test_record_follows_declared_degree(self):
        # at mixing order 1 the top tone (247 df) needs n > 2*247 for
        # Nyquist, n > (3+1)*247 for the cascade's degree-3 products, and
        # the undeclared rule puts 247 df at 0.4 of Nyquist
        plan = SweepPlan(axes_hz=((7e6,), (127e6,), (247e6,)), df_hz=1e6,
                         max_mixing_order=1, schedule=((0.01,) * 3,))
        for system, n in ((MultiplierCascade(include_orders=(1,)), 512),
                          (MultiplierCascade(), 1024),
                          (SaturatingAmplifier(), 2048)):
            ds = simulate_dataset(system, plan)
            assert ds.capture.samples_per_record == n
        linear = MultiplierCascade(include_orders=(1,))
        assert linear.polynomial_degree == 1
        ana = analytic_dataset(partial(kernel_oracle, linear), plan, 1)
        got = simulate_dataset(linear, plan).phasors
        assert run_scaled_gap(got, ana.phasors) <= 1e-13

    @pytest.mark.parametrize("points, n", [(3, 8192), (6, 16384)])
    def test_amplifier_record_unchanged(self, points, n):
        amp = SaturatingAmplifier()
        assert not hasattr(amp, "polynomial_degree")
        plan = standard_sweep_plan(
            points_per_axis=points, levels_dbm=(-30.0, -20.0),
            amp_limit_v=amp.saturation_limit_v, plan_id="amp")
        assert simulate_dataset(amp, plan).capture.samples_per_record == n

    @pytest.mark.parametrize("system", [MultiplierCascade(),
                                        SaturatingAmplifier()],
                             ids=["cascade", "amplifier"])
    def test_explicit_record_overrides_default(self, system):
        plan = small_plan()
        ds = simulate_dataset(system, plan, samples_per_record=4096)
        assert ds.capture.samples_per_record == 4096
        assert ds.capture.sample_rate_hz == pytest.approx(4096 * plan.df_hz)

    def test_shared_block_filtered_once_per_probe(self, monkeypatch):
        # one irfft per distinct input block per call, whatever the chunks
        plan = standard_sweep_plan(points_per_axis=3, plan_id="std-3")
        shared = MultiplierCascade()
        separate = MultiplierCascade(
            blocks=(lowpass_ladder(), lowpass_ladder(), lowpass_ladder()))
        calls = []
        irfft = np.fft.irfft

        def counting_irfft(*args, **kwargs):
            calls.append(1)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        assert plan.n_triplets * len(plan.schedule) > RUN_CHUNK
        phasors = []
        for system, filters in ((shared, 1), (separate, 3)):
            calls.clear()
            phasors.append(simulate_dataset(system, plan).phasors.tobytes())
            assert len(calls) == filters
        assert phasors[0] == phasors[1]


def _dense_spectrum_dataset(sys, plan, samples_per_record=None):
    """The probe before tones were superposed, as a reference: per chunk of
    runs a dense rfft spectrum holding each run's tone lines, each distinct
    input block's transfer over every bin and one irfft, the static part,
    one rfft, and the output block's transfer over every bin."""
    info = _capture_info(sys, plan, samples_per_record)
    n_rec = info.samples_per_record
    dt = info.record_s / n_rec
    trip_units = plan.triplet_units()
    n_t, n_a = len(trip_units), len(plan.schedule)
    indices = enumerate_output_indices(plan.m_tones, plan.max_mixing_order,
                                       include_dc=True)
    ks = np.array(indices, dtype=np.int64)
    sums = trip_units @ ks.T
    tone_bins = np.repeat(trip_units, n_a, axis=0)
    amps = np.tile(np.asarray(plan.schedule, dtype=float), (n_t, 1))
    product_bins = np.repeat(np.abs(sums), n_a, axis=0)
    f = np.fft.rfftfreq(n_rec, dt)
    ids = [id(blk) for blk in sys.input_blocks]
    first = [ids.index(i) for i in ids]
    hs = {i: sys.input_blocks[i].transfer_hz(f) for i in set(first)}
    b = np.empty(product_bins.shape, dtype=complex)
    for s in range(0, len(amps), RUN_CHUNK):
        rows = slice(s, s + RUN_CHUNK)
        u = np.zeros((len(amps[rows]), n_rec // 2 + 1), dtype=complex)
        np.put_along_axis(u, tone_bins[rows], 0.5 * n_rec * amps[rows], axis=1)
        outs = {i: np.fft.irfft(u * h, n_rec) for i, h in hs.items()}
        y = np.fft.rfft(sys.static([outs[i] for i in first]))
        if sys.output_block is not None:
            y = y * sys.output_block.transfer_hz(f)
        b[rows] = np.take_along_axis(y, product_bins[rows], axis=1) / n_rec
    b = b.reshape(n_t, n_a, len(indices))
    b = np.where((sums < 0)[:, None, :], np.conj(b), b)
    dc = (ks == 0).all(axis=1)
    b[:, :, dc] = b[:, :, dc].real
    return b


AMP_PLAN_3 = standard_sweep_plan(points_per_axis=3, levels_dbm=(-30.0, -20.0),
                                 amp_limit_v=0.07, plan_id="amp-3")


class TestSuperposition:
    """Each distinct tone filtered once and superposed per run gives the
    dense per-run spectrum path's phasors to rounding."""

    @pytest.mark.parametrize("system", [MultiplierCascade(),
                                        SaturatingAmplifier()],
                             ids=["cascade", "amplifier"])
    @pytest.mark.parametrize("case", ["one-run", "shared-tones", "explicit-n",
                                      "chunk-1", "chunk-7"])
    def test_matches_dense_spectrum_path(self, system, case, monkeypatch):
        if case == "one-run":
            plan = small_plan()
        elif case == "explicit-n":
            plan = small_plan(schedule=((0.05, 0.04, 0.03), (0.02, 0.03, 0.01)))
        elif isinstance(system, SaturatingAmplifier):
            plan = AMP_PLAN_3
        else:
            plan = standard_sweep_plan(points_per_axis=3, plan_id="std-3")
        n = 4096 if case == "explicit-n" else None
        if case.startswith("chunk-"):
            monkeypatch.setattr(probing, "RUN_CHUNK", int(case[6:]))
        got = simulate_dataset(system, plan, n).phasors
        ref = _dense_spectrum_dataset(system, plan, n)
        if case == "one-run":
            assert got.shape[:2] == (1, 1)
        if case == "shared-tones":
            units = plan.triplet_units()
            assert len(np.unique(units)) < units.size
        assert run_scaled_gap(got, ref) <= 1e-15

    def test_amplifier_kernels_match_dense_spectrum_path(
            self, amp_system, amp_plan, amp_dataset, amp_archive):
        ref = SpectralDataset(
            plan=amp_plan, indices=amp_dataset.indices,
            phasors=_dense_spectrum_dataset(amp_system, amp_plan))
        ref_archive, _ = extract(ref, amp_plan)
        for order, grid in amp_archive.grids.items():
            ref_grid = ref_archive.grid(order)
            assert np.array_equal(grid.coords, ref_grid.coords)
            want = ref_grid._means()
            # relative to the order's peak; the even orders are exactly 0
            gap = np.abs(grid._means() - want).max()
            assert gap <= 1e-12 * np.abs(want).max(), order

    def test_system_without_input_blocks_refused(self):
        # a state equation and an output are not enough: the probe needs
        # the block structure
        with pytest.raises(TypeError, match="object has no input_blocks"):
            simulate_dataset(object(), small_plan())


class TestAnalyticDataset:
    def test_first_order_row_value(self):
        plan = small_plan()
        lin = MultiplierCascade(include_orders=(1,))
        ds = analytic_dataset(partial(kernel_oracle, lin), plan, truncation=1)
        trip = plan.triplets()[0]
        v3 = plan.schedule[0][2]
        h1 = lowpass_ladder().transfer_hz(trip[2])
        got = ds.phasors[0, 0, ds.index_position((0, 0, 1))]
        assert got == pytest.approx(0.5 * v3 * complex(h1))

    def test_fundamental_includes_compression_and_desensitization(self):
        plan = small_plan()
        sys = MultiplierCascade()
        ds = analytic_dataset(partial(kernel_oracle, sys), plan, truncation=3)
        trip = plan.triplets()[0]
        v1, v2, v3 = plan.schedule[0]
        w1, w2, w3 = trip
        expect = (
            v3 / 2 * kernel_oracle(sys, (w3,), 1)
            + v3**3 / 16 * kernel_oracle(sys, (w3, w3, -w3), 3)
            + v3 * v2**2 / 8 * kernel_oracle(sys, (w2, -w2, w3), 3)
            + v3 * v1**2 / 8 * kernel_oracle(sys, (w1, -w1, w3), 3)
        )
        got = ds.phasors[0, 0, ds.index_position((0, 0, 1))]
        assert got == pytest.approx(expect)

    def test_difference_product_single_term(self):
        plan = small_plan()
        sys = MultiplierCascade()
        ds = analytic_dataset(partial(kernel_oracle, sys), plan, truncation=3)
        w1, w2, w3 = plan.triplets()[0]
        v1, v2, v3 = plan.schedule[0]
        expect = v2 * v3**2 / 16 * kernel_oracle(sys, (w2, -w3, -w3), 3)
        got = ds.phasors[0, 0, ds.index_position((0, 1, -2))]
        assert got == pytest.approx(expect)

    def test_matches_input_coefficient_helper(self):
        term = MixTerm(k=(0, 1, -2), r=(0, 0, 0))
        assert input_coefficient(term, (0.5, 0.6, 0.7)) == pytest.approx(
            0.6 * 0.49 / 16)
