import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import volkit.synthesis
from volkit.cli import main
from volkit.kernels import KernelArchive, KernelGrid
from volkit.probing import Waveform
from volkit.synthesis import (
    DiscreteSpectrum,
    SynthesisError,
    TrapezoidPulse,
    nrmse,
    spectrum_of,
    _ascending_rows,
    _repetition_weights,
    synthesize_order,
    synthesize_total,
)
from volkit.storage import save_archive
from volkit.systems import MultiplierCascade, kernel_oracle, lowpass_ladder

PERIOD = 28e-9


def pulse():
    return TrapezoidPulse(v0=1.0, t_rise=1e-9, t_width=5e-9, t_fall=1e-9)


def oracle_archive(sys=None, period=PERIOD, n_side=64, orders=(1, 2, 3)):
    """Archive whose lattice is exactly the synthesis bin comb."""
    sys = sys or MultiplierCascade()
    df = 1.0 / period
    units = tuple(range(1, n_side + 1))
    # fill order 1 fully; higher orders on all sign patterns of the lattice
    points = {
        1: [(u * df,) for u in units],
        2: [(u1 * df, s * u2 * df)
            for u1 in units for u2 in units for s in (1, -1)],
        3: [(u1 * df, s2 * u2 * df, s3 * u3 * df)
            for u1 in units[::4] for u2 in units[::4] for u3 in units[::4]
            for s2 in (1, -1) for s3 in (1, -1)],
    }
    grids = {}
    for n in orders:
        grids[n] = KernelGrid(order=n, lattice_units=units, df_hz=df)
        args = np.array(points[n])
        grids[n].insert(args, kernel_oracle(sys, args, n))
    return KernelArchive(grids=grids)


@pytest.fixture(scope="module")
def archive():
    """The default oracle archive, built once per module; no test
    modifies it."""
    return oracle_archive()


class TestSpectrum:
    def test_pure_cosine_has_half_amplitude_lines(self):
        T = 10e-9
        dt = T / 256
        t = np.arange(256) * dt
        wave = Waveform(samples=0.7 * np.cos(2 * np.pi * t / T), dt=dt)
        spec, info = spectrum_of(wave, T, bin_cap=1e-9)
        c = dict(zip(spec.bins.tolist(), spec.coeffs))
        assert c[1] == pytest.approx(0.35)
        assert c[-1] == pytest.approx(0.35)
        assert info.dropped_power_fraction < 1e-12

    def test_odd_period_keeps_its_top_pair(self):
        # 9 samples: bins -4..4, the cosine at bin 4 included
        t = np.arange(9)
        wave = Waveform(samples=0.5 + np.cos(2 * np.pi * 4 * t / 9), dt=1.0)
        spec, info = spectrum_of(wave, 9.0, bin_cap=1e-9)
        assert spec.bins.tolist() == [-4, 0, 4]
        np.testing.assert_allclose(spec.coeffs, [0.5, 0.5, 0.5], atol=1e-15)
        assert info.dropped_power_fraction < 1e-12

    def test_even_period_drops_the_nyquist_bin_as_power(self):
        # 8 samples: bins -3..3 kept; the Nyquist line holds 2/3 of the power
        t = np.arange(8)
        wave = Waveform(samples=np.sqrt(0.5) + np.cos(np.pi * t), dt=1.0)
        spec, info = spectrum_of(wave, 8.0, bin_cap=1e-9)
        assert spec.bins.tolist() == [0]
        assert info.dropped_power_fraction == pytest.approx(2 / 3)

    def test_trapezoid_closed_form_matches_fft(self):
        p = pulse()
        dt = PERIOD / 16384
        wave = Waveform(samples=p(np.arange(16384) * dt), dt=dt)
        ana, _ = spectrum_of(p, PERIOD, bin_cap=1e-5, max_bins_per_side=80)
        num, _ = spectrum_of(wave, PERIOD, bin_cap=0.0, max_bins_per_side=3000)
        cn = dict(zip(num.bins.tolist(), num.coeffs))
        for b, c in zip(ana.bins.tolist(), ana.coeffs):
            assert c == pytest.approx(cn[b], abs=2e-5)

    def test_first_spectral_null_scale(self):
        p = pulse()
        f = np.linspace(1e6, 250e6, 4000)
        mag = np.abs(p.fourier_transform(f))
        null_f = f[np.argmin(mag)]
        assert null_f == pytest.approx(1.0 / (p.t_width + p.t_rise), rel=0.05)

    def test_pulse_dropped_energy_below_tenth_percent(self):
        _, info = spectrum_of(pulse(), PERIOD, bin_cap=1e-4,
                              max_bins_per_side=200)
        assert info.dropped_power_fraction <= 1e-3

    def test_dc_coefficient_is_pulse_mean(self):
        spec, _ = spectrum_of(pulse(), PERIOD)
        c0 = spec.coeffs[spec.bins == 0][0]
        assert c0 == pytest.approx((5e-9 + 1e-9) / PERIOD)
        assert c0.imag == 0.0

    def test_hermitian_violation_rejected(self):
        with pytest.raises(ValueError, match="conjugate"):
            DiscreteSpectrum(period_s=1.0, bins=[-1, 1],
                             coeffs=[1.0 + 1.0j, 1.0 + 1.0j])
        with pytest.raises(ValueError, match="twin"):
            DiscreteSpectrum(period_s=1.0, bins=[1], coeffs=[1.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_construction_matches_per_bin_loop(self, seed):
        rng = np.random.default_rng(seed)
        half = int(rng.integers(0, 12))
        k = np.arange(1, half + 1)
        c = rng.normal(size=half) + 1j * rng.normal(size=half)
        c[rng.random(half) < 0.2] = complex(-0.0, 0.0)
        bins = np.concatenate([-k, k, [0]])
        coeffs = np.concatenate([np.conj(c), c, [rng.normal() + 0j]])
        coeffs = coeffs + 1e-12 * rng.normal(size=len(coeffs))
        if seed % 4 == 1:
            coeffs[rng.integers(len(coeffs))] += 1.0j
        if seed % 4 == 2 and half:
            bins[rng.integers(len(bins) - 1)] = 99
        perm = rng.permutation(len(bins))
        bins, coeffs = bins[perm], coeffs[perm]
        try:
            want = _hermitian_by_loop(bins, coeffs)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                DiscreteSpectrum(period_s=PERIOD, bins=bins, coeffs=coeffs)
            return
        got = DiscreteSpectrum(period_s=PERIOD, bins=bins, coeffs=coeffs)
        np.testing.assert_array_equal(got.bins, want[0])
        assert got.coeffs.tobytes() == want[1].tobytes()


def _hermitian_by_loop(bins, coeffs):
    """Reference: the per-bin twin check and Hermitian averaging."""
    order = np.argsort(bins)
    bins = np.asarray(bins, dtype=np.int64)[order]
    coeffs = np.asarray(coeffs, dtype=complex)[order]
    lookup = {int(b): i for i, b in enumerate(bins)}
    scale = np.abs(coeffs).max() if len(coeffs) else 0.0
    for b, c in zip(bins, coeffs):
        j = lookup.get(-int(b))
        if j is None:
            raise ValueError(f"bin {b} lacks its Hermitian twin")
        if abs(np.conj(coeffs[j]) - c) > 1e-9 * scale:
            raise ValueError(f"coefficients at +/-{abs(b)} are not conjugate")
    for i, b in enumerate(bins):
        if b > 0:
            j = lookup[-int(b)]
            avg = 0.5 * (coeffs[i] + np.conj(coeffs[j]))
            coeffs[i] = avg
            coeffs[j] = np.conj(avg)
        elif b == 0:
            coeffs[i] = coeffs[i].real
    return bins, coeffs


class TestSynthesizeOrder:
    def test_linear_order_equals_direct_filtering(self):
        # The n=1 synthesizer path must reduce to plain per-bin filtering
        # with the archive's own response (which band-limits and holds the
        # edge sample toward DC by design).
        archive = oracle_archive(MultiplierCascade(include_orders=(1,)),
                                 orders=(1,))
        frozen = archive.frozen(1)
        spec, _ = spectrum_of(pulse(), PERIOD, max_bins_per_side=60)
        dt = PERIOD / 512
        wave, info = synthesize_order(archive, spec, 1, PERIOD, dt)
        t = np.arange(512) * dt
        direct = np.zeros_like(t)
        for b, c in zip(spec.bins, spec.coeffs):
            h = frozen.query((b / PERIOD,))
            direct += (c * h * np.exp(2j * np.pi * b / PERIOD * t)).real
        scale = np.abs(direct).max()
        assert np.abs(wave.samples - direct).max() <= 1e-9 * scale
        assert info.imag_residue <= 1e-10

    def test_linear_order_tracks_analytic_filtering_in_band(self):
        # Against the exact transfer (not the grid): in-band bins dominate
        # the pulse, so the band-limited prediction stays within a fraction
        # of a percent of full analytic filtering.
        blk = lowpass_ladder()
        archive = oracle_archive(MultiplierCascade(include_orders=(1,)),
                                 orders=(1,))
        spec, _ = spectrum_of(pulse(), PERIOD, max_bins_per_side=60)
        dt = PERIOD / 512
        wave, _ = synthesize_order(archive, spec, 1, PERIOD, dt)
        t = np.arange(512) * dt
        direct = np.zeros_like(t)
        for b, c in zip(spec.bins, spec.coeffs):
            h = blk.transfer_hz(b / PERIOD)
            direct += (c * h * np.exp(2j * np.pi * b / PERIOD * t)).real
        assert nrmse(wave.samples, direct) < 2e-3

    def test_order_scaling_is_exact_for_halving(self, archive):
        spec, _ = spectrum_of(pulse(), PERIOD, max_bins_per_side=40)
        dt = PERIOD / 128
        for n in (1, 2, 3):
            base, _ = synthesize_order(archive, spec, n, PERIOD, dt)
            scaled, _ = synthesize_order(archive, spec.scaled(0.5), n,
                                         PERIOD, dt)
            np.testing.assert_array_equal(scaled.samples,
                                          0.5**n * base.samples)

    def test_order_scaling_close_for_irrational_factor(self, archive):
        spec, _ = spectrum_of(pulse(), PERIOD, max_bins_per_side=40)
        dt = PERIOD / 128
        alpha = 1 / np.sqrt(2.0)
        for n in (2, 3):
            base, _ = synthesize_order(archive, spec, n, PERIOD, dt)
            scaled, _ = synthesize_order(archive, spec.scaled(alpha), n,
                                         PERIOD, dt)
            err = np.abs(scaled.samples - alpha**n * base.samples).max()
            assert err <= 1e-12 * np.abs(base.samples).max()

    def test_bin_order_shuffle_is_harmless(self, archive):
        spec, _ = spectrum_of(pulse(), PERIOD, max_bins_per_side=40)
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(spec.bins))
        shuffled = DiscreteSpectrum(period_s=spec.period_s,
                                    bins=spec.bins[perm],
                                    coeffs=spec.coeffs[perm])
        dt = PERIOD / 128
        for n in (2, 3):
            a, _ = synthesize_order(archive, spec, n, PERIOD, dt)
            b, _ = synthesize_order(archive, shuffled, n, PERIOD, dt)
            err = np.abs(a.samples - b.samples).max()
            assert err <= 1e-12 * max(np.abs(a.samples).max(), 1e-300)

    def test_zero_spectrum_gives_zero_response(self, archive):
        spec = DiscreteSpectrum(period_s=PERIOD, bins=[-1, 0, 1],
                                coeffs=[0.0, 0.0, 0.0])
        resp = synthesize_total(archive, spec, PERIOD, PERIOD / 64)
        assert np.all(resp.total.samples == 0.0)

    def test_missing_order_raises(self):
        archive = oracle_archive(orders=(1,))
        spec, _ = spectrum_of(pulse(), PERIOD)
        with pytest.raises(KeyError):
            synthesize_order(archive, spec, 2, PERIOD, PERIOD / 64)

    def test_non_integral_steps_per_period_rejected(self, tmp_path, capsys):
        archive = oracle_archive(orders=(1,))
        spec, _ = spectrum_of(pulse(), PERIOD)
        with pytest.raises(ValueError, match="whole number of time steps"):
            synthesize_order(archive, spec, 1, PERIOD, PERIOD / 100.5)
        save_archive(tmp_path / "archive.json", archive)
        assert main(["synthesize", "--archive", str(tmp_path / "archive.json"),
                     "--period-s", "28e-9", "--dt-s", "0.3e-9",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _dense_reference(archive, spectrum, order, duration, dt):
    """The direct sum over sorted bin tuples, evaluated at every sample."""
    frozen = archive.frozen(order)
    reach = (np.abs(spectrum.freqs_hz)
             <= frozen.band_edge_hz + frozen.margin_hz)
    bins, coeffs = spectrum.bins[reach], spectrum.coeffs[reach]
    combos = np.array(list(itertools.combinations_with_replacement(
        range(len(bins)), order))).reshape(-1, order)
    repeats = [math.prod(map(math.factorial, Counter(row).values()))
               for row in combos.tolist()]
    contrib = (frozen.query(bins[combos] / spectrum.period_s)
               * coeffs[combos].prod(axis=1) / np.array(repeats))
    t = dt * np.arange(int(round(duration / dt)))
    out_hz = bins[combos].sum(axis=1) / spectrum.period_s
    return (np.exp(2j * np.pi * np.outer(t, out_hz)) @ contrib).real


def _full_sum_order(archive, spectrum, order, duration, dt):
    """Reference: every bin tuple, both members of each mirror pair,
    summed in one pass; returns (samples, n_tuples)."""
    n_period = int(round(spectrum.period_s / dt))
    frozen = archive.frozen(order)
    reach = frozen.in_band(spectrum.freqs_hz)
    bins, coeffs = spectrum.bins[reach], spectrum.coeffs[reach]
    rows = _ascending_rows(len(bins), order)
    contrib = (frozen.query_comb(spectrum.freqs_hz[reach], rows)
               * coeffs[rows].prod(axis=1) * _repetition_weights(rows))
    slot = bins[rows].sum(axis=1) % n_period
    y_spec = (np.bincount(slot, contrib.real, n_period)
              + 1j * np.bincount(slot, contrib.imag, n_period))
    y = np.resize(n_period * np.fft.ifft(y_spec), int(round(duration / dt)))
    return y.real, len(rows)


def _random_hermitian(period, n_side, with_dc, seed):
    """A spectrum of random conjugate pairs at bins 1..n_side, and a real
    DC coefficient if ``with_dc``."""
    rng = np.random.default_rng(seed)
    k = np.arange(1, n_side + 1)
    c = rng.normal(size=n_side) + 1j * rng.normal(size=n_side)
    bins, coeffs = [-k, k], [np.conj(c), c]
    if with_dc:
        bins.append([0])
        coeffs.append([rng.normal()])
    return DiscreteSpectrum(period_s=period, bins=np.concatenate(bins),
                            coeffs=np.concatenate(coeffs))


class TestMirrorPairSum:
    """Summing one member of each mirror pair, chunk by chunk, gives the
    full sum over every tuple to rounding."""

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("with_dc", [True, False])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_matches_full_sum(self, archive, monkeypatch, order, with_dc,
                              chunk):
        if chunk is not None:
            monkeypatch.setattr(volkit.synthesis, "TUPLE_CHUNK", chunk)
        spec = _random_hermitian(PERIOD, 11, with_dc, seed=order)
        nb = 22 + with_dc  # every bin is in band
        dt = PERIOD / 160
        want, n_tuples = _full_sum_order(archive, spec, order, 1.5 * PERIOD,
                                         dt)
        got, info = synthesize_order(archive, spec, order, 1.5 * PERIOD, dt)
        assert info.n_bins_used == nb
        assert info.n_tuples == n_tuples == math.comb(nb + order - 1, order)
        assert got.samples.shape == want.shape
        assert (np.abs(got.samples - want).max()
                <= 1e-13 * np.abs(want).max())

    def test_skewed_coefficient_raises_at_every_order(self, archive):
        spec, _ = spectrum_of(pulse(), PERIOD, max_bins_per_side=40)
        spec.coeffs[spec.bins == 1] *= 1.01
        for order in (1, 2, 3):
            with pytest.raises(SynthesisError, match="Hermitian residue"):
                synthesize_order(archive, spec, order, PERIOD, PERIOD / 128)

    def test_order3_memory_is_bounded_by_the_chunk(self):
        # 161 of the comb's bins (|k| <= 80) are in band, 708 561 tuples
        df = 115e6
        units = tuple(range(1, 13))
        signed = np.array([-u for u in units[::-1]] + list(units)) * df
        sys = MultiplierCascade()
        grids = {}
        for n in (1, 2, 3):
            grids[n] = KernelGrid(order=n, lattice_units=units, df_hz=df)
            args = np.array(list(itertools.product(signed, repeat=n)))
            grids[n].insert(args, kernel_oracle(sys, args, n))
        archive = KernelArchive(grids=grids)
        archive.frozen(3)
        spec = _random_hermitian(56e-9, 85, True, seed=0)
        tracemalloc.start()
        try:
            _, info = synthesize_order(archive, spec, 3, 55e-9, 10e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.n_bins_used, info.n_tuples) == (161, 708_561)
        assert peak <= 32e6


class TestTupleRows:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_rows_match_combinations_with_replacement(self, order):
        for nb in range(13):
            want = list(itertools.combinations_with_replacement(range(nb),
                                                                order))
            got = _ascending_rows(nb, order)
            assert got.shape == (len(want), order)
            assert list(map(tuple, got.tolist())) == want

    @pytest.mark.parametrize("chunk", [1, 7, 50])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_chunks_split_the_rows_in_order(self, monkeypatch, order, chunk):
        monkeypatch.setattr(volkit.synthesis, "TUPLE_CHUNK", chunk)
        for nb in range(13):
            parts = list(volkit.synthesis._ascending_chunks(nb, order))
            assert all(0 < len(p) <= chunk for p in parts)
            got = (np.concatenate(parts) if parts
                   else np.zeros((0, order), dtype=int))
            np.testing.assert_array_equal(got, _ascending_rows(nb, order))


class TestStencilQueries:
    """Per-bin stencils give exactly what per-argument queries give."""

    @staticmethod
    def _check(archive, spectrum):
        for order in sorted(archive.grids):
            frozen = archive.frozen(order)
            reach = (np.abs(spectrum.freqs_hz)
                     <= frozen.band_edge_hz + frozen.margin_hz)
            comb = spectrum.freqs_hz[reach]
            rows = _ascending_rows(len(comb), order)
            got = frozen.query_comb(comb, rows)
            assert got.tobytes() == frozen.query(comb[rows]).tobytes()

    def test_oracle_archive(self, archive):
        spec, _ = spectrum_of(pulse(), PERIOD, max_bins_per_side=40)
        self._check(archive, spec)

    def test_bench_archive(self, bench_archive, unit_pulse):
        from conftest import PULSE_PERIOD

        spec, _ = spectrum_of(unit_pulse, PULSE_PERIOD)
        self._check(bench_archive, spec)

    def test_rejects_asymmetric_comb_and_unsorted_rows(self, archive):
        frozen = archive.frozen(2)
        comb = np.array([-2.0, -1.0, 1.0, 2.0]) / PERIOD
        with pytest.raises(ValueError, match="symmetric"):
            frozen.query_comb(comb[:-1], [[0, 1]])
        with pytest.raises(ValueError, match="ascending"):
            frozen.query_comb(comb, [[1, 0]])
        with pytest.raises(ValueError, match="ascending"):
            frozen.query_comb(comb, [[0, 4]])


class TestFftEvaluation:
    @pytest.mark.parametrize("periods", [0.5, 1.0, 2.5])
    def test_matches_dense_evaluation(self, archive, periods):
        spec, _ = spectrum_of(pulse(), PERIOD, max_bins_per_side=12)
        dt = PERIOD / 128
        for order in (1, 2, 3):
            wave, _ = synthesize_order(archive, spec, order,
                                       periods * PERIOD, dt)
            ref = _dense_reference(archive, spec, order, periods * PERIOD,
                                   dt)
            assert wave.samples.shape == ref.shape
            scale = np.abs(ref).max()
            assert np.abs(wave.samples - ref).max() <= 1e-12 * scale


class TestTotals:
    def test_orders_sum_to_total(self, archive):
        spec, _ = spectrum_of(pulse(), PERIOD, max_bins_per_side=40)
        resp = synthesize_total(archive, spec, PERIOD, PERIOD / 256)
        summed = sum(w.samples for w in resp.per_order.values())
        np.testing.assert_allclose(resp.total.samples, summed, atol=1e-15)
        assert set(resp.per_order) == {1, 2, 3}
        assert all(i.imag_residue <= 1e-10 for i in resp.info.values())


class TestNrmse:
    def test_zero_error(self):
        r = np.sin(np.linspace(0, 1, 50))
        assert nrmse(r, r) == 0.0

    def test_normalization_by_range(self):
        ref = np.array([0.0, 2.0])
        pred = np.array([0.5, 2.5])
        assert nrmse(pred, ref) == pytest.approx(0.25)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nrmse(np.zeros(3), np.zeros(4))


class TestOrderSeparatedReferences:
    """Synthesized per-order responses match amplitude-separated transients."""

    def test_second_and_third_order_within_5pct(self, bench_archive,
                                                unit_pulse,
                                                bench_order_references):
        from conftest import PULSE_DT, PULSE_PERIOD, PULSE_WINDOW

        spec, _ = spectrum_of(unit_pulse, PULSE_PERIOD)
        for order in (2, 3):
            wave, _ = synthesize_order(bench_archive, spec, order,
                                       PULSE_WINDOW, PULSE_DT)
            ref = bench_order_references[order]
            assert nrmse(wave.samples, ref) <= 0.05
