"""Time-domain response synthesis from a kernel archive.

The input is periodically extended and represented by a two-sided discrete
spectrum.  The order-n response is the sum over all n-element multisets of
retained bins of ``H_n(f_b1..f_bn) * prod(c_b) * exp(j*2*pi*(sum f)*t)``
weighted by one over the product of bin-repetition factorials (the
multinomial collection of the underlying ordered sum with its 1/n!
prefactor).  Accumulating per output bin keeps the result an exact
one-dimensional spectrum.  The time step must divide the period into a
whole number N of steps; the spectrum is then folded modulo N and
evaluated exactly at the sample times by one inverse FFT per order, and a
window longer than the period repeats it.

A tuple's mirror, the tuple of the negated bins, adds the exact conjugate
term at the negated output bin: kernel queries conjugate sign-flipped
arguments exactly, and the spectrum's coefficients are exactly Hermitian.
So only the member of each pair that ``query_comb`` does not flip is
summed (a self-mirror tuple at half weight), and the order's output is
twice the real part of the inverse FFT.  Every tuple is summed; they are
generated, queried and binned TUPLE_CHUNK at a time, so no array grows
with the tuple count, and ``spectrum_of``'s bin limits bound the work.
Because the output is real by construction, the check is on the input:
the largest Hermitian skew of the in-band coefficients over their peak,
reported as ``imag_residue``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from volkit.kernels import (
    KernelArchive,
    _ascending_rows,
    _mirror_side,
    _prepend_firsts,
)
from volkit.probing import Waveform

IMAG_RESIDUE_LIMIT = 1e-6  # largest in-band Hermitian skew / peak coefficient
TUPLE_CHUNK = 16_384  # bin tuples queried, weighted and binned per step


class SynthesisError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrapezoidPulse:
    """Linear rise, flat top, linear fall.  Callable on time arrays."""

    v0: float = 1.0
    t_rise: float = 1e-9
    t_width: float = 5e-9
    t_fall: float = 1e-9

    @property
    def support(self) -> float:
        return self.t_rise + self.t_width + self.t_fall

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        up = np.clip(t / self.t_rise, 0.0, 1.0)
        down = np.clip((t - self.t_rise - self.t_width) / self.t_fall, 0.0, 1.0)
        return self.v0 * (up - down)

    def fourier_transform(self, f) -> np.ndarray:
        """Exact continuous-time transform (requires t_rise == t_fall)."""
        if abs(self.t_rise - self.t_fall) > 1e-15:
            raise ValueError("closed form requires equal rise and fall times")
        f = np.asarray(f, dtype=float)
        span = self.t_width + self.t_rise
        centre = 0.5 * (self.t_rise + self.t_width + self.t_fall)
        mag = self.v0 * span * np.sinc(f * span) * np.sinc(f * self.t_rise)
        return mag * np.exp(-2j * np.pi * f * centre)


@dataclass
class DiscreteSpectrum:
    """Two-sided line spectrum of a T-periodic signal.

    ``bins`` are signed harmonic numbers (frequency = bin / period);
    Hermitian symmetry c[-k] = conj(c[k]) is enforced on construction.
    """

    period_s: float
    bins: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.bins = np.asarray(self.bins, dtype=np.int64)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.bins.shape != self.coeffs.shape:
            raise ValueError("bins and coeffs must align")
        if len(np.unique(self.bins)) != len(self.bins):
            raise ValueError("duplicate bins")
        order = np.argsort(self.bins)
        self.bins = self.bins[order]
        self.coeffs = c = self.coeffs[order]
        twin = np.searchsorted(self.bins, -self.bins).clip(max=len(c) - 1)
        scale = np.abs(c).max() if len(c) else 0.0
        lacks = self.bins[twin] != -self.bins
        skewed = np.abs(np.conj(c[twin]) - c) > 1e-9 * scale
        bad = np.nonzero(lacks | skewed)[0]
        if len(bad):
            b = self.bins[bad[0]]
            if lacks[bad[0]]:
                raise ValueError(f"bin {b} lacks its Hermitian twin")
            raise ValueError(f"coefficients at +/-{abs(b)} are not conjugate")
        # enforce exact Hermitian symmetry so real projection is clean
        pos, dc = self.bins > 0, self.bins == 0
        avg = 0.5 * (c[pos] + np.conj(c[twin[pos]]))
        c[pos] = avg
        c[twin[pos]] = np.conj(avg)
        c[dc] = c[dc].real

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.bins / self.period_s

    def scaled(self, alpha: float) -> "DiscreteSpectrum":
        return DiscreteSpectrum(self.period_s, self.bins.copy(),
                                alpha * self.coeffs)


@dataclass
class SpectrumInfo:
    n_bins: int
    dropped_power_fraction: float


def spectrum_of(source, period_s: float, bin_cap: float = 1e-4,
                max_bins_per_side: int = 200):
    """Two-sided spectrum of a pulse or waveform, truncated by magnitude.

    Bins below ``bin_cap`` times the peak coefficient are dropped (in
    conjugate pairs); the report carries the dropped power fraction.
    """
    if isinstance(source, TrapezoidPulse):
        if source.support > period_s:
            raise ValueError("period must cover the pulse support")
        n_side = int(np.floor(period_s * 0.5 / 1e-12))  # practically unbounded
        n_side = min(n_side, 20 * max_bins_per_side)
        k = np.arange(-n_side, n_side + 1)
        coeffs = source.fourier_transform(k / period_s) / period_s
        lost = 0.0
    elif isinstance(source, Waveform):
        n = int(round(period_s / source.dt))
        if abs(n * source.dt - period_s) > 1e-9 * period_s:
            raise ValueError("period must be a whole number of samples")
        if n > len(source.samples):
            raise ValueError("waveform shorter than one period")
        spec = np.fft.fft(source.samples[:n]) / n
        k = np.arange(-((n - 1) // 2), (n - 1) // 2 + 1)
        coeffs = spec[k]
        # an even period's Nyquist bin has no conjugate twin: it is left
        # out, and its power counts as dropped
        lost = abs(spec[n // 2]) ** 2 if n % 2 == 0 else 0.0
    else:
        raise TypeError(f"unsupported source {type(source).__name__}")

    power = np.abs(coeffs) ** 2
    total = power.sum() + lost
    keep = np.abs(coeffs) >= bin_cap * np.abs(coeffs).max()
    keep &= keep[::-1]  # conjugate pairs live or die together
    if keep.sum() > 2 * max_bins_per_side + 1:
        rank = np.argsort(np.abs(coeffs))[::-1]
        allowed = np.zeros_like(keep)
        allowed[rank[: 2 * max_bins_per_side + 1]] = True
        keep &= allowed & allowed[::-1]
    dropped = float((power[~keep].sum() + lost) / total) if total > 0 else 0.0
    spectrum = DiscreteSpectrum(period_s=period_s, bins=k[keep],
                                coeffs=coeffs[keep])
    return spectrum, SpectrumInfo(n_bins=len(spectrum.bins),
                                  dropped_power_fraction=dropped)


@dataclass
class OrderInfo:
    order: int
    n_tuples: int
    n_bins_used: int
    imag_residue: float
    # always 0.0, since every tuple is summed; perfbench still reads it
    dropped_tuple_fraction: float = 0.0


@dataclass
class OrderedResponse:
    per_order: dict[int, Waveform]
    total: Waveform
    info: dict[int, OrderInfo] = field(default_factory=dict)


def synthesize_order(archive: KernelArchive, spectrum: DiscreteSpectrum,
                     order: int, duration: float, dt: float):
    """Order-``order`` time response on a uniform grid; (Waveform, OrderInfo).

    ``dt`` must divide the spectrum's period into a whole number of steps.
    Bins beyond the archive band edge contribute zero kernels and are
    skipped, which band-limits the prediction to the swept region.
    """
    if order not in archive.grids:
        raise KeyError(f"archive has no order-{order} grid")
    if not dt > 0:
        raise ValueError("time step must be positive")
    n_period = int(round(spectrum.period_s / dt))
    if not abs(n_period * dt - spectrum.period_s) <= 1e-9 * spectrum.period_s:
        raise ValueError("period must be a whole number of time steps")
    frozen = archive.frozen(order)
    reach = frozen.in_band(spectrum.freqs_hz)
    bins = spectrum.bins[reach]
    coeffs = spectrum.coeffs[reach]
    comb = spectrum.freqs_hz[reach]
    nb = len(bins)
    # the output is real by construction, so the spectrum's own Hermitian
    # skew is what can reveal an inconsistent input
    scale = np.abs(coeffs).max(initial=0.0)
    skew = np.abs(coeffs[::-1] - np.conj(coeffs)).max(initial=0.0)
    residue = float(skew / scale) if scale > 0 else 0.0
    if residue > IMAG_RESIDUE_LIMIT:
        raise SynthesisError(
            f"order-{order} Hermitian residue {residue:.2e}; the spectrum's "
            "coefficients are not conjugate pairs")

    # fold the output spectrum modulo N: exact at the sample times
    z_re, z_im = np.zeros(n_period), np.zeros(n_period)
    for rows in _ascending_chunks(nb, order):
        # a row and its mirror add conjugate terms at negated output bins:
        # sum the canonical member, and half of a self-mirror row
        flip, tie = _mirror_side(rows[:, ::-1], nb - 1)
        keep = ~flip
        cols = rows.T.compress(keep, axis=1)  # one contiguous row per column
        weight = _repetition_weights(cols.T)
        weight[tie[keep]] *= 0.5
        contrib = (frozen.query_comb(comb, cols.T)
                   * coeffs[cols].prod(axis=0) * weight)
        slot = bins[cols].sum(axis=0) % n_period
        z_re += np.bincount(slot, contrib.real, n_period)
        z_im += np.bincount(slot, contrib.imag, n_period)
    y = 2.0 * (n_period * np.fft.ifft(z_re + 1j * z_im)).real
    info = OrderInfo(order=order, n_tuples=math.comb(nb + order - 1, order),
                     n_bins_used=nb, imag_residue=residue)
    return Waveform(samples=np.resize(y, int(round(duration / dt))), dt=dt,
                    t0=0.0), info


def _ascending_chunks(nb: int, order: int):
    """Every ascending ``order``-row of indices below ``nb``, in lexical
    order, in chunks of at most TUPLE_CHUNK rows.  Each chunk is built from
    a run of first indices whose rows fit, or from one first index, whose
    rows are then split; no array grows with the total row count."""
    tail = _ascending_rows(nb, order - 1).T
    # rows that start with a: a, then an ascending row of range(a, nb)
    count = np.array([math.comb(nb - a + order - 2, order - 1)
                      for a in range(nb)], dtype=np.int64)
    cum = np.concatenate([[0], np.cumsum(count)])
    a = 0
    while a < nb:
        b = max(a + 1, int(np.searchsorted(cum, cum[a] + TUPLE_CHUNK,
                                           side="right")) - 1)
        rows = _prepend_firsts(tail, np.arange(a, b)).T
        for lo in range(0, len(rows), TUPLE_CHUNK):
            yield rows[lo:lo + TUPLE_CHUNK]
        a = b


def _repetition_weights(combos: np.ndarray) -> np.ndarray:
    """1 / prod(count!) over repeated entries of each sorted tuple row."""
    q, n = combos.shape
    w = np.ones(q)
    if n == 1:
        return w
    run = np.ones(q)
    for j in range(1, n):
        cont = combos[:, j] == combos[:, j - 1]
        run = np.where(cont, run + 1, 1.0)
        w = np.where(cont, w / run, w)
    return w


def synthesize_total(archive: KernelArchive, spectrum: DiscreteSpectrum,
                     duration: float, dt: float) -> OrderedResponse:
    """Sum of all archive orders; keeps the per-order decomposition."""
    per_order: dict[int, Waveform] = {}
    info: dict[int, OrderInfo] = {}
    total = None
    for order in sorted(archive.grids):
        wave, oi = synthesize_order(archive, spectrum, order, duration, dt)
        per_order[order] = wave
        info[order] = oi
        total = wave.samples if total is None else total + wave.samples
    return OrderedResponse(
        per_order=per_order,
        total=Waveform(samples=total, dt=dt, t0=0.0),
        info=info,
    )


def nrmse(prediction: np.ndarray, reference: np.ndarray) -> float:
    """RMS error normalized by the reference's peak-to-peak range."""
    prediction = np.asarray(prediction, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if prediction.shape != reference.shape:
        raise ValueError("shapes must match")
    span = reference.max() - reference.min()
    if span == 0:
        raise ValueError("reference has zero range")
    return float(np.sqrt(np.mean((prediction - reference) ** 2)) / span)
