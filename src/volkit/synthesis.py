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
arguments exactly, and the spectrum's coefficients are exactly Hermitian,
as ``DiscreteSpectrum`` makes them on construction and keeps them, its
arrays being read-only.  So only the canonical member of each pair is
summed (a self-mirror tuple at half weight), and the order's output is
twice the real part of the inverse FFT.  Every tuple is summed;
``FrozenKernelGrid.comb_walk`` hands them over with their kernel values
``kernels.TUPLE_CHUNK`` at a time, grouped by their (n-1)-prefix.  Each
prefix's coefficient product, bin sum and repetition weight are formed
once per chunk, and each tuple multiplies in its last bin's coefficient
and adds its last bin, so no per-tuple array outgrows a chunk, and
``spectrum_of``'s bin limits bound the work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from volkit.kernels import KernelArchive
from volkit.probing import MAX_WINDOW_SAMPLES, Waveform

@dataclass(frozen=True)
class TrapezoidPulse:
    """Linear rise, flat top, linear fall.  Callable on time arrays."""

    v0: float = 1.0
    t_rise: float = 1e-9
    t_width: float = 5e-9
    t_fall: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v0) and math.isfinite(self.support)
                and self.t_rise > 0 and self.t_fall > 0 and self.t_width >= 0):
            raise ValueError("a pulse needs finite values, positive rise and "
                             "fall times and a nonnegative width")

    @property
    def support(self) -> float:
        return self.t_rise + self.t_width + self.t_fall

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        up = np.clip(t / self.t_rise, 0.0, 1.0)
        down = np.clip((t - self.t_rise - self.t_width) / self.t_fall, 0.0, 1.0)
        return self.v0 * (up - down)

    def fourier_transform(self, f) -> np.ndarray:
        """Exact continuous-time transform.  The pulse's derivative is a
        box of height v0/a on the rise and one of -v0/b on the fall, so
        X(f) = v0 [e^{-j pi f a} sinc(f a) - e^{-j 2 pi f (a + w + b/2)}
        sinc(f b)] / (j 2 pi f), and X(0) = v0 (w + (a + b)/2), for rise
        a, width w and fall b."""
        f = np.asarray(f, dtype=float)
        a, w, b = self.t_rise, self.t_width, self.t_fall
        edges = (np.exp(-1j * np.pi * f * a) * np.sinc(f * a)
                 - np.exp(-2j * np.pi * f * (a + w + 0.5 * b)) * np.sinc(f * b))
        dc = f == 0
        x = self.v0 * edges / (2j * np.pi * np.where(dc, 1.0, f))
        return np.where(dc, self.v0 * (w + 0.5 * (a + b)), x)


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Two-sided line spectrum of a T-periodic signal.

    ``bins`` are signed harmonic numbers (frequency = bin / period).
    Construction sorts the bins and makes the coefficients exactly
    Hermitian, c[-k] = conj(c[k]); both arrays are then read-only, so the
    symmetry holds for the spectrum's life.
    """

    period_s: float
    bins: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins, dtype=np.int64)
        c = np.asarray(self.coeffs, dtype=complex)
        if bins.shape != c.shape:
            raise ValueError("bins and coeffs must align")
        if len(np.unique(bins)) != len(bins):
            raise ValueError("duplicate bins")
        order = np.argsort(bins)
        bins, c = bins[order], c[order]
        twin = np.searchsorted(bins, -bins).clip(max=len(c) - 1)
        scale = np.abs(c).max() if len(c) else 0.0
        lacks = bins[twin] != -bins
        skewed = np.abs(np.conj(c[twin]) - c) > 1e-9 * scale
        bad = np.nonzero(lacks | skewed)[0]
        if len(bad):
            b = bins[bad[0]]
            if lacks[bad[0]]:
                raise ValueError(f"bin {b} lacks its Hermitian twin")
            raise ValueError(f"coefficients at +/-{abs(b)} are not conjugate")
        # enforce exact Hermitian symmetry so real projection is clean
        pos, dc = bins > 0, bins == 0
        avg = 0.5 * (c[pos] + np.conj(c[twin[pos]]))
        c[pos] = avg
        c[twin[pos]] = np.conj(avg)
        c[dc] = c[dc].real
        for name, arr in (("bins", bins), ("coeffs", c)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.bins / self.period_s


@dataclass
class SpectrumInfo:
    n_bins: int
    dropped_power_fraction: float


def spectrum_of(source, period_s: float, bin_cap: float = 1e-4,
                max_bins_per_side: int = 200):
    """Two-sided spectrum of a pulse or waveform, truncated by magnitude.

    Bins below ``bin_cap`` times the peak coefficient are dropped, and of
    the rest DC and at most ``max_bins_per_side`` conjugate pairs are
    kept, pairs ranked by the larger magnitude of their two members (ties
    to the lower bin).  The report carries the dropped power fraction,
    against the pulse's exact mean square or the waveform's whole FFT.
    """
    if not (math.isfinite(period_s) and period_s > 0):
        raise ValueError("period must be finite and positive")
    if isinstance(source, TrapezoidPulse):
        if source.support > period_s:
            raise ValueError("period must cover the pulse support")
        # capped before int(), which overflows on a long period's count
        n_side = int(min(period_s * 0.5 / 1e-12, 20 * max_bins_per_side))
        k = np.arange(-n_side, n_side + 1)
        coeffs = source.fourier_transform(k / period_s) / period_s
        # the bins beyond +-n_side hold the rest of the pulse's exact mean
        # square, v0^2 (w + (a + b)/3) / T
        a, w, b = source.t_rise, source.t_width, source.t_fall
        mean_square = source.v0 ** 2 * (w + (a + b) / 3) / period_s
        lost = max(mean_square - (np.abs(coeffs) ** 2).sum(), 0.0)
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

    mag = np.abs(coeffs)
    power = mag ** 2
    total = power.sum() + lost
    # k runs symmetrically about 0, so a bin's twin is its mirror; each
    # pair lives or dies together, ranked by its larger member
    pair = np.maximum(mag, mag[::-1])
    keep = pair >= bin_cap * mag.max()
    if keep.sum() > 2 * max_bins_per_side + 1:
        # DC, if kept, and the largest max_bins_per_side positive pairs
        half = np.nonzero(keep & (k > 0))[0]
        half = half[np.argsort(-pair[half], kind="stable")]
        keep &= k == 0
        keep[half[:max_bins_per_side]] = True
        keep |= keep[::-1]
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

    ``dt`` must divide the spectrum's period into a whole number of steps,
    and neither the period nor the window may hold over MAX_WINDOW_SAMPLES.
    Bins beyond the archive band edge contribute zero kernels and are
    skipped, which band-limits the prediction to the swept region.
    """
    if order not in archive.grids:
        raise KeyError(f"archive has no order-{order} grid")
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError("duration must be finite and nonnegative")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("time step must be positive")
    span = max(duration, spectrum.period_s)
    if not span / dt <= MAX_WINDOW_SAMPLES:
        raise ValueError(f"a window or period of {span:g} s holds more than "
                         f"{MAX_WINDOW_SAMPLES} steps of {dt:g} s")
    n_period = int(round(spectrum.period_s / dt))
    if not abs(n_period * dt - spectrum.period_s) <= 1e-9 * spectrum.period_s:
        raise ValueError("period must be a whole number of time steps")
    frozen = archive.frozen(order)
    reach = frozen.in_band(spectrum.freqs_hz)
    bins = spectrum.bins[reach]
    coeffs = spectrum.coeffs[reach]
    comb = spectrum.freqs_hz[reach]
    nb = len(bins)
    # fold the output spectrum modulo N: exact at the sample times.  With
    # bins and bin sums reduced mod N, a row's slot lies below 2N
    bin_mod = bins % n_period
    z_re, z_im = np.zeros(2 * n_period), np.zeros(2 * n_period)
    for (pre, first, count, tie), x, values in frozen.comb_walk(comb):
        # once per prefix: its coefficient product times its repetition
        # weight, and its bin sum
        coeff = coeffs[pre].prod(axis=0)
        rows = pre.T
        factor = np.repeat(coeff * _repetition_weights(rows), count)
        start = np.cumsum(count) - count
        if order > 1:
            # x repeats the prefix's last index only at a piece's first
            # row, whose weight is the prefix's with that index once more
            rep = first == pre[-1]
            again = _repetition_weights(np.hstack([rows, rows[:, -1:]]))
            factor[start[rep]] = (coeff * again)[rep]
        # a row and its mirror add conjugate terms at negated output bins:
        # the walk gives one member, and a self-mirror row counts half
        factor[start[tie]] *= 0.5
        contrib = values * (factor * coeffs[x])
        slot = np.repeat(bins[pre].sum(axis=0) % n_period, count) + bin_mod[x]
        z_re += np.bincount(slot, contrib.real, 2 * n_period)
        z_im += np.bincount(slot, contrib.imag, 2 * n_period)
    z = z_re[:n_period] + z_re[n_period:] + 1j * (z_im[:n_period]
                                                   + z_im[n_period:])
    y = 2.0 * (n_period * np.fft.ifft(z)).real
    info = OrderInfo(order=order, n_tuples=math.comb(nb + order - 1, order),
                     n_bins_used=nb)
    return Waveform(samples=np.resize(y, int(round(duration / dt))),
                    dt=dt), info


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
        total=Waveform(samples=total, dt=dt),
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
