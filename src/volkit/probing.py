"""Transient probing of reference systems and spectral dataset assembly.

The probe drives a system with one tone set per (triplet, amplitude) pair,
integrates to steady state with fixed-step RK4, and reads the output phasor
at every retained mixing product.  Records are exactly one resolution
period (1/df) long and every product sits on an exact DFT bin, so capture
is leakage-free by construction.

Phasor convention: ``B`` is the positive-frequency coefficient of the
two-sided expansion, i.e. the real signal component at f > 0 is
``2*Re{B*exp(j*2*pi*f*t)}`` and a component ``A*cos`` yields ``B = A/2``.
Products whose signed mixing sum is negative are stored conjugated under
their canonical index.  The DC phasor is the record mean (real).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from volkit.mixing import (
    FrequencyIndex,
    enumerate_output_indices,
    input_coefficient,
    terms_up_to_order,
)
from volkit.sweeps import SweepPlan, ToneSet, validate_plan


class TransientBlowupError(RuntimeError):
    """State norm exploded; the system/step combination is unstable."""


class CaptureAlignmentError(ValueError):
    """A requested mixing product does not sit on a DFT bin of the record."""


class PlanInvalidError(ValueError):
    """Probing refused: the plan has colliding mixing products."""


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal: samples[j] is the value at t0 + j*dt."""

    samples: np.ndarray
    dt: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if not np.all(np.isfinite(s)):
            raise ValueError("waveform samples must be finite")

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.samples))

    @property
    def duration(self) -> float:
        return self.dt * len(self.samples)


@dataclass(frozen=True)
class ProbeSettings:
    """Knobs for dataset generation; None fields are derived from the plan."""

    settle_s: float | None = None
    samples_per_record: int | None = None
    include_dc: bool = True
    nyquist_headroom: float = 0.4
    settle_time_constants: float = 50.0
    min_settle_s: float = 200e-9
    blowup_factor: float = 1e6
    check_interval: int = 4096
    rotator_refresh: int = 2048


@dataclass(frozen=True)
class CaptureInfo:
    sample_rate_hz: float
    record_s: float
    settle_s: float
    samples_per_record: int


@dataclass
class SpectralDataset:
    """Output phasors per (triplet, amplitude vector, canonical index).

    ``phasors`` is dense complex (n_triplets, n_amps, n_indices); NaN marks
    an entry a reader failed to supply (complete simulated datasets never
    contain NaN).
    """

    plan: SweepPlan
    indices: tuple[FrequencyIndex, ...]
    phasors: np.ndarray
    capture: CaptureInfo | None = None
    source: str = "simulated"
    _index_pos: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.phasors = np.asarray(self.phasors, dtype=complex)
        expected = (self.plan.n_triplets, len(self.plan.schedule),
                    len(self.indices))
        if self.phasors.shape != expected:
            raise ValueError(
                f"phasor array shape {self.phasors.shape} != {expected}")
        self._index_pos = {k: i for i, k in enumerate(self.indices)}

    def phasor(self, triplet_id: int, amp_id: int, k: FrequencyIndex) -> complex:
        return complex(self.phasors[triplet_id, amp_id, self._index_pos[tuple(k)]])

    def index_position(self, k: FrequencyIndex) -> int:
        return self._index_pos[tuple(k)]

    @property
    def n_runs(self) -> int:
        return self.phasors.shape[0] * self.phasors.shape[1]


# ---------------------------------------------------------------------------
# transient integration


def _drive_stage_values(drive, dt: float, n_steps: int) -> np.ndarray:
    """Input samples at the 2*n_steps+1 half-step stage times."""
    t = 0.5 * dt * np.arange(2 * n_steps + 1)
    if isinstance(drive, ToneSet):
        f = np.asarray(drive.freqs_hz)
        v = np.asarray(drive.amps_v)
        return (v[:, None] * np.cos(2.0 * np.pi * f[:, None] * t)).sum(axis=0)
    if isinstance(drive, Waveform):
        if abs(drive.dt - dt) > 1e-15 * dt:
            raise ValueError("waveform drive must be sampled at the solver step")
        full = np.empty(2 * len(drive.samples) - 1)
        full[0::2] = drive.samples
        full[1::2] = 0.5 * (drive.samples[1:] + drive.samples[:-1])
        if len(full) < 2 * n_steps + 1:
            full = np.pad(full, (0, 2 * n_steps + 1 - len(full)))
        return full[: 2 * n_steps + 1]
    if callable(drive):
        return np.asarray(drive(t), dtype=float)
    raise TypeError(f"unsupported drive type {type(drive).__name__}")


def transient(sys, drive, duration: float, dt: float,
              blowup_factor: float = 1e6) -> Waveform:
    """Fixed-step RK4 simulation from rest; output sampled every dt.

    ``drive`` may be a ToneSet, a Waveform on the same time step, or a
    callable t -> u accepting arrays.  Raises TransientBlowupError if the
    state norm passes ``blowup_factor`` times the input scale.
    """
    n = int(round(duration / dt))
    u = _drive_stage_values(drive, dt, n)
    x = np.zeros((sys.state_dim, 1))
    y = np.empty(n)
    limit = blowup_factor * (1.0 + np.abs(u).max())
    for j in range(n):
        u0, um, u1 = u[2 * j], u[2 * j + 1], u[2 * j + 2]
        y[j] = sys.output(x, np.array([u0]))[0]
        k1 = sys.deriv(x, np.array([u0]))
        k2 = sys.deriv(x + 0.5 * dt * k1, np.array([um]))
        k3 = sys.deriv(x + 0.5 * dt * k2, np.array([um]))
        k4 = sys.deriv(x + dt * k3, np.array([u1]))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if j % 2048 == 0 and np.abs(x).max() > limit:
            raise TransientBlowupError(
                f"state magnitude {np.abs(x).max():.3g} at t={j * dt:.3g} s")
    return Waveform(samples=y, dt=dt, t0=0.0)


# ---------------------------------------------------------------------------
# phasor capture from a stored waveform


def mixing_sum_units(k: FrequencyIndex, units: tuple[int, ...]) -> int:
    return int(sum(ki * ui for ki, ui in zip(k, units)))


def capture_phasors(
    wave: Waveform,
    freqs_hz: tuple[float, ...],
    df_hz: float,
    max_order: int,
    settle_s: float,
    record_s: float,
    include_dc: bool = True,
) -> dict[FrequencyIndex, complex]:
    """Read the phasor at every canonical mixing product of one tone set.

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
    out: dict[FrequencyIndex, complex] = {}
    for k in enumerate_output_indices(len(freqs_hz), max_order,
                                      include_dc=include_dc):
        s = mixing_sum_units(k, tuple(units))
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


# ---------------------------------------------------------------------------
# dataset generation


def _auto_record_samples(plan: SweepPlan, headroom: float) -> int:
    record = 1.0 / plan.df_hz
    need = plan.max_product_hz * record / headroom * 2.0
    return 1 << max(8, math.ceil(math.log2(need)))


def resolve_settings(sys, plan: SweepPlan,
                     settings: ProbeSettings | None) -> tuple[ProbeSettings, CaptureInfo]:
    s = settings or ProbeSettings()
    if s.settle_s is None:
        settle = max(s.settle_time_constants * sys.slowest_time_constant,
                     s.min_settle_s)
        s = replace(s, settle_s=settle)
    if s.samples_per_record is None:
        s = replace(s, samples_per_record=_auto_record_samples(
            plan, s.nyquist_headroom))
    record = 1.0 / plan.df_hz
    info = CaptureInfo(
        sample_rate_hz=s.samples_per_record / record,
        record_s=record,
        settle_s=s.settle_s,
        samples_per_record=s.samples_per_record,
    )
    return s, info


def simulate_dataset(sys, plan: SweepPlan,
                     settings: ProbeSettings | None = None) -> SpectralDataset:
    """Probe every (triplet, amplitude vector) pair of the plan.

    All runs integrate in one vectorized batch; output phasors accumulate
    on the fly against per-run rotating exponentials, so no full records
    are stored.  Deterministic for fixed settings.
    """
    report = validate_plan(plan, domain="ball")
    if not report.ok:
        raise PlanInvalidError(str(report))
    settings, info = resolve_settings(sys, plan, settings)

    trips = plan.triplets()
    axis_units = plan.axis_units
    sched = plan.schedule
    n_t, n_a, m = len(trips), len(sched), plan.m_tones
    indices = enumerate_output_indices(m, plan.max_mixing_order,
                                       include_dc=settings.include_dc)
    n_k = len(indices)
    n_rec = settings.samples_per_record
    dt = info.record_s / n_rec
    n_settle = int(math.ceil(settings.settle_s / dt))
    n_steps = n_settle + n_rec

    # signed mixing sums per triplet, in df units
    trip_units = np.array(
        [[int(round(f / plan.df_hz)) for f in t] for t in trips], dtype=np.int64)
    ks = np.array(indices, dtype=np.int64)            # (K, M)
    sums = trip_units @ ks.T                          # (T, K)
    conj_mask = sums < 0
    bin_hz = np.abs(sums) * plan.df_hz                # (T, K)
    if bin_hz.max() >= 0.5 * info.sample_rate_hz:
        raise CaptureAlignmentError("mixing products reach Nyquist; "
                                    "increase samples_per_record")

    # per-run drive tables: unique tone frequencies -> cos rows
    lattice = plan.lattice_hz()
    lat_pos = {int(round(f / plan.df_hz)): i for i, f in enumerate(lattice)}
    stage_t = 0.5 * dt * np.arange(2 * n_steps + 1)
    cos_table = np.cos(2.0 * np.pi * lattice[:, None] * stage_t[None, :])

    n_runs = n_t * n_a
    fid = np.empty((n_runs, m), dtype=np.intp)
    amps = np.empty((n_runs, m))
    for t in range(n_t):
        for a in range(n_a):
            r = t * n_a + a
            fid[r] = [lat_pos[u] for u in trip_units[t]]
            amps[r] = sched[a]

    # rotating DFT accumulators
    f_runs = np.repeat(bin_hz, n_a, axis=0)           # (R, K)
    t_rec0 = n_settle * dt
    phase = np.exp(-2j * np.pi * f_runs * t_rec0)
    rot = np.exp(-2j * np.pi * f_runs * dt)
    acc = np.zeros((n_runs, n_k), dtype=complex)

    x = np.zeros((sys.state_dim, n_runs))
    limit = settings.blowup_factor * (1.0 + amps.max())
    half = 0.5 * dt
    sixth = dt / 6.0
    for j in range(n_steps):
        u0 = (amps * cos_table[fid, 2 * j]).sum(axis=1)
        um = (amps * cos_table[fid, 2 * j + 1]).sum(axis=1)
        u1 = (amps * cos_table[fid, 2 * j + 2]).sum(axis=1)
        if j >= n_settle:
            y = sys.output(x, u0)
            acc += y[:, None] * phase
            phase *= rot
            if (j - n_settle + 1) % settings.rotator_refresh == 0:
                phase = np.exp(-2j * np.pi * f_runs * ((j + 1) * dt))
        k1 = sys.deriv(x, u0)
        k2 = sys.deriv(x + half * k1, um)
        k3 = sys.deriv(x + half * k2, um)
        k4 = sys.deriv(x + dt * k3, u1)
        x += sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if j % settings.check_interval == 0 and np.abs(x).max() > limit:
            raise TransientBlowupError(
                f"state magnitude {np.abs(x).max():.3g} at step {j}")

    b = acc / n_rec
    b = b.reshape(n_t, n_a, n_k)
    cm = np.repeat(conj_mask[:, None, :], n_a, axis=1)
    b = np.where(cm, np.conj(b), b)
    dc_cols = np.nonzero((ks == 0).all(axis=1))[0]
    for c in dc_cols:
        b[:, :, c] = b[:, :, c].real
    return SpectralDataset(plan=plan, indices=tuple(indices), phasors=b,
                           capture=info, source="simulated")


def analytic_dataset(kernel_fn, plan: SweepPlan, truncation: int,
                     include_dc: bool = True) -> SpectralDataset:
    """Exact dataset from closed-form kernels; no time stepping, no noise.

    ``kernel_fn(freqs_hz, order) -> complex`` supplies kernels up to
    ``truncation``; each phasor is the coefficient-weighted sum of every
    contributing term at its index.
    """
    indices = enumerate_output_indices(plan.m_tones, plan.max_mixing_order,
                                       include_dc=include_dc)
    trips = plan.triplets()
    sched = plan.schedule
    phasors = np.zeros((len(trips), len(sched), len(indices)), dtype=complex)
    terms_per_index = {k: terms_up_to_order(k, truncation) for k in indices}
    for ti, trip in enumerate(trips):
        for ki, k in enumerate(indices):
            terms = terms_per_index[k]
            if not terms:
                continue
            gvals = [kernel_fn(t.argument_frequencies(trip), t.order)
                     for t in terms]
            for ai, amps in enumerate(sched):
                phasors[ti, ai, ki] = sum(
                    input_coefficient(t, amps) * g
                    for t, g in zip(terms, gvals))
    return SpectralDataset(plan=plan, indices=tuple(indices), phasors=phasors,
                           capture=None, source="analytic")
