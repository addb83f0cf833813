"""Probing of reference systems, transient simulation and dataset assembly.

The probe reads, per (triplet, amplitude) pair, the output phasor at every
retained mixing product of the system's periodic steady state.  A record
is one resolution period (1/df), so every tone and product sits on a DFT
bin: no settle, no time stepping, no leakage.  ``simulate_dataset`` is the
one steady-state routine: a system declares LTI ``input_blocks``, a
``static`` nonlinearity and an ``output_block`` (or None), and each
distinct plan tone is filtered once per block and superposed per run.
``transient`` integrates any drive from rest with fixed-step RK4, the
independent time-domain reference.

Phasor convention: ``B`` is the positive-frequency coefficient of the
two-sided expansion, i.e. the real signal component at f > 0 is
``2*Re{B*exp(j*2*pi*f*t)}`` and a component ``A*cos`` yields ``B = A/2``.
Products whose signed mixing sum is negative are stored conjugated under
their canonical index.  The DC phasor is the record mean (real).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from volkit.mixing import FrequencyIndex, enumerate_output_indices
from volkit.sweeps import SweepPlan, validate_plan

NYQUIST_HEADROOM = 0.4        # undeclared degree: top product at 0.4 of Nyquist
BLOWUP_FACTOR = 1e6           # state limit over (1 + peak input magnitude)
CHECK_INTERVAL = 2048         # steps between blow-up checks
RUN_CHUNK = 16                # probe runs whose records are held at once


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
class CaptureInfo:
    """How a dataset was captured.  ``settle_s`` is the time from rest to
    the record; the steady-state probe writes 0.0, older files 2e-7."""

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
        wrong = next((k for k in self.indices
                      if len(k) != self.plan.m_tones), None)
        if wrong is not None:
            raise ValueError(f"index {list(wrong)} has {len(wrong)} entries "
                             f"for the plan's {self.plan.m_tones} tones")
        self._index_pos = {k: i for i, k in enumerate(self.indices)}
        if len(self._index_pos) != len(self.indices):
            repeated = next(k for i, k in enumerate(self.indices)
                            if self._index_pos[k] != i)
            raise ValueError(f"index {repeated} appears more than once")

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


def transient(sys, drive, duration: float, dt: float) -> Waveform:
    """Fixed-step RK4 simulation from rest; output sampled every dt.

    ``drive`` may be a Waveform on the same time step or a callable t -> u
    accepting arrays.  Every CHECK_INTERVAL steps and after the last, a
    state magnitude that is not within BLOWUP_FACTOR * (1 + peak input
    magnitude) raises TransientBlowupError.  Outputs are evaluated once
    per CHECK_INTERVAL block of states, over the system's batch axis.  A
    system whose ``linear_state`` is true has a ``deriv`` linear in (x, u);
    its RK4 step is the affine map ``_linear_step_map`` gives, one matrix
    product per step.
    """
    n = int(round(duration / dt))
    u = _drive_stage_values(drive, dt, n)
    limit = BLOWUP_FACTOR * (1.0 + np.abs(u).max())
    linear = getattr(sys, "linear_state", False)
    if linear:
        p, q = _linear_step_map(sys, dt)
    x = np.zeros((sys.state_dim, 1))
    states = np.empty((sys.state_dim, CHECK_INTERVAL))
    y = np.empty(n)
    for j in range(n):
        k = j % CHECK_INTERVAL
        if linear and k == 0:
            # the inputs' share of every step of this block, in one product
            block = u[2 * j:2 * min(j + CHECK_INTERVAL, n) + 1]
            pushed = q @ np.stack([block[0:-1:2], block[1::2], block[2::2]])
        states[:, k] = x[:, 0]
        if linear:
            x = p @ x + pushed[:, k:k + 1]
        else:
            u0, um, u1 = u[2 * j:2 * j + 3, None]  # each of shape (1,)
            x = _rk4_step(sys, x, u0, um, u1, dt)
        if (k == 0 or j == n - 1) and not np.abs(x).max() <= limit:
            raise TransientBlowupError(f"state magnitude {np.abs(x).max():.3g}"
                                       f" at t={(j + 1) * dt:.3g} s")
        if k == CHECK_INTERVAL - 1 or j == n - 1:
            y[j - k:j + 1] = sys.output(states[:, :k + 1],
                                        u[2 * (j - k):2 * j + 1:2])
    return Waveform(samples=y, dt=dt, t0=0.0)


def _rk4_step(sys, x, u0, um, u1, dt: float) -> np.ndarray:
    """One classical RK4 step of ``dx/dt = sys.deriv(x, u)`` from the
    states ``x``, with inputs ``u0``, ``um`` and ``u1`` at the start, the
    middle and the end of the step."""
    half = 0.5 * dt
    k1 = sys.deriv(x, u0)
    k2 = sys.deriv(x + half * k1, um)
    k3 = sys.deriv(x + half * k2, um)
    k4 = sys.deriv(x + dt * k3, u1)
    return x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _linear_step_map(sys, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) of a linear system's RK4 step, ``x <- P x + Q (u0, um, u1)``:
    the step applied to the identity with zero input gives P, and applied
    to zero states with each unit input gives Q's columns."""
    d = sys.state_dim
    basis = np.eye(d + 3)
    step = _rk4_step(sys, basis[:d], *basis[d:], dt)
    return step[:, :d], step[:, d:]


# ---------------------------------------------------------------------------
# dataset generation


def _capture_info(sys, plan: SweepPlan, samples_per_record: int | None
                  ) -> CaptureInfo:
    """The one-period record of ``plan`` for ``sys``.

    ``samples_per_record`` defaults to the least power of two >= 256 that
    captures ``sys`` exactly when it declares a ``polynomial_degree`` D.
    With M the plan's mixing order and f_top its highest tone, a record of
    n > (D + M) f_top / df samples folds no product of degree <= D onto a
    claimed bin, and n > 2 M f_top / df keeps every claimed bin below
    Nyquist.  A system without a declared degree gets the record that puts
    the top product at NYQUIST_HEADROOM of Nyquist.
    """
    record = 1.0 / plan.df_hz
    degree = getattr(sys, "polynomial_degree", None)
    if samples_per_record is None and degree is None:
        need = plan.max_product_hz * record / NYQUIST_HEADROOM * 2.0
        samples_per_record = 1 << max(8, math.ceil(math.log2(need)))
    elif samples_per_record is None:
        m, top = plan.max_mixing_order, int(plan.triplet_units().max())
        need = max(degree + m, 2 * m) * top + 1     # strictly above both
        samples_per_record = 1 << max(8, (need - 1).bit_length())
    if samples_per_record < 1:
        raise ValueError(f"samples_per_record must be >= 1, not "
                         f"{samples_per_record}")
    return CaptureInfo(
        sample_rate_hz=samples_per_record / record,
        record_s=record,
        settle_s=0.0,
        samples_per_record=samples_per_record,
    )


def simulate_dataset(sys, plan: SweepPlan,
                     samples_per_record: int | None = None) -> SpectralDataset:
    """Probe every (triplet, amplitude vector) pair of the plan.

    Every run's record is the periodic steady state of the system's
    declared structure: ``input_blocks`` filter the drive, ``static`` acts
    on their samples, ``output_block`` (if any) filters the result.  The
    blocks are LTI, so each distinct block (by identity) filters each
    distinct plan tone once, in one irfft, and a run's block output is its
    amplitudes times those tone responses; RUN_CHUNK runs at a time then
    pass through ``static`` and one rfft, and only the product bins are
    read.  Exact up to rounding for a system that declares its
    ``polynomial_degree`` (a static nonlinearity without one keeps
    harmonics folded from above Nyquist); deterministic for a fixed
    ``samples_per_record``.  The DC index is captured too.
    """
    if not hasattr(sys, "input_blocks"):
        raise TypeError(f"{type(sys).__name__} has no input_blocks;"
                        " only block-structured systems can be probed")
    report = validate_plan(plan, domain="ball")
    if not report.ok:
        raise PlanInvalidError(str(report))
    info = _capture_info(sys, plan, samples_per_record)

    trip_units = plan.triplet_units()                 # (T, M), df units
    sched = plan.schedule
    n_t, n_a = len(trip_units), len(sched)
    indices = enumerate_output_indices(plan.m_tones, plan.max_mixing_order,
                                       include_dc=True)
    n_rec = info.samples_per_record
    dt = info.record_s / n_rec
    bin_hz = 1.0 / (n_rec * dt)                       # rfftfreq's bin step

    # signed mixing sums per triplet, in df units
    ks = np.array(indices, dtype=np.int64)            # (K, M)
    sums = trip_units @ ks.T                          # (T, K)
    if np.abs(sums).max() * plan.df_hz >= 0.5 * info.sample_rate_hz:
        raise CaptureAlignmentError("mixing products reach Nyquist; "
                                    "increase samples_per_record")

    # each distinct block's response to each distinct tone: one line of
    # 0.5*n*H per row, so a unit amplitude gives the filtered cosine
    tones, tone_of = np.unique(trip_units, return_inverse=True)
    blocks = sys.input_blocks
    ids = [id(blk) for blk in blocks]
    first = [ids.index(i) for i in ids]               # each block's first holder
    lines = np.zeros((len(tones), n_rec // 2 + 1), dtype=complex)
    basis = {}
    for i in dict.fromkeys(first):
        lines[np.arange(len(tones)), tones] = (
            0.5 * n_rec * blocks[i].transfer_hz(tones * bin_hz))
        basis[i] = np.fft.irfft(lines, n_rec)         # (tones, n)

    # one row per run: tone positions and amplitudes in, product bins out
    run_tones = np.repeat(tone_of.reshape(n_t, -1), n_a, axis=0)  # (R, M)
    amps = np.tile(np.asarray(sched, dtype=float), (n_t, 1))
    product_bins = np.repeat(np.abs(sums), n_a, axis=0)  # (R, K)

    out_block = sys.output_block
    if out_block is not None:                         # its transfer where read
        prods = np.unique(product_bins)
        h_out = np.zeros(n_rec // 2 + 1, dtype=complex)
        h_out[prods] = out_block.transfer_hz(prods * bin_hz)

    b = np.empty(product_bins.shape, dtype=complex)
    for s in range(0, len(amps), RUN_CHUNK):
        rows = slice(s, s + RUN_CHUNK)
        w = np.zeros((len(amps[rows]), len(tones)))
        np.put_along_axis(w, run_tones[rows], amps[rows], axis=1)
        outs = {i: w @ v for i, v in basis.items()}
        y = np.fft.rfft(sys.static([outs[i] for i in first]))
        b[rows] = np.take_along_axis(y, product_bins[rows], axis=1)
        if out_block is not None:
            b[rows] *= h_out[product_bins[rows]]
    b /= n_rec

    b = b.reshape(n_t, n_a, len(indices))
    b = np.where((sums < 0)[:, None, :], np.conj(b), b)
    dc = (ks == 0).all(axis=1)
    b[:, :, dc] = b[:, :, dc].real
    return SpectralDataset(plan=plan, indices=tuple(indices), phasors=b,
                           capture=info, source="simulated")
