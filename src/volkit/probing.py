"""Probing of reference systems, transient simulation and dataset assembly.

The probe reads, per (triplet, amplitude) pair, the output phasor at every
retained mixing product of the system's periodic steady state.  A record
is one resolution period (1/df), so every tone and product sits on a DFT
bin: no settle, no time stepping, no leakage.  ``simulate_dataset`` is the
one steady-state routine: a system declares LTI ``input_blocks``, a
``static`` nonlinearity and an ``output_block`` (or None), and each
distinct plan tone is filtered once per block and superposed per run.
``transient`` integrates a drive from rest with fixed-step RK4 through
the same declared blocks, stepping each block's state: the time-domain
reference, independent of the probe's superposition.

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


def _input_blocks(sys) -> tuple[tuple, list[int]]:
    """``sys.input_blocks`` and, per block, the position of the first
    block identical to it, so each distinct block is filtered or stepped
    once; a system that declares no input blocks raises TypeError."""
    if not hasattr(sys, "input_blocks"):
        raise TypeError(f"{type(sys).__name__} has no input_blocks;"
                        " only block-structured systems can be simulated")
    blocks = sys.input_blocks
    ids = [id(blk) for blk in blocks]
    return blocks, [ids.index(i) for i in ids]


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
    accepting arrays.  The system is stepped through its declared
    structure, CHECK_INTERVAL steps at a time: each distinct input block
    (by identity) takes the drive at the step's four RK4 stages, ``static``
    maps all their stage outputs in one call, and the output block (if
    any) takes those as its own stage inputs.  This is the coupled RK4 of
    the whole system's state equation; the output at ``t_j`` is stage 1 of
    step j.  After the first step of every CHECK_INTERVAL block and after
    the last, a state magnitude that is not within BLOWUP_FACTOR * (1 +
    peak input magnitude) raises TransientBlowupError; overflow inside a
    block raises no numpy warning, only that error.
    """
    blocks, first = _input_blocks(sys)
    stepped = {i: blocks[i] for i in first}           # distinct input blocks
    if sys.output_block is not None:
        stepped["out"] = sys.output_block
    maps = {k: _stage_map(blk, dt) for k, blk in stepped.items()}
    states = {k: np.zeros((1, blk.order)) for k, blk in stepped.items()}
    n = int(round(duration / dt))
    u = _drive_stage_values(drive, dt, n)
    limit = BLOWUP_FACTOR * (1.0 + np.abs(u).max())
    y = np.empty(n)
    for j0 in range(0, n, CHECK_INTERVAL):
        j1 = min(j0 + CHECK_INTERVAL, n)
        half = u[2 * j0:2 * j1 + 1]
        s = np.stack([half[0:-1:2], half[1::2], half[1::2], half[2::2]])
        outs = {}
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for i in dict.fromkeys(first):
                states[i], outs[i] = _step_block(maps[i], states[i][-1], s)
            w = sys.static([outs[i] for i in first])      # (4, steps)
            if "out" in maps:
                states["out"], w = _step_block(maps["out"],
                                               states["out"][-1], w)
        y[j0:j1] = w[0]
        for j in sorted({j0, n - 1 if j1 == n else j0}):
            mag = np.abs(np.concatenate(
                [st[j + 1 - j0] for st in states.values()])).max()
            if not mag <= limit:
                raise TransientBlowupError(f"state magnitude {mag:.3g}"
                                           f" at t={(j + 1) * dt:.3g} s")
    return Waveform(samples=y, dt=dt, t0=0.0)


def _stage_map(blk, dt: float) -> np.ndarray:
    """One classical RK4 step of the LTI block ``blk`` as one matrix M:
    ``M @ [x; s] = [x'; v]``, with ``s`` the inputs at the step's four
    stages (start, middle, middle, end), ``x'`` the state after the step
    and ``v`` the block's output at each stage.  The step is linear in
    (x, s), so it is evaluated once on the identity."""
    n = blk.order
    basis = np.eye(n + 4)
    x, s = basis[:n], basis[n:]
    k = np.zeros_like(x)
    slopes, outs = [], []
    for s_i, h in zip(s, (0.0, 0.5 * dt, 0.5 * dt, dt)):
        state = x + h * k
        outs.append(blk.c @ state + blk.d * s_i)
        k = blk.a @ state + np.outer(blk.b, s_i)
        slopes.append(k)
    k1, k2, k3, k4 = slopes
    return np.vstack([x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4), outs])


def _step_block(m, x, s):
    """Step a block with stage map ``m`` from state ``x`` through the
    stage inputs ``s`` (4, steps): its states (steps + 1, n) from ``x`` on
    and its stage outputs (4, steps)."""
    n = len(x)
    p = m[:n, :n]
    states = [x]
    for pushed in s.T @ m[:n, n:].T:                  # the inputs' share
        states.append(p @ states[-1] + pushed)
    states = np.array(states)
    return states, m[n:] @ np.vstack([states[:-1].T, s])


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
    blocks, first = _input_blocks(sys)
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
