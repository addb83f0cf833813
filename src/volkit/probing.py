"""Probing of reference systems, transient simulation and dataset assembly.

The probe reads, per (triplet, amplitude) pair, the output phasor at every
retained mixing product of the system's periodic steady state.  A record
is one resolution period (1/df), so every tone and product sits on a DFT
bin: no settle, no time stepping, no leakage.  ``simulate_dataset`` is the
one steady-state routine: a system declares LTI ``input_blocks``, a
``static`` nonlinearity and an ``output_block`` (or None), and each
distinct plan tone is filtered once per block and superposed per run.
The record's sample count is exact for a system that declares its
``polynomial_degree``; for one that does not, it is the shortest whose
measured alias floor (the change of the loudest runs' phasors when the
record is doubled) is at most ALIAS_TOL, and never longer than the
NYQUIST_HEADROOM record.
``transient`` integrates a drive from rest with fixed-step RK4 through
the same declared blocks, each block's whole window in one pass: the
time-domain reference, independent of the probe's superposition.

Phasor convention: ``B`` is the positive-frequency coefficient of the
two-sided expansion, i.e. the real signal component at f > 0 is
``2*Re{B*exp(j*2*pi*f*t)}`` and a component ``A*cos`` yields ``B = A/2``.
Products whose signed mixing sum is negative are stored conjugated under
their canonical index.  The DC phasor is the record mean (real).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from volkit.mixing import FrequencyIndex, enumerate_output_indices
from volkit.sweeps import SweepPlan, validate_plan

ALIAS_TOL = 1e-9              # undeclared degree: alias floor a record must meet
NYQUIST_HEADROOM = 0.4        # its longest record: top product at 0.4 of Nyquist
BLOWUP_FACTOR = 1e6           # state limit over (1 + peak input magnitude)
MAX_WINDOW_SAMPLES = 1 << 22  # most steps in a transient or synthesis window
RUN_CHUNK = 16                # probe runs whose records are held at once


class TransientBlowupError(RuntimeError):
    """State norm exploded; the system/step combination is unstable."""


class CaptureAlignmentError(ValueError):
    """A requested mixing product does not sit on a DFT bin of the record."""


class PlanInvalidError(ValueError):
    """Probing refused: the plan has colliding mixing products."""


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real signal: samples[j] is the value at j*dt."""

    samples: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", s)
        if not np.all(np.isfinite(s)):
            raise ValueError("waveform samples must be finite")

    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.samples))


@dataclass(frozen=True)
class CaptureInfo:
    """How a dataset was captured.  ``settle_s`` is the time from rest to
    the record; the steady-state probe writes 0.0, older files 2e-7.
    ``alias_floor`` is the largest change of a probed phasor from this
    record to one twice as long, over the peak phasor, for a system whose
    record was chosen by that measure; None where none was measured."""

    sample_rate_hz: float
    record_s: float
    settle_s: float
    samples_per_record: int
    alias_floor: float | None = None


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
        position = {k: i for i, k in enumerate(self.indices)}
        if len(position) != len(self.indices):
            repeated = next(k for i, k in enumerate(self.indices)
                            if position[k] != i)
            raise ValueError(f"index {repeated} appears more than once")

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
    accepting arrays.  The system is run through its declared structure,
    the whole window at once: each distinct input block (by identity)
    takes the drive at every step's four RK4 stages, ``static`` maps all
    their stage outputs in one call, and the output block (if any) takes
    those as its own stage inputs.  This is the coupled RK4 of the whole
    system's state equation; the output at ``t_j`` is stage 1 of step j.
    Then every step's state is checked: the first whose magnitude is not
    within BLOWUP_FACTOR * (1 + peak input magnitude), NaN included,
    raises TransientBlowupError; overflow raises no numpy warning, only
    that error.  A duration that is not finite and nonnegative, a step
    that is not finite and positive, or a window over MAX_WINDOW_SAMPLES
    steps raises ValueError before anything is allocated.
    """
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError("duration must be finite and nonnegative")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("time step must be positive")
    if not duration / dt <= MAX_WINDOW_SAMPLES:
        raise ValueError(f"a window of {duration:g} s holds more than "
                         f"{MAX_WINDOW_SAMPLES} steps of {dt:g} s")
    blocks, first = _input_blocks(sys)
    maps = {i: _stage_map(blocks[i], dt) for i in first}  # distinct blocks
    u = _drive_stage_values(drive, dt, int(round(duration / dt)))
    limit = BLOWUP_FACTOR * (1.0 + np.abs(u).max())
    s = np.stack([u[0:-1:2], u[1::2], u[1::2], u[2::2]])  # (4, steps)
    states, outs = [], {}
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for i, m in maps.items():
            x, outs[i] = _run_block(m, s)
            states.append(x)
        w = sys.static([outs[i] for i in first])
        if sys.output_block is not None:
            x, w = _run_block(_stage_map(sys.output_block, dt), w)
            states.append(x)
    mag = np.max([np.abs(x).max(axis=1) for x in states], axis=0)
    bad = np.flatnonzero(~(mag <= limit))             # NaN is never <=
    if bad.size:
        raise TransientBlowupError(f"state magnitude {mag[bad[0]]:.3g}"
                                   f" at t={(bad[0] + 1) * dt:.3g} s")
    return Waveform(samples=w[0].copy(), dt=dt)  # not a view of all 4 stages


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


def _run_block(m, s):
    """Run a block with stage map ``m`` from rest through the stage inputs
    ``s`` (4, steps): its states after each step (steps, n) and its stage
    outputs (4, steps).  ``x[j+1] = P x[j] + Q s[j]`` is a doubling scan:
    after the pass of span k each row holds the inputs' share of its last
    2k steps, carried through P; each pass reads only earlier rows, as the
    right-hand side is a new array."""
    n = len(m) - 4
    p, x = m[:n, :n], s.T @ m[:n, n:].T               # the inputs' share
    span = 1
    while span < len(x):
        x[span:] += x[:-span] @ p.T
        p, span = p @ p, 2 * span
    v = m[n:, n:] @ s
    v[:, 1:] += m[n:, :n] @ x[:-1].T                  # the state's, from rest
    return x, v


# ---------------------------------------------------------------------------
# dataset generation


def _pow2_above(x: int) -> int:
    """The least power of two >= 256 that is strictly above ``x``."""
    return 1 << max(8, x.bit_length())


def _capture_info(sys, plan: SweepPlan, samples_per_record: int | None,
                  ladder=None) -> CaptureInfo:
    """The one-period record of ``plan`` for ``sys``.

    With M the plan's mixing order and f_top its highest tone, a record of
    n > 2 M f_top / df samples keeps every claimed bin below Nyquist.  An
    explicit ``samples_per_record`` is used as given.  Otherwise n is the
    least power of two >= 256 that captures ``sys`` exactly when it
    declares a ``polynomial_degree`` D: at n > (D + M) f_top / df no
    product of degree <= D folds onto a claimed bin.

    A system without a declared degree folds harmonics from above Nyquist
    at any record, so the fold is measured: ``ladder(n)`` gives the
    claimed phasors of the loudest run of each triplet at an n-sample
    record.  From the least power of two >= 256 above 2 M f_top / df the
    record doubles until the alias floor, the largest change of a phasor
    from n to 2n samples over the peak phasor, is at most ALIAS_TOL.  It
    stops at the record that puts the top product at NYQUIST_HEADROOM of
    Nyquist, whatever the floor there.  ``alias_floor`` is the floor at
    the chosen n, or None where none was measured.
    """
    record = 1.0 / plan.df_hz
    degree = getattr(sys, "polynomial_degree", None)
    m, top = plan.max_mixing_order, int(plan.triplet_units().max())
    floor = None
    if samples_per_record is None and degree is not None:
        samples_per_record = _pow2_above(max(degree + m, 2 * m) * top)
    elif samples_per_record is None:
        need = plan.max_product_hz * record / NYQUIST_HEADROOM * 2.0
        cap = 1 << max(8, math.ceil(math.log2(need)))
        n = _pow2_above(2 * m * top)
        short = ladder(n)
        while True:
            long = ladder(2 * n)
            peak = np.abs(long).max()
            floor = float(np.abs(long - short).max() / peak) if peak else 0.0
            if not math.isfinite(floor):
                raise ValueError(f"the system's output at {n} samples per "
                                 "record is not finite")
            if floor <= ALIAS_TOL or n >= cap:
                break
            n, short = 2 * n, long
        samples_per_record = n
    if samples_per_record < 1:
        raise ValueError(f"samples_per_record must be >= 1, not "
                         f"{samples_per_record}")
    return CaptureInfo(
        sample_rate_hz=samples_per_record / record,
        record_s=record,
        settle_s=0.0,
        samples_per_record=samples_per_record,
        alias_floor=floor,
    )


def simulate_dataset(sys, plan: SweepPlan,
                     samples_per_record: int | None = None) -> SpectralDataset:
    """Probe every (triplet, amplitude vector) pair of the plan.

    Every run's record is the periodic steady state of the system's
    declared structure: ``input_blocks`` filter the drive, ``static`` acts
    on their samples, ``output_block`` (if any) filters the result.  The
    blocks are LTI, so each distinct block (by identity) filters each
    distinct plan tone once per record length, in one irfft, and a run's
    block output is its amplitudes times those tone responses; RUN_CHUNK
    runs at a time then pass through ``static`` and one rfft, and only the
    product bins are read.  Exact up to rounding for a system that
    declares its ``polynomial_degree``; for one that does not, the record
    is chosen by probing the loudest run of each triplet at doubling
    lengths (see ``_capture_info``), and the dataset keeps an alias floor
    of at most ALIAS_TOL unless the longest record was reached.
    Deterministic for a fixed ``samples_per_record``.  The DC index is
    captured too.
    """
    blocks, first = _input_blocks(sys)
    report = validate_plan(plan, domain="ball")
    if not report.ok:
        raise PlanInvalidError(str(report))

    trip_units = plan.triplet_units()                 # (T, M), df units
    sched = np.asarray(plan.schedule, dtype=float)
    n_t, n_a = len(trip_units), len(sched)
    indices = enumerate_output_indices(plan.m_tones, plan.max_mixing_order,
                                       include_dc=True)
    # signed mixing sums per triplet, in df units
    ks = np.array(indices, dtype=np.int64)            # (K, M)
    sums = trip_units @ ks.T                          # (T, K)

    # one row per run: tone positions and amplitudes in, product bins out
    tones, tone_of = np.unique(trip_units, return_inverse=True)
    run_tones = np.repeat(tone_of.reshape(n_t, -1), n_a, axis=0)  # (R, M)
    amps = np.tile(sched, (n_t, 1))
    product_bins = np.repeat(np.abs(sums), n_a, axis=0)  # (R, K)

    # transfers at any record length: each distinct input block's at each
    # distinct tone, and the output block's (if any) where bins are read
    record_s = 1.0 / plan.df_hz
    bin_hz = 1.0 / record_s                           # rfftfreq's bin step
    tone_h = {i: blocks[i].transfer_hz(tones * bin_hz)
              for i in dict.fromkeys(first)}
    out_block = sys.output_block
    if out_block is not None:
        prods = np.unique(product_bins)
        h_out = np.zeros(prods[-1] + 1, dtype=complex)
        h_out[prods] = out_block.transfer_hz(prods * bin_hz)

    def probe(n_rec, rows, shifted=False):
        """Product-bin phasors of the runs ``rows`` from an n_rec-sample
        record, its samples half a step late if ``shifted``."""
        # each block's response to each tone: one line of 0.5*n*H per row,
        # so a unit amplitude gives the filtered cosine
        lines = np.zeros((len(tones), n_rec // 2 + 1), dtype=complex)
        delay = np.exp(1j * np.pi * tones / n_rec) if shifted else 1.0
        basis = {}
        for i, h in tone_h.items():
            lines[np.arange(len(tones)), tones] = 0.5 * n_rec * h * delay
            basis[i] = np.fft.irfft(lines, n_rec)     # (tones, n)
        bins = product_bins[rows]
        b = np.empty(bins.shape, dtype=complex)
        # every chunk reuses one set of records: fresh ones per chunk cost
        # about a fifth of the probe in page faults
        size = min(RUN_CHUNK, len(b))
        records = {i: np.empty((size, n_rec)) for i in basis}
        spectra = np.empty((size, n_rec // 2 + 1), dtype=complex)
        for s in range(0, len(b), RUN_CHUNK):
            chunk = rows[s:s + RUN_CHUNK]
            k = len(chunk)
            w = np.zeros((k, len(tones)))
            np.put_along_axis(w, run_tones[chunk], amps[chunk], axis=1)
            outs = {i: np.matmul(w, v, out=records[i][:k])
                    for i, v in basis.items()}
            y = np.fft.rfft(sys.static([outs[i] for i in first]),
                            out=spectra[:k])
            b[s:s + k] = np.take_along_axis(y, bins[s:s + k], axis=1)
        if out_block is not None:
            b *= h_out[bins]
        b /= n_rec
        return b

    # the ladder's runs, each triplet at the schedule's loudest row; an n
    # record's even samples are the n/2 record, its odd ones that record
    # shifted, so each rung past the first probes one shifted record
    loudest = np.arange(n_t) * n_a + np.abs(sched).sum(axis=1).argmax()
    loud = {}                                         # record -> phasors

    def ladder(n):
        half = n // 2
        if half in loud:
            turn = np.exp(-1j * np.pi * product_bins[loudest] / half)
            loud[n] = 0.5 * (loud[half] + turn * probe(half, loudest, True))
        else:
            loud[n] = probe(n, loudest)
        return loud[n]

    info = _capture_info(sys, plan, samples_per_record, ladder)
    if np.abs(sums).max() * plan.df_hz >= 0.5 * info.sample_rate_hz:
        raise CaptureAlignmentError("mixing products reach Nyquist; "
                                    "increase samples_per_record")

    b = probe(info.samples_per_record, np.arange(n_t * n_a))
    b = b.reshape(n_t, n_a, len(indices))
    b = np.where((sums < 0)[:, None, :], np.conj(b), b)
    dc = (ks == 0).all(axis=1)
    b[:, :, dc] = b[:, :, dc].real
    return SpectralDataset(plan=plan, indices=tuple(indices), phasors=b,
                           capture=info, source="simulated")
