"""Least-squares separation of kernel orders from a spectral dataset.

Every canonical output index collects kernels of several orders (a
fundamental carries the linear term plus compression and desensitization
terms).  Varying the tone amplitudes over the schedule turns each index
into an overdetermined linear system whose unknowns are the kernel values;
the coefficient of each unknown is a known amplitude monomial.  Solving
per index and scattering the solutions through their argument layouts
populates one kernel grid per order.

The coefficient matrix depends only on the schedule, so one orthogonal
factorization per index serves every triplet (stacked right-hand sides).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from volkit.kernels import KernelArchive, KernelGrid
from volkit.mixing import (
    FrequencyIndex,
    MixTerm,
    input_coefficient,
    terms_up_to_order,
)
from volkit.probing import SpectralDataset
from volkit.sweeps import SweepPlan

STAGE1_MAX_ORDER = 1  # two_stage solves orders up to this one first
RESIDUAL_TOL = 1e-8   # relative residual above which a solve is flagged


class ExtractionError(RuntimeError):
    """Too few kernel points could be resolved."""


@dataclass(frozen=True)
class ExtractionSettings:
    """Extraction knobs.

    two_stage solves low orders first on the smallest-amplitude rows, then
    re-solves the higher orders with the low orders fixed.  It only helps
    when those rows are small enough that unmodeled orders are negligible
    there; with schedules whose lowest level still drives the nonlinearity
    hard it biases the low orders, so it defaults off.
    """

    truncation: int = 3
    two_stage: bool = False
    min_success_fraction: float = 0.95
    include_dc: bool = True


def unknowns_at_index(k: FrequencyIndex, truncation: int) -> list[MixTerm]:
    """Kernel terms feeding index ``k`` up to the truncation order."""
    return terms_up_to_order(tuple(k), truncation)


@dataclass
class LSSystem:
    """One index's regression: rows over the amplitude schedule."""

    index: FrequencyIndex
    matrix: np.ndarray            # (n_rows, n_unknowns) real coefficients
    rhs: np.ndarray               # (n_rows,) or (n_rows, n_sets) complex
    unknowns: list[MixTerm]
    row_amplitudes: tuple[tuple[float, ...], ...]


@dataclass
class SolveDiagnostics:
    cond: float
    rank: int
    residual_norm: np.ndarray
    rhs_norm: np.ndarray
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.warnings


class MissingPhasorError(KeyError):
    """Dataset lacks a phasor the regression needs."""

    def __init__(self, triplet_id: int, amp_id: int, index: FrequencyIndex):
        super().__init__(
            f"missing phasor: triplet {triplet_id}, amplitude {amp_id}, "
            f"index {index}")
        self.triplet_id = triplet_id
        self.amp_id = amp_id
        self.index = index


def coefficient_matrix(k: FrequencyIndex, unknowns: list[MixTerm],
                       schedule) -> np.ndarray:
    return np.array([[input_coefficient(term, amps) for term in unknowns]
                     for amps in schedule])


def build_ls_system(dataset: SpectralDataset, triplet_ids,
                    k: FrequencyIndex,
                    settings: ExtractionSettings | None = None) -> LSSystem:
    """Assemble the regression at index ``k`` for one triplet id, or for a
    sequence of them with one right-hand-side column each."""
    settings = settings or ExtractionSettings()
    k = tuple(k)
    unknowns = unknowns_at_index(k, settings.truncation)
    if not unknowns:
        raise ValueError(f"no unknowns of order <= {settings.truncation} at {k}")
    schedule = dataset.plan.schedule
    ids = np.atleast_1d(triplet_ids)
    block = dataset.phasors[ids, :, dataset.index_position(k)]  # (sets, amps)
    missing = np.argwhere(~np.isfinite(block))
    if len(missing):
        col, amp_id = missing[0]
        raise MissingPhasorError(int(ids[col]), int(amp_id), k)
    return LSSystem(
        index=k,
        matrix=coefficient_matrix(k, unknowns, schedule),
        rhs=block.T if np.ndim(triplet_ids) else block[0],
        unknowns=unknowns,
        row_amplitudes=tuple(schedule),
    )


def _lstsq_scaled(a: np.ndarray, b: np.ndarray):
    """Minimum-norm least squares via SVD on unit-norm columns."""
    scales = np.linalg.norm(a, axis=0)
    scales[scales == 0.0] = 1.0
    x, _, rank, sv = np.linalg.lstsq(a / scales, b, rcond=None)
    x = (x.T / scales).T
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return x, int(rank), cond


def _stage1_rows(schedule) -> np.ndarray:
    peak = np.array([max(row) for row in schedule])
    return np.nonzero(peak == peak.min())[0]


def solve_ls(system: LSSystem,
             settings: ExtractionSettings | None = None):
    """Solve one regression; returns (term -> value map, diagnostics).

    Multi-set right-hand sides (one column per triplet) are solved in one
    factorization; the returned map then holds complex arrays.
    """
    settings = settings or ExtractionSettings()
    a = system.matrix
    b = np.atleast_2d(system.rhs.T).T  # (rows, sets)
    n_rows, n_unk = a.shape
    if n_rows < n_unk:
        raise ExtractionError(
            f"index {system.index}: {n_rows} rows < {n_unk} unknowns")
    diag_warnings: list[str] = []

    orders = np.array([t.order for t in system.unknowns])
    lo = orders <= STAGE1_MAX_ORDER
    hi = ~lo
    if settings.two_stage and lo.any() and hi.any():
        rows1 = _stage1_rows(system.row_amplitudes)
        if len(rows1) < lo.sum():
            rows1 = np.argsort([max(r) for r in system.row_amplitudes])[
                : max(lo.sum(), 1)]
        x_lo, rank1, cond1 = _lstsq_scaled(
            a[np.ix_(rows1, np.nonzero(lo)[0])], b[rows1])
        b_hi = b - a[:, lo] @ x_lo
        x_hi, rank2, cond = _lstsq_scaled(a[:, hi], b_hi)
        rank = int(rank1 + rank2)
        x = np.zeros((n_unk, b.shape[1]), dtype=complex)
        x[lo] = x_lo
        x[hi] = x_hi
    else:
        x, rank, cond = _lstsq_scaled(a, b)
        if rank < n_unk:
            raise ExtractionError(
                f"index {system.index}: rank {rank} < {n_unk} unknowns "
                f"(condition {cond:.3g})")

    resid = np.linalg.norm(b - a @ x, axis=0)
    rhs_norm = np.linalg.norm(b, axis=0)
    bad = resid > RESIDUAL_TOL * np.maximum(rhs_norm, 1e-300)
    if bad.any():
        diag_warnings.append(
            f"index {system.index}: residual above tolerance for "
            f"{int(bad.sum())}/{b.shape[1]} right-hand sides")
    diagnostics = SolveDiagnostics(
        cond=cond, rank=rank, residual_norm=resid, rhs_norm=rhs_norm,
        warnings=diag_warnings)
    squeeze = system.rhs.ndim == 1
    values = {
        term: (complex(x[i, 0]) if squeeze else x[i])
        for i, term in enumerate(system.unknowns)
    }
    return values, diagnostics


@dataclass
class ExtractionReport:
    n_indices: int
    n_triplets: int
    failures: list[tuple[int, FrequencyIndex, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    points_per_order: dict[int, int] = field(default_factory=dict)
    max_relative_residual: float = 0.0

    @property
    def success_fraction(self) -> float:
        total = self.n_indices * self.n_triplets
        return 1.0 - len(self.failures) / total if total else 1.0


def extract(dataset: SpectralDataset, plan: SweepPlan | None = None,
            settings: ExtractionSettings | None = None):
    """Turn a dataset into a kernel archive; returns (archive, report).

    Indices are solved independently, so one bad index degrades coverage
    instead of aborting; the report lists every failure.  Raises
    ExtractionError only if the resolved fraction falls below
    ``settings.min_success_fraction``.
    """
    settings = settings or ExtractionSettings()
    plan = plan or dataset.plan
    if settings.truncation > plan.max_mixing_order:
        raise ValueError("truncation order exceeds the plan's mixing order")
    widest = max(
        len(unknowns_at_index(k, settings.truncation)) for k in dataset.indices)
    if len(plan.schedule) < widest:
        raise ValueError(
            f"schedule has {len(plan.schedule)} amplitude vectors but the "
            f"widest index system has {widest} unknowns; add rows or levels")
    lattice = tuple(int(round(f / plan.df_hz)) for f in plan.lattice_hz())
    grids = {n: KernelGrid(order=n, lattice_units=lattice, df_hz=plan.df_hz)
             for n in range(1, settings.truncation + 1)}
    trips = np.array(plan.triplets(), dtype=float)
    indices = [k for k in dataset.indices
               if settings.include_dc or any(v != 0 for v in k)]
    report = ExtractionReport(n_indices=len(indices), n_triplets=len(trips))
    # per order: argument arrays and values in solve order, inserted at once
    samples = {n: ([], []) for n in grids}

    for k in indices:
        if not unknowns_at_index(k, settings.truncation):
            continue
        finite = np.isfinite(dataset.phasors[:, :, dataset.index_position(k)])
        good = finite.all(axis=1)
        report.failures.extend(
            (int(t), k, f"missing phasor at amplitude {np.argmin(finite[t])}")
            for t in np.nonzero(~good)[0])
        good_ids = np.nonzero(good)[0]
        if not len(good_ids):
            continue
        try:
            values, diag = solve_ls(
                build_ls_system(dataset, good_ids, k, settings), settings)
        except ExtractionError as err:
            report.failures.extend((int(t), k, str(err)) for t in good_ids)
            continue
        report.warnings.extend(diag.warnings)
        rel = diag.residual_norm / np.maximum(diag.rhs_norm, 1e-300)
        report.max_relative_residual = max(report.max_relative_residual,
                                           float(rel.max()))
        freqs = trips[good_ids]
        for term, vals in values.items():
            tones = np.array(term.argument_tones())
            args, vals_list = samples[term.order]
            args.append(np.sign(tones) * freqs[:, np.abs(tones) - 1])
            vals_list.append(vals)

    for n, (args, vals) in samples.items():
        if args:
            grids[n].insert(np.concatenate(args), np.concatenate(vals))
        report.points_per_order[n] = grids[n].n_points
    if report.success_fraction < settings.min_success_fraction:
        raise ExtractionError(
            f"only {report.success_fraction:.1%} of (triplet, index) systems "
            f"resolved; {len(report.failures)} failures")
    meta = {
        "plan_id": plan.plan_id,
        "source": dataset.source,
        "truncation": settings.truncation,
        "two_stage": settings.two_stage,
        "n_triplets": len(trips),
    }
    return KernelArchive(grids=grids, metadata=meta), report
