"""The kernel-to-phasor map and its least-squares inversion.

At every canonical output index the phasor is a sum of kernel values, one
per contributing term, each weighted by a known amplitude monomial of the
schedule row.  ``analytic_dataset`` evaluates that sum from closed-form
kernels; ``extract`` inverts it, one overdetermined linear system per
index whose unknowns are the kernel values, and scatters the solutions
through their argument layouts into one kernel grid per order.

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
    enumerate_output_indices,
    input_coefficient,
    unknowns_at_index,
)
from volkit.probing import SpectralDataset
from volkit.sweeps import SweepPlan

RESIDUAL_TOL = 1e-8   # relative residual above which a solve is flagged


class ExtractionError(RuntimeError):
    """Too few kernel points could be resolved."""


def _coefficients(terms: list[MixTerm], schedule) -> np.ndarray:
    """(n_amps, n_terms) amplitude coefficients of ``terms`` per schedule row."""
    return np.array([[input_coefficient(term, amps) for term in terms]
                     for amps in schedule])


def _argument_rows(term: MixTerm, trips: np.ndarray) -> np.ndarray:
    """(n_triplets, order) signed kernel arguments of ``term`` for each
    row of per-tone frequencies ``trips``."""
    tones = np.array(term.argument_tones())
    return np.sign(tones) * trips[:, np.abs(tones) - 1]


def _lstsq_scaled(a: np.ndarray, b: np.ndarray):
    """Minimum-norm least squares via SVD on unit-norm columns."""
    scales = np.linalg.norm(a, axis=0)
    scales[scales == 0.0] = 1.0
    x, _, rank, sv = np.linalg.lstsq(a / scales, b, rcond=None)
    x = (x.T / scales).T
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return x, int(rank), cond


def analytic_dataset(kernel_fn, plan: SweepPlan,
                     truncation: int) -> SpectralDataset:
    """Exact dataset from closed-form kernels; no time stepping, no noise.

    ``kernel_fn(freqs_hz, order) -> complex`` supplies kernels up to
    ``truncation``; each phasor is the coefficient-weighted sum of every
    contributing term at its index, added in term order.  The indices are
    the probe's, DC included.
    """
    indices = enumerate_output_indices(plan.m_tones, plan.max_mixing_order,
                                       include_dc=True)
    trips = np.array(plan.triplets(), dtype=float)
    phasors = np.zeros((len(trips), len(plan.schedule), len(indices)),
                       dtype=complex)
    for ki, k in enumerate(indices):
        terms = unknowns_at_index(k, truncation)
        coeffs = _coefficients(terms, plan.schedule)
        for term, column in zip(terms, coeffs.T):
            values = np.array(
                [kernel_fn(tuple(row), term.order)
                 for row in _argument_rows(term, trips).tolist()],
                dtype=complex)
            phasors[:, :, ki] += values[:, None] * column
    return SpectralDataset(plan=plan, indices=tuple(indices), phasors=phasors,
                           capture=None, source="analytic")


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
            truncation: int = 3, min_success_fraction: float = 0.95):
    """Turn a dataset into a kernel archive; returns (archive, report).

    ``plan``, when given, must equal ``dataset.plan``.  Kernels of orders
    1..``truncation`` are solved for.  Indices are solved independently, so
    one bad index degrades coverage instead of aborting; the report lists
    every failure.  Raises ExtractionError only if the resolved fraction of
    (triplet, index) systems falls below ``min_success_fraction``.
    """
    if plan is not None and plan != dataset.plan:
        raise ValueError("plan differs from the dataset's own plan")
    plan = dataset.plan
    if not 1 <= truncation <= plan.max_mixing_order:
        raise ValueError(
            f"truncation order {truncation} is outside 1.."
            f"{plan.max_mixing_order}, the plan's mixing order")
    widest = max(
        len(unknowns_at_index(k, truncation)) for k in dataset.indices)
    if len(plan.schedule) < widest:
        raise ValueError(
            f"schedule has {len(plan.schedule)} amplitude vectors but the "
            f"widest index system has {widest} unknowns; add rows or levels")
    lattice = tuple(int(round(f / plan.df_hz)) for f in plan.lattice_hz())
    grids = {n: KernelGrid(order=n, lattice_units=lattice, df_hz=plan.df_hz)
             for n in range(1, truncation + 1)}
    trips = np.array(plan.triplets(), dtype=float)
    report = ExtractionReport(n_indices=len(dataset.indices),
                              n_triplets=len(trips))
    # An index whose true phasor is zero holds only rounding noise, which
    # no model fits, so residuals are measured against at least 1e-5 of the
    # largest phasor: rounding (about 1e-15 of it) then stays in tolerance.
    finite = dataset.phasors[np.isfinite(dataset.phasors)]
    rhs_floor = max(1e-5 * np.abs(finite).max(initial=0.0), 1e-300)
    # per order: argument arrays and values in solve order, inserted at once
    samples = {n: ([], []) for n in grids}

    for k in dataset.indices:
        unknowns = unknowns_at_index(k, truncation)
        if not unknowns:
            continue
        block = dataset.phasors[:, :, dataset.index_position(k)]
        finite = np.isfinite(block)
        good = finite.all(axis=1)
        report.failures.extend(
            (int(t), k, f"missing phasor at amplitude {np.argmin(finite[t])}")
            for t in np.nonzero(~good)[0])
        good_ids = np.nonzero(good)[0]
        if not len(good_ids):
            continue
        a = _coefficients(unknowns, plan.schedule)
        b = block[good_ids].T  # (amps, triplets): one column per triplet
        x, rank, cond = _lstsq_scaled(a, b)
        if rank < len(unknowns):
            reason = (f"index {k}: rank {rank} < {len(unknowns)} unknowns "
                      f"(condition {cond:.3g})")
            report.failures.extend((int(t), k, reason) for t in good_ids)
            continue
        resid = np.linalg.norm(b - a @ x, axis=0)
        rhs_norm = np.maximum(np.linalg.norm(b, axis=0), rhs_floor)
        bad = resid > RESIDUAL_TOL * rhs_norm
        if bad.any():
            report.warnings.append(
                f"index {k}: residual above tolerance for "
                f"{int(bad.sum())}/{b.shape[1]} right-hand sides")
        report.max_relative_residual = max(report.max_relative_residual,
                                           float((resid / rhs_norm).max()))
        freqs = trips[good_ids]
        for term, vals in zip(unknowns, x):
            args, vals_list = samples[term.order]
            args.append(_argument_rows(term, freqs))
            vals_list.append(vals)

    for n, (args, vals) in samples.items():
        if args:
            grids[n].insert(np.concatenate(args), np.concatenate(vals))
        report.points_per_order[n] = grids[n].n_points
    if report.success_fraction < min_success_fraction:
        raise ExtractionError(
            f"only {report.success_fraction:.1%} of (triplet, index) systems "
            f"resolved; {len(report.failures)} failures")
    meta = {
        "plan_id": plan.plan_id,
        "source": dataset.source,
        "truncation": truncation,
        "n_triplets": len(trips),
    }
    return KernelArchive(grids=grids, metadata=meta), report
