"""The kernel-to-phasor map and its least-squares inversion.

At every canonical output index the phasor is a sum of kernel values, one
per contributing term, each weighted by a known amplitude monomial of the
schedule row.  ``analytic_dataset`` evaluates that map from closed-form
kernels.  ``extract`` inverts it, factoring each distinct coefficient matrix
once for every index that shares it, and scatters the solved kernel values
through their argument layouts into one grid per order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from volkit.kernels import KernelArchive, KernelGrid
from volkit.mixing import (
    FrequencyIndex,
    enumerate_output_indices,
    unknowns_at_index,
)
from volkit.probing import SpectralDataset
from volkit.sweeps import SweepPlan

RESIDUAL_TOL = 1e-8   # relative residual above which a solve is flagged


class ExtractionError(RuntimeError):
    """Too few kernel points could be resolved."""


def _phasor_map(plan: SweepPlan, indices, truncation: int):
    """Per index: its unknown terms (by order, r), their (amplitudes, terms)
    coefficient matrix and each term's (triplets, order) signed arguments.
    A term's coefficient at real tone amplitudes Vm is
    prod_m (Vm/2)^(|km|+2 rm) / ((|km|+rm)! rm!).  Powers are taken per
    (row, tone, exponent) as Python floats (numpy's vectorised power can
    be an ulp off) and divided in tone by tone, so each coefficient is bit
    for bit that product taken tone by tone in scalar arithmetic."""
    terms = [unknowns_at_index(k, truncation) for k in indices]
    k_r = np.array([t.k + t.r for ts in terms for t in ts], int).reshape(
        -1, 2, plan.m_tones)
    powers = np.array([[[(0.5 * v) ** e for e in range(truncation + 1)]
                        for v in amps] for amps in plan.schedule])
    fact = np.array([math.factorial(i) for i in range(truncation + 1)], float)
    coeffs = np.ones((len(plan.schedule), len(k_r)))
    for m, (k, r) in enumerate(zip(np.abs(k_r[:, 0].T), k_r[:, 1].T)):
        coeffs = coeffs * powers[:, m, k + 2 * r] / (fact[k + r] * fact[r])
    trips = np.array(plan.triplets(), dtype=float)
    tones = [[np.array(t.argument_tones()) for t in ts] for ts in terms]
    ends = np.cumsum([len(ts) for ts in terms])[:-1]
    return terms, np.split(coeffs, ends, axis=1), [
        [np.sign(t) * trips[:, np.abs(t) - 1] for t in ts] for ts in tones]


def _scaled_pinv(a: np.ndarray):
    """Pseudo-inverse of ``a`` from one SVD of its unit-norm columns, with
    their rank and condition.  The solve runs in complex, as a direct solve
    on the complex phasors does, so rank and condition match that solve's."""
    scales = np.linalg.norm(a, axis=0)
    scales[scales == 0.0] = 1.0
    pinv, _, rank, sv = np.linalg.lstsq(
        a / scales, np.eye(len(a), dtype=complex), rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    return pinv.real / scales[:, None], int(rank), cond


def _norms(blocks: np.ndarray) -> np.ndarray:
    """Column 2-norms of real-viewed (blocks, amplitudes, 2 triplets)."""
    squares = np.einsum("kat,kat->kt", blocks, blocks)
    return np.sqrt(squares[:, 0::2] + squares[:, 1::2])


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
    phasors = np.zeros((plan.n_triplets, len(plan.schedule), len(indices)),
                       dtype=complex)
    terms, coeffs, rows = _phasor_map(plan, indices, truncation)
    for ki, index_terms in enumerate(terms):
        for term, column, args in zip(index_terms, coeffs[ki].T, rows[ki]):
            values = np.array([kernel_fn(tuple(row), term.order)
                               for row in args.tolist()], dtype=complex)
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
    (triplet, index) systems falls below ``min_success_fraction`` (in [0, 1]).
    """
    if not 0.0 <= min_success_fraction <= 1.0:
        raise ValueError("min_success_fraction must lie in [0, 1]")
    if plan is not None and plan != dataset.plan:
        raise ValueError("plan differs from the dataset's own plan")
    plan = dataset.plan
    if not 1 <= truncation <= plan.max_mixing_order:
        raise ValueError(
            f"truncation order {truncation} is outside 1.."
            f"{plan.max_mixing_order}, the plan's mixing order")
    if not dataset.indices:
        raise ValueError("dataset has no output indices to extract from")
    terms, coeffs, rows = _phasor_map(plan, dataset.indices, truncation)
    widest = max(map(len, terms))
    if len(plan.schedule) < widest:
        raise ValueError(
            f"schedule has {len(plan.schedule)} amplitude vectors but the "
            f"widest index system has {widest} unknowns; add rows or levels")
    lattice = tuple(int(round(f / plan.df_hz)) for f in plan.lattice_hz())
    grids = {n: KernelGrid(order=n, lattice_units=lattice, df_hz=plan.df_hz)
             for n in range(1, truncation + 1)}
    report = ExtractionReport(n_indices=len(dataset.indices),
                              n_triplets=plan.n_triplets)
    # (index, amplitude, triplet): each index's right-hand sides are the
    # columns of one contiguous block
    phasors = dataset.phasors.transpose(2, 1, 0).copy()
    finite = np.isfinite(phasors)
    good = finite.all(axis=1)
    if not good.all():
        phasors[~finite] = 0.0   # a missing entry drops out of its index only
    # An index whose true phasor is zero holds only rounding noise, which
    # no model fits, so residuals are measured against at least 1e-5 of the
    # largest phasor: rounding (about 1e-15 of it) then stays in tolerance.
    rhs_floor = max(1e-5 * np.abs(phasors).max(initial=0.0), 1e-300)
    blocks = phasors.view(float)  # real products act on both parts at once
    rhs_norm = np.maximum(_norms(blocks), rhs_floor)
    resid = np.zeros(good.shape)  # zero where nothing is solved
    groups: dict[bytes, list[int]] = {}  # indices by coefficient matrix
    for pos, a in enumerate(coeffs):
        if a.shape[1]:
            groups.setdefault(a.tobytes(), []).append(pos)
    solutions, rank_failures = {}, {}
    for group in groups.values():
        a = coeffs[group[0]]
        solve, rank, cond = _scaled_pinv(a)
        if rank < a.shape[1]:
            why = f"rank {rank} < {a.shape[1]} unknowns (condition {cond:.3g})"
            rank_failures.update(
                (pos, f"index {dataset.indices[pos]}: {why}") for pos in group)
            continue
        b = blocks[group]
        r = (np.eye(len(a)) - a @ solve) @ b
        resid[group] = _norms(r)
        # one step of iterative refinement takes most of the pseudo-
        # inverse's rounding back out of the solutions
        solutions.update(zip(group, (solve @ b + solve @ r).view(complex)))
    del phasors, blocks  # free the copy before the grids grow
    report.max_relative_residual = float(
        np.where(good, resid / rhs_norm, 0.0).max(initial=0.0))
    bad = good & (resid > RESIDUAL_TOL * rhs_norm)

    samples = {n: ([], []) for n in grids}
    for pos, (k, ok) in enumerate(zip(dataset.indices, good)):
        if not terms[pos]:
            continue
        report.failures.extend((int(t), k, "missing phasor at amplitude "
                                f"{np.argmin(finite[pos, :, t])}")
                               for t in np.nonzero(~ok)[0])
        if pos in rank_failures:
            report.failures.extend((int(t), k, rank_failures[pos])
                                   for t in np.nonzero(ok)[0])
            continue
        if bad[pos].any():
            report.warnings.append(
                f"index {k}: residual above tolerance for "
                f"{bad[pos].sum()}/{ok.sum()} right-hand sides")
        keep = slice(None) if ok.all() else ok
        for term, args, vals in zip(terms[pos], rows[pos], solutions[pos]):
            samples[term.order][0].append(args[keep])
            samples[term.order][1].append(vals[keep])

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
        "n_triplets": plan.n_triplets,
    }
    return KernelArchive(grids=grids, metadata=meta), report
