"""Multi-tone sweep planning: axis grids, amplitude schedules, collision checks.

All tone frequencies are integer multiples of a base resolution ``df_hz``.
Collision checking is then exact integer arithmetic, and every mixing
product lands on an exact DFT bin of a record one resolution period long.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from volkit.mixing import enumerate_output_indices

Triplet = tuple[float, ...]

# Default sweep geometry: staggered starts so the per-axis 120 MHz combs
# interleave into an effective ~40 MHz kernel lattice.
DEFAULT_STARTS_HZ = (7e6, 41e6, 87e6)
DEFAULT_STEP_HZ = 120e6
DEFAULT_DF_HZ = 1e6
DEFAULT_POINTS_PER_AXIS = 18
Z0_OHM = 50.0  # reference impedance of the dBm power levels
CUBE_LIMIT = 10**6  # most index vectors a "cube" plan check enumerates


def dbm_to_volts(p_dbm: float) -> float:
    """Peak voltage of a sine dissipating ``p_dbm`` into ``Z0_OHM``."""
    return math.sqrt(2.0 * Z0_OHM * 10.0 ** ((p_dbm - 30.0) / 10.0))


def amplitude_schedule(
    levels_dbm: tuple[float, ...],
    m_tones: int = 3,
    n_extra: int = 4,
    seed: int = 1234,
) -> list[tuple[float, ...]]:
    """Amplitude vectors for least-squares separation.

    The cross product of the per-tone levels (in volts) plus ``n_extra``
    seeded log-uniform intermediate vectors.  Varying every tone's level
    independently is what makes same-frequency kernel columns separable.
    """
    if not levels_dbm:
        raise ValueError("need at least one power level")
    volts = sorted(dbm_to_volts(p) for p in levels_dbm)
    rows = [tuple(v) for v in itertools.product(volts, repeat=m_tones)]
    if n_extra > 0 and len(volts) > 1:
        rng = np.random.default_rng(seed)
        lo, hi = math.log(volts[0]), math.log(volts[-1])
        for _ in range(n_extra):
            rows.append(tuple(np.exp(rng.uniform(lo, hi, size=m_tones))))
    elif n_extra > 0:
        rng = np.random.default_rng(seed)
        for _ in range(n_extra):
            rows.append(tuple(volts[0] * rng.uniform(0.6, 0.95, size=m_tones)))
    return rows


@dataclass(frozen=True)
class SweepPlan:
    """A full probing campaign: axis grids, triplet coverage, amplitudes.

    ``coverage`` selects the triplet list built from the axis grids:
    "aligned" takes one triplet per axis row (i-th point of every axis),
    "cross" the full cross product, which is what fills the kernel grids
    densely enough for interpolation.
    """

    axes_hz: tuple[tuple[float, ...], ...]
    df_hz: float
    max_mixing_order: int
    schedule: tuple[tuple[float, ...], ...]
    coverage: str = "cross"
    plan_id: str = "sweep"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.df_hz) and self.df_hz > 0):
            raise ValueError(
                f"df_hz must be finite and positive, not {self.df_hz}")
        if self.max_mixing_order < 1:
            raise ValueError(f"max_mixing_order must be >= 1, not "
                             f"{self.max_mixing_order}")
        if not self.schedule:
            raise ValueError("schedule needs at least one amplitude vector")
        for i, ax in enumerate(self.axes_hz):
            if not len(ax):
                raise ValueError(f"axis {i} has no frequencies")
        if self.coverage not in ("aligned", "cross"):
            raise ValueError("coverage must be 'aligned' or 'cross'")
        if self.coverage == "aligned":
            npts = {len(a) for a in self.axes_hz}
            if len(npts) != 1:
                raise ValueError("aligned coverage needs equal axis lengths")
        for ax in self.axes_hz:
            for f in ax:
                if not (math.isfinite(f) and f > 0):
                    raise ValueError(
                        f"axis frequency {f} must be finite and positive")
                if abs(f / self.df_hz - round(f / self.df_hz)) > 1e-9:
                    raise ValueError(
                        f"axis frequency {f} is not a multiple of df={self.df_hz}")
        for row in self.schedule:
            if len(row) != self.m_tones:
                raise ValueError("schedule rows must have one amplitude per tone")
            if not all(math.isfinite(v) and v >= 0 for v in row):
                raise ValueError(
                    f"amplitudes {list(row)} must be finite and nonnegative")

    @property
    def m_tones(self) -> int:
        return len(self.axes_hz)

    def triplets(self) -> list[Triplet]:
        if self.coverage == "aligned":
            return [tuple(ax[i] for ax in self.axes_hz)
                    for i in range(len(self.axes_hz[0]))]
        return [tuple(t) for t in itertools.product(*self.axes_hz)]

    def triplet_units(self) -> np.ndarray:
        """(n_triplets, m_tones) int64 tone frequencies as exact multiples
        of df, in ``triplets()`` order."""
        return np.rint(np.array(self.triplets()) / self.df_hz).astype(np.int64)

    @property
    def n_triplets(self) -> int:
        if self.coverage == "aligned":
            return len(self.axes_hz[0])
        return int(np.prod([len(a) for a in self.axes_hz]))

    def lattice_hz(self) -> np.ndarray:
        """Union of all axis points, sorted ascending (the kernel lattice)."""
        return np.unique(np.concatenate([np.asarray(a) for a in self.axes_hz]))

    @property
    def max_product_hz(self) -> float:
        return self.max_mixing_order * max(max(a) for a in self.axes_hz)

    @property
    def max_amplitude_v(self) -> float:
        return max(max(row) for row in self.schedule)


@dataclass
class PlanReport:
    """Outcome of collision validation; empty collision list means ok."""

    ok: bool
    domain: str
    n_triplets_checked: int
    collisions: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = field(
        default_factory=list)

    def __str__(self) -> str:
        if self.ok:
            return (f"plan ok: {self.n_triplets_checked} triplets collision-free "
                    f"over the {self.domain} index domain")
        head = self.collisions[:5]
        lines = [f"plan INVALID over {self.domain} domain: "
                 f"{len(self.collisions)} colliding index pairs, e.g."]
        lines += [f"  triplet {t}: {k1} vs {k2}" for t, k1, k2 in head]
        return "\n".join(lines)


def validate_plan(plan: SweepPlan, domain: str = "cube") -> PlanReport:
    """Check that mixing sums identify their index vector, per triplet.

    Two different index vectors must never produce the same output
    frequency (a vector and its negation are conjugate twins and are by
    construction the only sign-related coincidence).  "cube" checks every
    component in {-M0..M0} and refuses a cube of more than CUBE_LIMIT
    vectors; "ball" restricts to total mixing order <= M0, which is exactly
    the set of products an order-limited capture records.
    """
    m, m0 = plan.m_tones, plan.max_mixing_order
    if domain == "cube":
        size = (2 * m0 + 1) ** m
        if size > CUBE_LIMIT:
            raise ValueError(
                f"the {m}-tone order-{m0} index cube holds {size} vectors, "
                f"more than the {CUBE_LIMIT} a cube check allows")
        ks = np.array(list(itertools.product(range(-m0, m0 + 1), repeat=m)),
                      dtype=np.int64)
    elif domain == "ball":
        half = np.array(enumerate_output_indices(m, m0, include_dc=True),
                        dtype=np.int64)
        ks = np.unique(np.concatenate([half, -half]), axis=0)
    else:
        raise ValueError("domain must be 'cube' or 'ball'")
    sums = plan.triplet_units() @ ks.T  # (n_triplets, n_indices)
    sorted_sums = np.sort(sums, axis=1)
    dup = (sorted_sums[:, 1:] == sorted_sums[:, :-1]).any(axis=1)
    collisions = []
    for t in np.nonzero(dup)[0]:
        # every pair of indices with equal sums collides, in index order
        _, run, counts = np.unique(sums[t], return_inverse=True,
                                   return_counts=True)
        for r in np.nonzero(counts > 1)[0]:
            group = [tuple(int(v) for v in k) for k in ks[run == r]]
            collisions.extend((int(t), a, b)
                              for a, b in itertools.combinations(group, 2))
    return PlanReport(
        ok=not collisions,
        domain=domain,
        n_triplets_checked=len(sums),
        collisions=collisions,
    )


def standard_sweep_plan(
    points_per_axis: int = DEFAULT_POINTS_PER_AXIS,
    levels_dbm: tuple[float, ...] = (5.0, 10.0),
    coverage: str = "cross",
    n_extra: int = 4,
    seed: int = 1234,
    amp_limit_v: float | None = None,
    plan_id: str | None = None,
) -> SweepPlan:
    """The stock three-tone plan: staggered 120 MHz combs from 7/41/87 MHz.

    18 points per axis spans 7 MHz to 2.127 GHz.  ``amp_limit_v`` asserts the
    whole schedule stays below a system's saturation bound at plan time.
    """
    axes = tuple(
        tuple(start + DEFAULT_STEP_HZ * i for i in range(points_per_axis))
        for start in DEFAULT_STARTS_HZ
    )
    schedule = amplitude_schedule(
        levels_dbm, m_tones=3, n_extra=n_extra, seed=seed)
    if amp_limit_v is not None:
        worst = max(max(row) for row in schedule)
        if worst >= amp_limit_v:
            raise ValueError(
                f"schedule peak {worst:.4g} V exceeds amplitude limit "
                f"{amp_limit_v:.4g} V")
    if plan_id is None:
        plan_id = f"std-{points_per_axis}pt-{coverage}"
    return SweepPlan(
        axes_hz=axes,
        df_hz=DEFAULT_DF_HZ,
        max_mixing_order=3,
        schedule=tuple(schedule),
        coverage=coverage,
        plan_id=plan_id,
    )

