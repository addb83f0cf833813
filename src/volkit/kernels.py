"""Canonical storage and interpolation of symmetric kernel samples.

A kernel value is stored once per symmetry class: argument tuples are
canonicalized under permutation (sort) and global sign flip (conjugate),
so permutation queries return the identical stored complex number and
sign-flipped queries return its exact conjugate.  A grid holds three
arrays, which extraction, the file format and freezing use directly:
sorted unique canonical integer coordinates (P, order), complex128 sums
(P,) and int64 counts (P,).

For synthesis the sparse canonical samples are frozen into a dense tensor
over the signed sweep lattice.  Probing never co-sweeps some coordinate
combinations (for example two different points of the same source comb),
which leaves structured holes; freezing fills them by per-axis line
interpolation, in magnitude and unwrapped phase, and records which entries
are measured versus filled.  Off-lattice queries then interpolate
multilinearly in (magnitude, unwrapped phase), hold the band-edge sample
for half a lattice step, and return zero beyond that.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


class OffLatticeError(ValueError):
    """An inserted argument does not sit on the grid's sweep lattice."""

    def __init__(self, axis: int, freq_hz: float, message: str):
        super().__init__(message)
        self.axis = axis
        self.freq_hz = freq_hz


class EmptyGridError(RuntimeError):
    """Interpolation requested from a grid with no samples."""


@dataclass(eq=False)
class KernelGrid:
    """Accumulating store of order-n kernel samples on a frequency lattice.

    ``lattice_units`` are the positive sweep frequencies and ``coords``
    the sample coordinates, both in integer multiples of ``df_hz``.
    Passing ``coords``, ``sums`` and ``counts`` restores a stored grid.
    Re-inserted canonical points average with the incumbent value.
    """

    order: int
    lattice_units: tuple[int, ...]
    df_hz: float
    coords: np.ndarray | None = field(default=None, repr=False)
    sums: np.ndarray | None = field(default=None, repr=False)
    counts: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.lattice_units = tuple(sorted(set(int(u) for u in self.lattice_units)))
        if any(u <= 0 for u in self.lattice_units):
            raise ValueError("lattice frequencies must be positive")
        lattice = np.asarray(self.lattice_units, dtype=np.int64)
        self._signed = np.concatenate([-lattice[::-1], lattice])
        if self.coords is None:
            self.coords, self.sums, self.counts = np.zeros((0, self.order)), [], []
        self.coords = np.array(self.coords, dtype=np.int64)
        self.sums = np.array(self.sums, dtype=complex)
        self.counts = np.array(self.counts, dtype=np.int64)
        canon = canonical_rows(
            self._to_units(self.coords * self.df_hz))[0]
        if not np.array_equal(np.unique(canon, axis=0), self.coords):
            raise ValueError("coordinates are not sorted unique canonical rows")
        n = len(canon)
        if (self.sums.shape, self.counts.shape) != ((n,), (n,)) \
                or (self.counts < 1).any() or not np.isfinite(self.sums).all():
            raise ValueError("need one finite sum and one count >= 1 per point")

    # -- coordinate handling -------------------------------------------------

    def _to_units(self, args_hz) -> np.ndarray:
        """(Q, order) integer coordinates of one tuple or a (Q, order) array."""
        args = np.atleast_2d(np.asarray(args_hz, dtype=float))
        if args.ndim != 2 or args.shape[1] != self.order:
            raise ValueError(
                f"expected {self.order} arguments, got {args.shape[-1]}")
        u = args / self.df_hz
        off_df = ~(np.abs(u - np.rint(u)) <= 1e-6)
        units = np.where(off_df, 0, np.rint(u)).astype(np.int64)
        bad = off_df | ~np.isin(units, self._signed)
        if bad.any():
            row, axis = (int(i) for i in np.argwhere(bad)[0])
            f = float(args[row, axis])
            grid = "df grid" if off_df[row, axis] else "sweep lattice"
            raise OffLatticeError(
                axis, f, f"axis {axis}: {f} Hz is not on the {grid}")
        return units

    def insert(self, args_hz, value) -> None:
        """Add one argument tuple and value, or (Q, order) arguments and Q
        values.  Each point adds to the sum at its canonical coordinates,
        conjugated when the canonical form is the sign flip."""
        canon, conj, _ = canonical_rows(self._to_units(args_hz))
        values = np.asarray(value, dtype=complex).reshape(-1)
        if len(values) != len(canon):
            raise ValueError(f"{len(canon)} argument rows, {len(values)} values")
        values = np.where(conj, np.conj(values), values)
        rows = np.concatenate([self.coords, canon])
        vals = np.concatenate([self.sums, values])
        cnts = np.concatenate([self.counts, np.ones(len(values), np.int64)])
        self.coords, first, inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True)
        # Start each sum from its first term, not from zero, and add the
        # rest in insertion order: sequential addition then rounds exactly
        # as one-at-a-time accumulation does, signed zeros included.
        later = np.ones(len(rows), dtype=bool)
        later[first] = False
        inverse = inverse.reshape(-1)[later]
        self.sums, self.counts = vals[first], cnts[first]
        np.add.at(self.sums, inverse, vals[later])
        np.add.at(self.counts, inverse, cnts[later])

    def _means(self, rows=slice(None)) -> np.ndarray:
        """Averaged values of all points or of ``rows``.  Each component is
        divided by its count, which rounds as Python's complex / int does;
        numpy's complex division would multiply by a rounded reciprocal."""
        parts = (self.sums[rows].view(float).reshape(-1, 2)
                 / self.counts[rows, None])
        return parts.view(complex).reshape(-1)

    def query_exact(self, args_hz):
        """Stored averaged values at one argument tuple or (Q, order) rows,
        conjugated where the canonical form is the sign flip.  An absent
        tuple gives None, an absent row of an array NaN."""
        canon, conj, _ = canonical_rows(self._to_units(args_hz))
        # one key per row over the signed lattice: sorted coords, sorted keys
        dims = (len(self._signed),) * self.order
        keys, want = (
            np.ravel_multi_index(np.searchsorted(self._signed, c).T, dims)
            for c in (self.coords, canon))
        at, hit = np.searchsorted(keys, want), np.isin(want, keys)
        out = np.full(len(want), complex(np.nan, np.nan))
        out[hit] = self._means(at[hit])
        np.conjugate(out, out=out, where=conj)
        if np.ndim(args_hz) == 1:
            return complex(out[0]) if hit[0] else None
        return out

    @property
    def n_points(self) -> int:
        return len(self.coords)

    def items(self):
        """(canonical args in Hz, averaged value) pairs, sorted by coords."""
        args = (self.coords * self.df_hz).tolist()
        return zip(map(tuple, args), self._means().tolist())

    def freeze(self) -> "FrozenKernelGrid":
        if not self.n_points:
            raise EmptyGridError(f"order-{self.order} grid has no samples")
        return FrozenKernelGrid._build(self)


def canonical_rows(
    args: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical form of each row of signed kernel arguments: the
    descending sort of whichever of the row and its negation is lexically
    larger.  Grids, queries and the closed-form oracles all go through it.

    Returns (canonical rows, conjugate flags, self-conjugate flags); a row
    is self-conjugate when its argument multiset equals its own negation,
    which forces the kernel value there to be real.
    """
    fwd = -np.sort(-args, axis=1)          # descending
    rev = -np.sort(args, axis=1)           # descending sort of negation
    pick_rev = np.zeros(len(args), dtype=bool)
    undecided = np.ones(len(args), dtype=bool)
    for j in range(args.shape[1]):
        gt = undecided & (rev[:, j] > fwd[:, j])
        lt = undecided & (rev[:, j] < fwd[:, j])
        pick_rev |= gt
        undecided &= ~(gt | lt)
    out = np.where(pick_rev[:, None], rev, fwd)
    return out, pick_rev, undecided


class FrozenKernelGrid:
    """Dense symmetric tensor over the signed lattice, plus interpolation."""

    def __init__(self, order, df_hz, axis_hz, values, known_mask):
        self.order = order
        self.df_hz = df_hz
        self.axis_hz = axis_hz
        self.values = values
        self.known_mask = known_mask
        self.mag = np.abs(values)
        ph = np.angle(values)
        for ax in range(order):
            ph = np.unwrap(ph, axis=ax)
        self.phase = ph
        step = axis_hz[-1] - axis_hz[-2] if len(axis_hz) > 1 else df_hz
        self.band_edge_hz = axis_hz[-1]
        self.margin_hz = 0.5 * step

    # -- construction ---------------------------------------------------------

    @classmethod
    def _build(cls, grid: KernelGrid) -> "FrozenKernelGrid":
        signed = grid._signed
        n, size = grid.order, len(signed)
        axis_hz = signed.astype(float) * grid.df_hz
        vals = np.full((size,) * n, np.nan + 0j, dtype=complex)
        idx, means = np.searchsorted(signed, grid.coords), grid._means()
        perms = list(itertools.permutations(range(n)))
        # conjugates to all sign-flip images, then means to all permutation
        # images, so that a self-conjugate sample keeps its mean
        for image, value in ((size - 1 - idx, np.conj(means)), (idx, means)):
            vals[tuple(np.moveaxis(image[:, perms], -1, 0))] = value[:, None]
        known = ~np.isnan(vals)
        cls._fill_holes(vals, axis_hz, n)
        still = np.isnan(vals)
        if still.any():
            raise EmptyGridError(
                f"order-{n} grid could not be completed: {still.sum()} holes "
                "remain (lattice coverage too sparse)")
        return cls(order=n, df_hz=grid.df_hz, axis_hz=axis_hz, values=vals,
                   known_mask=known)

    @staticmethod
    def _fill_holes(vals: np.ndarray, axis_hz: np.ndarray, n: int) -> None:
        """Iterative per-axis line interpolation of missing entries.

        Works in magnitude and per-line unwrapped phase so filled values
        respect the same smoothness assumptions as off-lattice queries.
        Only positions bracketed by known samples on their line are filled;
        a band-edge hole waits for an axis that brackets it rather than
        being flat-extrapolated while an interpolating axis exists.
        Anything still missing after convergence (possible only for very
        sparse coverage) falls back to extrapolating fills.
        """
        size = len(axis_hz)
        pos = np.arange(size)
        for extrapolate in (False, True):
            for _ in range(2 * n + 1):
                missing = np.isnan(vals).sum()
                if not missing:
                    break
                for ax in range(n):
                    lines = np.moveaxis(vals, ax, -1)  # a view of vals
                    known = ~np.isnan(lines)
                    # nearest known position at or before / at or after
                    prev = np.maximum.accumulate(np.where(known, pos, -1), -1)
                    nxt = np.minimum.accumulate(
                        np.where(known, pos, size)[..., ::-1], -1)[..., ::-1]
                    hole = ~known & (known.sum(-1, keepdims=True) >= 2)
                    if not extrapolate:
                        hole &= (prev >= 0) & (nxt < size)
                    if not hole.any():
                        continue
                    # neighbours a and b; outside the known span both are the
                    # nearest end, whose value the entry takes
                    a = np.minimum(np.where(prev >= 0, prev, nxt), size - 1)
                    b = np.where(nxt < size, nxt, a)
                    # each known phase is carried over the gap after it (the
                    # first also over the gap before it): a gap adds exactly
                    # zero when unwrapping the known phases
                    f = np.stack((np.abs(lines), np.unwrap(np.take_along_axis(
                        np.angle(lines), a, -1), axis=-1)))
                    fa, fb = (np.take_along_axis(f, i[None], -1) for i in (a, b))
                    xa, inner = axis_hz[a], a != b
                    span = np.where(inner, axis_hz[b] - xa, 1.0)
                    # np.interp's arithmetic between the known neighbours
                    mag, ph = np.where(
                        inner, (fb - fa) / span * (axis_hz - xa) + fa, fa)
                    lines[hole] = mag[hole] * np.exp(1j * ph[hole])
                if np.isnan(vals).sum() == missing:
                    break

    # -- queries ----------------------------------------------------------------

    def query(self, args_hz) -> np.ndarray | complex:
        """Interpolated kernel values at arbitrary signed-frequency tuples.

        Accepts one tuple or an (Q, order) array.  Queries are canonicalized
        first, so permuted and sign-flipped queries are exactly consistent.
        """
        arr = np.atleast_2d(np.asarray(args_hz, dtype=float))
        scalar = np.ndim(args_hz) == 1
        if arr.shape[1] != self.order:
            raise ValueError(f"queries must have {self.order} columns")
        canon, conj, self_conj = canonical_rows(arr)
        cell, w, inside = self._stencil(canon)
        out = self._interpolate(cell, w, inside.all(axis=1), conj, self_conj)
        return complex(out[0]) if scalar else out

    def query_comb(self, comb_hz, rows) -> np.ndarray:
        """Kernel values at the tuples ``comb_hz[rows]``, bit for bit what
        ``query`` returns for them.

        ``comb_hz`` is a strictly ascending comb that is its own negation
        (``comb_hz[nb-1-i] == -comb_hz[i]``), such as the bins of a
        Hermitian spectrum, and ``rows`` a (Q, order) array of ascending
        indices into it.  Each comb point's lattice cell and weight are
        computed once, and a row's canonical form is either the reversed
        row or its mirror ``nb-1-row``, chosen by a sign test.
        """
        comb = np.asarray(comb_hz, dtype=float)
        rows = np.asarray(rows, dtype=np.intp).reshape(-1, self.order)
        nb, n = len(comb), self.order
        if not (np.array_equal(comb[::-1], -comb)
                and (np.diff(comb) > 0).all()):
            raise ValueError("comb must be strictly ascending and symmetric")
        if len(rows) and not (0 <= rows[:, 0].min() and rows[:, -1].max() < nb
                              and (rows[:, 1:] >= rows[:, :-1]).all()):
            raise ValueError(f"rows must be ascending indices below {nb}")
        # The reversed row is the descending sort of the arguments and the
        # mirrored row that of their negation.  The canonical form is the
        # lexically larger one: the sign of the first nonzero entry of
        # mirror - reversed decides, and that difference is symmetric in j.
        pick_mirror = np.zeros(len(rows), dtype=bool)
        undecided = np.ones(len(rows), dtype=bool)
        for j in range((n + 1) // 2):
            d = (nb - 1 - rows[:, j]) - rows[:, n - 1 - j]
            pick_mirror |= undecided & (d > 0)
            undecided &= d == 0
        canon = np.empty_like(rows)
        for j in range(n):
            canon[:, j] = np.where(pick_mirror, nb - 1 - rows[:, j],
                                   rows[:, n - 1 - j])
        cell, w, inside = self._stencil(comb)
        # rows are ascending and the band is an interval about zero, so a
        # row lies inside when its first and last points do
        return self._interpolate(cell[canon], w[canon],
                                 inside[rows[:, 0]] & inside[rows[:, -1]],
                                 pick_mirror, undecided)

    def _stencil(self, pts_hz: np.ndarray):
        """Lattice cell, weight in the cell and in-band flag per entry."""
        axis = self.axis_hz
        pts = np.clip(pts_hz, axis[0], axis[-1])
        cell = np.clip(np.searchsorted(axis, pts, side="right") - 1,
                       0, len(axis) - 2)
        x0 = axis[cell]
        w = (pts - x0) / (axis[cell + 1] - x0)
        inside = np.abs(pts_hz) <= self.band_edge_hz + self.margin_hz
        return cell, w, inside

    def _interpolate(self, cell, w, inside, conj, self_conj) -> np.ndarray:
        """Kernel values at canonical points given as (Q, order) lattice
        cells and weights.

        Interpolates multilinearly in magnitude and unwrapped phase, returns
        the stored value at exact lattice nodes and zero for rows not
        ``inside`` the band, conjugates the ``conj`` rows and keeps only the
        real part of the ``self_conj`` rows.
        """
        strides = len(self.axis_hz) ** np.arange(self.order - 1, -1, -1)
        base = cell @ strides
        mag, phase = self.mag.ravel(), self.phase.ravel()
        # corner weights in itertools.product order, each a left-to-right
        # product over the axes, sharing the products over the leading axes
        factors = [(1.0 - w[:, j], w[:, j]) for j in range(self.order)]
        heads = [np.ones(len(cell))]
        for pair in factors[:-1]:
            heads = [h * f for h in heads for f in pair]
        mag_acc = np.zeros(len(cell))
        ph_acc = np.zeros(len(cell))
        for k, corner in enumerate(itertools.product((0, 1),
                                                     repeat=self.order)):
            weight = heads[k // 2] * factors[-1][corner[-1]]
            flat = base + np.dot(corner, strides)
            mag_acc += weight * mag[flat]
            ph_acc += weight * phase[flat]
        vals = mag_acc * np.exp(1j * ph_acc)
        # exact lattice hits return the stored complex value bit-for-bit
        on_node = np.all((w == 0.0) | (w == 1.0), axis=1)
        if on_node.any():
            node = base[on_node] + (w[on_node] == 1.0) @ strides
            vals[on_node] = self.values.ravel()[node]
        vals[~inside] = 0.0
        np.conjugate(vals, out=vals, where=conj)
        # a self-conjugate argument multiset forces a real kernel value;
        # project interpolation roundoff back onto that constraint
        vals[self_conj] = vals.real[self_conj] + 0.0
        return vals

    @property
    def fill_fraction(self) -> float:
        return float((~self.known_mask).mean())


@dataclass
class KernelArchive:
    """One grid per kernel order, plus provenance metadata."""

    grids: dict[int, KernelGrid]
    metadata: dict = field(default_factory=dict)
    _frozen: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        orders = sorted(self.grids)
        if orders and orders != list(range(1, orders[-1] + 1)):
            raise ValueError("grid orders must be contiguous from 1")

    def grid(self, order: int) -> KernelGrid:
        return self.grids[order]

    def frozen(self, order: int) -> FrozenKernelGrid:
        if order not in self._frozen:
            self._frozen[order] = self.grids[order].freeze()
        return self._frozen[order]
