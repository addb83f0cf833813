"""Canonical storage and interpolation of symmetric kernel samples.

A kernel value is stored once per symmetry class: argument tuples are
sorted, and sign-flipped (conjugated) when ``_mirror_side`` finds their
negation lexically larger, the one comparison every symmetry test asks.
Permuted queries so return the identical stored complex number and
sign-flipped ones its exact conjugate.  A self-conjugate point, whose
argument multiset is its own negation, such as (f, -f), holds a value and
its conjugate at once, so ``insert`` adds only the real part there and a
restored grid must hold a real sum there.  A grid holds sorted unique
canonical integer coordinates (P, order), complex128 sums (P,) and int64
counts (P,), all read-only; it keeps the coordinates' sorted keys too
(their flat indices in the signed-lattice cube), and ``insert`` rebuilds
both from the stored points followed by the new ones.

For synthesis the sparse canonical samples are frozen into a dense tensor
over the signed sweep lattice.  Probing never co-sweeps some coordinate
combinations (for example two different points of the same source comb),
which leaves structured holes.  Freezing fills them on the canonical wedge
only, one entry per symmetry class, pass by pass: a hole takes the mean of
the interpolants, linear in magnitude and in shortest-step phase, along
every axis whose line brackets it, and goes to all its images, so the
tensor is exactly symmetric.  Freezing records which entries are measured
versus filled; a grid keeps its frozen form until its next insert.
Off-lattice queries then interpolate multilinearly in (magnitude,
unwrapped phase), hold the band-edge sample for half a lattice step, and
return zero beyond that band, ``FrozenKernelGrid.in_band``.

One enumeration, ``_canonical_walk``, gives both the freeze wedge and
synthesis its bin tuples: the ascending rows of one symmetry class each,
grouped by their (order-1)-prefix, each prefix with the suffix of last
indices it keeps, in chunks of at most TUPLE_CHUNK rows.  Interpolation
goes by prefix lines: a row's value is a lerp along the leading axis
between two entries of its prefix's line, the (order-1)-linear blend of
the magnitude and phase tables over the trailing axes.  ``query`` forms
the two entries of each row's line; ``comb_walk`` forms each prefix's
line once per chunk, over only the leading-axis cells its rows reach (at
most 2 x TUPLE_CHUNK entries), so a row costs 2 gathers per table instead
of 2^order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

TUPLE_CHUNK = 16_384  # canonical rows per step of a walk over an index cube
MAX_DENSE_ENTRIES = 1 << 24  # most entries of a frozen grid's dense cube


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
        if not self.lattice_units or min(self.lattice_units) <= 0:
            raise ValueError("need one or more positive lattice frequencies")
        lattice = np.asarray(self.lattice_units, dtype=np.int64)
        self._signed = np.concatenate([-lattice[::-1], lattice])
        if self.coords is None:
            self.coords, self.sums, self.counts = np.zeros((0, self.order)), [], []
        self.coords = np.array(self.coords, dtype=np.int64)
        self.sums = np.array(self.sums, dtype=complex)
        self.counts = np.array(self.counts, dtype=np.int64)
        canon, self._stored, _, real = self._canonical(self.coords * self.df_hz)
        if not (np.array_equal(canon, self.coords)
                and (np.diff(self._stored) > 0).all()):
            raise ValueError("coordinates are not sorted unique canonical rows")
        n = len(canon)
        if (self.sums.shape, self.counts.shape) != ((n,), (n,)) \
                or (self.counts < 1).any() or not np.isfinite(self.sums).all():
            raise ValueError("need one finite sum and one count >= 1 per point")
        if (self.sums.imag[real] != 0).any():
            raise ValueError("a sum at a self-conjugate point is not real")
        self._seal()

    def _seal(self) -> None:
        """Make the stored arrays read-only and drop the frozen form, so a
        frozen grid always reflects the stored points."""
        for arr in (self.coords, self.sums, self.counts):
            arr.flags.writeable = False
        self._frozen = None

    # -- coordinate handling -------------------------------------------------

    def _canonical(self, args_hz):
        """Canonical integer coordinates (Q, order), their keys (Q,), the
        conjugate flags (Q,) and the self-conjugate flags (Q,) of one tuple
        or a (Q, order) array.

        A key is the row's flat index in the signed-lattice cube, so keys
        sort as the rows do; ValueError if int64 cannot index the cube.
        Rows are canonicalised as lattice positions ``2*i - (L-1)``: the
        map is odd and increasing, so the positions sort and mirror as the
        frequencies do, and one search of the lattice both checks each
        argument and indexes it."""
        args = np.atleast_2d(np.asarray(args_hz, dtype=float))
        if args.ndim != 2 or args.shape[1] != self.order:
            raise ValueError(
                f"expected {self.order} arguments, got {args.shape[-1]}")
        u = args / self.df_hz
        off_df = ~(np.abs(u - np.rint(u)) <= 1e-6)
        units = np.where(off_df, 0, np.rint(u)).astype(np.int64)
        # searching all but the last point keeps every index in range;
        # column by column the arguments arrive mostly sorted, which the
        # search runs through about three times as fast as row by row
        at = np.searchsorted(self._signed[:-1], units.T).T
        bad = off_df | (self._signed[at] != units)
        if bad.any():
            row, axis = (int(i) for i in np.argwhere(bad)[0])
            f = float(args[row, axis])
            grid = "df grid" if off_df[row, axis] else "sweep lattice"
            raise OffLatticeError(
                axis, f, f"axis {axis}: {f} Hz is not on the {grid}")
        size = len(self._signed)
        canon, conj, real = canonical_rows(2 * at - (size - 1))
        at = (canon + (size - 1)) >> 1
        # an empty set of rows needs no key: an empty grid builds on any cube
        keys = (np.ravel_multi_index(at.T, (size,) * self.order) if len(at)
                else np.zeros(0, dtype=np.int64))
        return np.take(self._signed, at), keys, conj, real

    def insert(self, args_hz, value) -> None:
        """Add one argument tuple and value, or (Q, order) arguments and Q
        values.  Each point adds to the sum at its canonical coordinates,
        conjugated when the canonical form is the sign flip, and only its
        real part at a self-conjugate point, whose class holds the value
        and its conjugate."""
        canon, new_keys, conj, real = self._canonical(args_hz)
        values = np.asarray(value, dtype=complex).reshape(-1)
        if len(values) != len(canon):
            raise ValueError(f"{len(canon)} argument rows, {len(values)} values")
        values = np.where(conj, np.conj(values), values)
        values.imag[real] = 0.0
        # Rebuild from the stored keys, which are unique, then the new ones.
        # np.unique indexes each key's first occurrence, so a sum starts
        # from its stored value or a new point's first term, not from zero,
        # and every later term adds in insertion order: sums round exactly
        # as one-at-a-time inserts do, signed zeros included.
        keys = np.concatenate([self._stored, new_keys])
        self._stored, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True)
        later = np.ones(len(keys), dtype=bool)
        later[first] = False
        sums = np.concatenate([self.sums, values])
        self.coords = np.concatenate([self.coords, canon])[first]
        self.sums = sums[first]
        self.counts = np.concatenate(
            [self.counts, np.ones(len(canon), np.int64)])[first]
        pos = inverse[later]
        np.add.at(self.sums, pos, sums[later])
        np.add.at(self.counts, pos, 1)
        self._seal()

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
        _, want, conj, _ = self._canonical(args_hz)
        keys = self._stored
        at = np.searchsorted(keys, want)
        hit = np.searchsorted(keys, want, side="right") > at
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
        """The dense frozen grid, built once and kept until an insert.  A
        cube of more than MAX_DENSE_ENTRIES entries raises ValueError
        before anything is allocated."""
        if not self.n_points:
            raise EmptyGridError(f"order-{self.order} grid has no samples")
        entries = len(self._signed) ** self.order
        if entries > MAX_DENSE_ENTRIES:
            raise ValueError(
                f"order-{self.order} grid's dense cube of {entries} entries "
                f"is over MAX_DENSE_ENTRIES ({MAX_DENSE_ENTRIES})")
        if self._frozen is None:
            self._frozen = FrozenKernelGrid._build(self)
        return self._frozen


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
    flip, self_conj = _mirror_side(fwd, 0)
    return np.where(flip[:, None], -fwd[:, ::-1], fwd), flip, self_conj


def _mirror_side(desc: np.ndarray, top) -> tuple[np.ndarray, np.ndarray]:
    """For each descending row, whether its mirror ``top - row[::-1]``, the
    row of the negated arguments (``top`` 0 for values, the last index for
    indices), is lexically larger, and whether the two are equal.  Their
    difference is symmetric in j, so half the columns decide; entries are
    compared, not subtracted, so infinite and near-maximal floats decide
    exactly."""
    n = desc.shape[1]
    larger = np.zeros(len(desc), dtype=bool)
    tie = np.ones(len(desc), dtype=bool)
    for j in range((n + 1) // 2):
        mirror, own = top - desc[:, n - 1 - j], desc[:, j]
        larger |= tie & (mirror > own)
        tie &= mirror == own
    return larger, tie


def _ascending_rows(nb: int, order: int) -> np.ndarray:
    """Every ascending ``order``-row of indices below ``nb``, in lexical
    order: the combinations with replacement of ``range(nb)``.  The array
    is column-major, so the per-column arithmetic on it reads contiguous
    memory."""
    cols = np.zeros((0, 1), dtype=np.intp)  # the one empty row
    for _ in range(order):
        cols = _prepend_firsts(cols, np.arange(nb))
    return cols.T


def _prepend_firsts(cols: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """Each ascending index of ``firsts`` followed by every row of ``cols``
    that starts at or above it, in lexical order.  ``cols`` holds ascending
    rows in lexical order, column-major (one row per column), and so does
    the result."""
    # the rows with a first index of at least a form a suffix
    start = (np.searchsorted(cols[0], firsts) if len(cols)
             else np.zeros(len(firsts), dtype=np.intp))
    count = cols.shape[1] - start
    shift = np.cumsum(count) - count - start
    tail = np.arange(count.sum()) - np.repeat(shift, count)
    return np.vstack([np.repeat(firsts, count), np.take(cols, tail, axis=1)])


def _canonical_walk(size: int, order: int):
    """One row per symmetry class of the (size,)*order index cube of a
    signed lattice or comb, the rows ``canonical_rows`` keeps, reversed,
    grouped by prefix.

    Take an ascending row r_0 <= ... <= r_{n-1}, s = size - 1 and
    e_j = r_j + r_{n-1-j} - s.  The row's mirror ``s - row`` is the row of
    the negated points; the row is kept unless its first nonzero e_j is
    negative, and it is its own mirror iff every e_j is zero.  Only e_0
    involves the last index x, so for each ascending (order-1)-prefix the
    kept x form the suffix x >= max(r_{n-2}, s - r_0 + f), where f is 1 if
    the same test fails on the inner indices r_1..r_{n-2}; the suffix's
    first x is self-mirror iff it is s - r_0 and every inner e_j is 0.
    Order 1 has an empty prefix and keeps 2x >= s.

    Yields (prefixes (order-1, m), first x (m,), count (m,), self-mirror
    flag of each first x (m,)) in lexical row order, with at most
    TUPLE_CHUNK rows per chunk: a prefix's x range is split across chunks
    where needed."""
    s = size - 1
    pre = _ascending_rows(size, order - 1).T     # column-major prefixes
    if order == 1:
        first = np.full(pre.shape[1], -(-s // 2))
        tie = 2 * first == s
    else:
        fail, tie = _mirror_side(pre[:0:-1].T, s)
        first = np.maximum(pre[-1], s - pre[0] + fail)
        tie &= first == s - pre[0]
    count = s + 1 - first
    kept = count > 0
    pre, first, count, tie = pre[:, kept], first[kept], count[kept], tie[kept]
    end = np.cumsum(count)
    start = end - count
    for lo in range(0, int(end[-1]) if len(end) else 0, TUPLE_CHUNK):
        hi = lo + TUPLE_CHUNK
        a = int(np.searchsorted(end, lo, side="right"))
        b = int(np.searchsorted(start, hi))
        skip = np.maximum(lo - start[a:b], 0)
        yield (pre[:, a:b], first[a:b] + skip,
               np.minimum(end[a:b], hi) - start[a:b] - skip,
               tie[a:b] & (skip == 0))


def _expand(first, count):
    """The index of each row of pieces that run ``count`` rows from
    ``first``, pieces one after another."""
    start = np.cumsum(count) - count
    return np.arange(count.sum()) + np.repeat(first - start, count)


def _scatter_images(vals: np.ndarray, rows: np.ndarray,
                    values: np.ndarray) -> None:
    """Write ``values`` at the wedge ``rows`` of ``vals`` and at all their
    images: the conjugates at every permutation of the mirrored rows, then
    the values at every permutation of the rows.  A self-conjugate row is
    its own mirror, and its value is written real, as symmetry demands."""
    size, n = vals.shape[0], vals.ndim
    perms = list(itertools.permutations(range(n)))
    self_conj = _mirror_side(rows, size - 1)[1]
    values = np.where(self_conj, values.real, values)
    for image, value in ((size - 1 - rows, np.conj(values)), (rows, values)):
        vals[tuple(np.moveaxis(image[:, perms], -1, 0))] = value[:, None]


def _fill_pass(vals: np.ndarray, wedge: np.ndarray, axis_hz: np.ndarray,
               hold: bool) -> int:
    """One pass of hole filling over the wedge; returns the holes filled.

    Every hole of the wedge reads the pass-start tensor.  Each axis whose
    line brackets the hole between its nearest known entries a and b gives
    one lerp: linear in magnitude, and in phase by the shortest step from
    a to b.  With ``hold``, an axis whose line holds at least two known
    entries, all on one side of the hole, gives the nearest of them.  A
    hole takes the mean of what its axes give, and it goes to all its
    images, so the tensor stays exactly symmetric.
    """
    holes = wedge[np.isnan(vals[tuple(wedge.T)])]
    if not len(holes):
        return 0
    size, n = len(axis_hz), vals.ndim
    known = ~np.isnan(vals)
    # nearest known position at or before each entry along axis 0, -1 if
    # none.  The tensor is symmetric, so the line along axis j through a
    # hole reads as the line along axis 0 through the hole with j moved to
    # the front, and the nearest known position after a hole is the mirror
    # of the one before the mirrored hole.
    pos = np.arange(size, dtype=np.int32).reshape((size,) + (1,) * (n - 1))
    prev = np.maximum.accumulate(np.where(known, pos, -1), axis=0)
    if hold:
        on_line = known.sum(axis=0)
    total = np.zeros(len(holes), dtype=complex)
    count = np.zeros(len(holes))
    for j in range(n):
        line = (holes[:, j],) + tuple(np.delete(holes, j, axis=1).T)
        a = prev[line]
        b = size - 1 - prev[tuple(size - 1 - i for i in line)]
        inner = (a >= 0) & (b < size)
        # outside the known span both neighbours are the nearest end
        a = np.minimum(np.where(a >= 0, a, b), size - 1)
        b = np.where(b < size, b, a)
        va, vb = vals[(a,) + line[1:]], vals[(b,) + line[1:]]
        x, xa = axis_hz[line[0]], axis_hz[a]
        t = (x - xa) / np.where(inner, axis_hz[b] - xa, 1.0)
        ma, mb = np.abs(va), np.abs(vb)
        # the shortest phase step from a to b, angle(vb * conj(va)) up to
        # rounding, in real arithmetic that a per-entry loop reproduces
        pa = np.angle(va)
        step = np.angle(vb) - pa
        step -= 2 * np.pi * np.rint(step / (2 * np.pi))
        got = (ma + t * (mb - ma)) * np.exp(1j * (pa + t * step))
        use = inner
        if hold:
            got = np.where(inner, got, va)
            use = inner | (on_line[line[1:]] >= 2)
        np.add(total, got, out=total, where=use)
        count += use
    done = count > 0
    # each component divided by the count, as Python's complex / int does
    mean = total[done].view(float).reshape(-1, 2) / count[done, None]
    _scatter_images(vals, holes[done], mean.view(complex).reshape(-1))
    return int(done.sum())


def _unwrap(ph: np.ndarray, axis: int) -> None:
    """``np.unwrap(ph, axis=axis)`` in place, bit for bit.

    ``np.unwrap`` zeroes the correction of every step below pi in
    magnitude, so only the other steps (NaN included) are wrapped here.
    """
    p = np.moveaxis(ph, axis, 0)                      # a view of ph
    dd = np.diff(p, axis=0)
    jump = ~(np.abs(dd) < np.pi)
    step = dd[jump]
    wrapped = np.mod(step + np.pi, 2 * np.pi) - np.pi
    wrapped[(wrapped == -np.pi) & (step > 0)] = np.pi
    fix = np.zeros_like(dd)
    fix[jump] = wrapped - step
    p[1:] += fix.cumsum(axis=0)


class FrozenKernelGrid:
    """Dense symmetric tensor over the signed lattice, plus interpolation.

    Every entry equals its permuted images and the conjugate of its mirror
    image exactly; entries at self-conjugate arguments are real."""

    def __init__(self, axis_hz, values, known_mask):
        self.order = values.ndim
        self.axis_hz = axis_hz
        self.values = values
        self.known_mask = known_mask
        self.mag = np.abs(values)
        ph = np.angle(values)
        for ax in range(self.order):
            _unwrap(ph, ax)
        self.phase = ph
        self.band_edge_hz = axis_hz[-1]
        self.margin_hz = 0.5 * (axis_hz[-1] - axis_hz[-2])

    # -- construction ---------------------------------------------------------

    @classmethod
    def _build(cls, grid: KernelGrid) -> "FrozenKernelGrid":
        signed = grid._signed
        n, size = grid.order, len(signed)
        axis_hz = signed.astype(float) * grid.df_hz
        vals = np.full((size,) * n, np.nan + 0j, dtype=complex)
        _scatter_images(vals, np.searchsorted(signed, grid.coords),
                        grid._means())
        known = ~np.isnan(vals)
        # the wedge as descending rows, one per symmetry class
        parts = []
        for pre, first, count, _ in _canonical_walk(size, n):
            parts.append(np.vstack([np.repeat(pre, count, axis=1),
                                    _expand(first, count)]))
        wedge = np.concatenate(parts, axis=1)[::-1].T
        # interpolate while any hole is bracketed; hold flat only when none is
        while (_fill_pass(vals, wedge, axis_hz, hold=False)
               or _fill_pass(vals, wedge, axis_hz, hold=True)):
            pass
        still = np.isnan(vals)
        if still.any():
            raise EmptyGridError(
                f"order-{n} grid could not be completed: {still.sum()} holes "
                "remain (lattice coverage too sparse)")
        return cls(axis_hz, vals, known)

    # -- queries ----------------------------------------------------------------

    def query(self, args_hz) -> np.ndarray | complex:
        """Interpolated kernel values at arbitrary signed-frequency tuples.

        Accepts one tuple or an (Q, order) array.  Queries are canonicalized
        first, so permuted and sign-flipped queries are exactly consistent.
        A NaN argument raises ValueError; an infinite one is beyond the band.
        """
        arr = np.atleast_2d(np.asarray(args_hz, dtype=float))
        scalar = np.ndim(args_hz) == 1
        if arr.shape[1] != self.order:
            raise ValueError(f"queries must have {self.order} columns")
        if np.isnan(arr).any():
            raise ValueError("query arguments must not be NaN")
        canon, conj, self_conj = canonical_rows(arr)
        cell, w, inside = self._stencil(canon)
        rows = len(canon)
        # each row's line at its leading-axis cell and the next one up
        lines = self._lines(cell[:, 1:].T, w[:, 1:].T, np.full(rows, 2),
                            (cell[:, :1] + (0, 1)).ravel())
        out = self._lerp(lines, 2 * np.arange(rows), 1.0 - w[:, 0], w[:, 0])
        node = np.all((w == 0.0) | (w == 1.0), axis=1)
        strides = len(self.axis_hz) ** np.arange(self.order - 1, -1, -1)
        out = self._settle(out, node, (cell + (w == 1.0))[node] @ strides,
                           ~inside.all(axis=1), conj, self_conj)
        return complex(out[0]) if scalar else out

    def comb_walk(self, comb_hz):
        """Yields each ``_canonical_walk`` chunk (prefixes, first, count,
        self_mirror) of the comb's indices as (chunk, x, values): the
        chunk's rows are the ascending index rows (prefix, x), the prefix
        repeated ``count`` times, and ``values`` is bit for bit what
        ``query`` returns at their comb points.

        ``comb_hz`` is a strictly ascending comb that is its own negation,
        such as the bins of a Hermitian spectrum.  Each comb point's
        lattice cell and weight is computed once per call, and each
        prefix's line once per chunk, over only the leading-axis cells
        that its rows reach; each row is then one lerp along the line.
        """
        comb = np.asarray(comb_hz, dtype=float)
        if not (np.array_equal(comb[::-1], -comb)
                and (np.diff(comb) > 0).all()):
            raise ValueError("comb must be strictly ascending and symmetric")
        cell, w, inside = self._stencil(comb)
        u = 1.0 - w
        up = w == 1.0
        on_node = (w == 0.0) | up
        strides = len(self.axis_hz) ** np.arange(self.order - 1, -1, -1)
        # the leading-axis cells the comb reaches: point x's cell is
        # reach[pos[x]] and the next cell up reach[pos[x] + 1], so a piece
        # of k rows has a line of at most 2k entries
        reach = np.unique(np.concatenate([cell, cell + 1]))
        pos = np.searchsorted(reach, cell)
        none = np.zeros(0, dtype=np.intp)
        for chunk in _canonical_walk(len(comb), self.order):
            pre, first, count, tie = chunk
            x = _expand(first, count)
            desc = pre[::-1]  # the prefix's points on the trailing axes
            lo = pos[first]
            length = pos[first + count - 1] + 2 - lo
            lines = self._lines(cell[desc], w[desc], length,
                                reach[_expand(lo, length)])
            shift = np.cumsum(length) - length - lo
            vals = self._lerp(lines, pos[x] + np.repeat(shift, count),
                              u[x], w[x])
            start = np.cumsum(count) - count
            # only prefixes whose points all sit on lattice nodes can give
            # a row on a node, and a synthesis comb lies in band
            node = flat = outside = none
            sel = np.flatnonzero(on_node[desc].all(axis=0))
            if len(sel):
                at = _expand(start[sel], count[sel])
                hit = on_node[x[at]]
                node, lead = at[hit], x[at[hit]]
                trail = strides[1:] @ (cell[desc] + up[desc])
                flat = ((cell[lead] + up[lead]) * strides[0]
                        + np.repeat(trail[sel], count[sel])[hit])
            if not inside.all():
                outside = ~(np.repeat(inside[pre].all(axis=0), count)
                            & inside[x])
            yield chunk, x, self._settle(vals, node, flat, outside, none,
                                         start[tie])

    def _stencil(self, pts_hz: np.ndarray):
        """Lattice cell, weight in the cell and in-band flag per entry."""
        axis = self.axis_hz
        pts = np.clip(pts_hz, axis[0], axis[-1])
        cell = np.clip(np.searchsorted(axis, pts, side="right") - 1,
                       0, len(axis) - 2)
        x0 = axis[cell]
        w = (pts - x0) / (axis[cell + 1] - x0)
        return cell, w, self.in_band(pts_hz)

    def in_band(self, freqs_hz) -> np.ndarray:
        """Whether each frequency is within half a step of the band edge."""
        return np.abs(freqs_hz) <= self.band_edge_hz + self.margin_hz

    def _lines(self, cell, w, length, lead):
        """Lines of the magnitude and phase tables, ``length[r]`` entries
        for row r, one after another: each entry blends each table
        (order-1)-linearly over the trailing axes of its row, at the
        leading-axis lattice cell ``lead`` gives.  ``cell`` and ``w`` are
        the rows' lattice cells and weights on the trailing axes,
        (order-1, R).  Corners add in itertools.product order, each
        weighted by a left-to-right product over the axes."""
        size, n = len(self.axis_hz), self.order
        strides = size ** np.arange(n - 2, -1, -1)
        base = lead * size ** (n - 1) + np.repeat(strides @ cell, length)
        heads = [np.ones(cell.shape[1])]
        for wj in w:
            heads = [h * f for h in heads for f in (1.0 - wj, wj)]
        mag, phase = self.mag.ravel(), self.phase.ravel()
        line_mag = line_ph = None
        for head, corner in zip(heads, itertools.product((0, 1),
                                                         repeat=n - 1)):
            flat = base + int(np.dot(corner, strides))
            weight = np.repeat(head, length)
            if line_mag is None:
                line_mag, line_ph = weight * mag[flat], weight * phase[flat]
            else:
                line_mag += weight * mag[flat]
                line_ph += weight * phase[flat]
        return line_mag, line_ph

    @staticmethod
    def _lerp(lines, pos, u, w) -> np.ndarray:
        """Values lerped along the leading axis between line entries
        ``pos`` and ``pos + 1`` with weights ``u`` = 1 - ``w`` and ``w``,
        in magnitude and in unwrapped phase."""
        line_mag, line_ph = lines
        nxt = pos + 1
        mag = u * line_mag[pos] + w * line_mag[nxt]
        ph = u * line_ph[pos] + w * line_ph[nxt]
        return mag * np.exp(1j * ph)

    def _settle(self, vals, node, flat, outside, conj, self_conj):
        """``vals`` with the stored values at exact lattice nodes (the
        ``node`` rows, at flat indices ``flat``), zero for rows
        ``outside`` the band, conjugated where ``conj`` and kept real where
        ``self_conj``."""
        # exact lattice hits return the stored complex value bit-for-bit
        vals[node] = self.values.ravel()[flat]
        vals[outside] = 0.0
        vals[conj] = np.conj(vals[conj])
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

    def __post_init__(self) -> None:
        orders = sorted(self.grids)
        if orders and orders != list(range(1, orders[-1] + 1)):
            raise ValueError("grid orders must be contiguous from 1")

    def grid(self, order: int) -> KernelGrid:
        return self.grids[order]

    def frozen(self, order: int) -> FrozenKernelGrid:
        return self.grids[order].freeze()
