"""Enumeration of multi-tone mixing products.

An output frequency of an M-tone excitation is named by an integer vector
``k = (k1, ..., kM)`` meaning ``k1*w1 + ... + kM*wM``.  A symmetric kernel
term landing on that frequency is described by a :class:`MixTerm`: the pair
``(k, r)`` where ``r`` counts, per tone, how many conjugate (plus/minus)
argument pairs the kernel carries on top of the net mixing vector.  The
kernel order is ``n = sum(|km|) + 2*sum(rm)``.  Index vectors are
canonical when their first nonzero entry is positive; kernel argument
tuples are canonicalized by :func:`volkit.kernels.canonical_rows`.

All functions here are pure and operate on plain tuples of ints, so they
are safe for concurrent use and cheap to hash.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

FrequencyIndex = tuple[int, ...]


def is_canonical(k: FrequencyIndex) -> bool:
    """True if the first nonzero entry of ``k`` is positive (or k is all zero)."""
    for v in k:
        if v > 0:
            return True
        if v < 0:
            return False
    return True


def enumerate_output_indices(
    m_tones: int, max_order: int, include_dc: bool = False
) -> list[FrequencyIndex]:
    """All canonical mixing vectors with ``1 <= sum|km| <= max_order``.

    One representative per +/- pair, ordered by (total mixing order,
    lexicographic) so serialized index lists are stable.  ``include_dc``
    prepends the all-zero vector, which even-order kernels feed.  Built
    order by order from the signed splits of each total, so the work
    grows with the output, not with the (2*max_order+1)**m_tones cube.
    """
    if m_tones < 1 or max_order < 1:
        raise ValueError("need m_tones >= 1 and max_order >= 1")
    out: list[FrequencyIndex] = [(0,) * m_tones] if include_dc else []
    for total in range(1, max_order + 1):
        out.extend(sorted(
            k for split in _compositions(total, m_tones)
            for k in itertools.product(*((v, -v) if v else (0,) for v in split))
            if is_canonical(k)))
    return out


@dataclass(frozen=True)
class MixTerm:
    """One collected symmetric-kernel term at mixing vector ``k``.

    ``r[m]`` extra conjugate pairs of tone m ride along without shifting the
    output frequency.  The described kernel has ``|km| + rm`` arguments at
    ``sign(km)*wm`` and ``rm`` at ``-sign(km)*wm`` (positive sign when
    km == 0).
    """

    k: FrequencyIndex
    r: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.k) != len(self.r):
            raise ValueError("k and r must have equal length")
        if any(v < 0 for v in self.r):
            raise ValueError("r entries must be nonnegative")

    @property
    def order(self) -> int:
        return sum(abs(v) for v in self.k) + 2 * sum(self.r)

    def argument_tones(self) -> tuple[int, ...]:
        """Kernel arguments as signed 1-based tone ids, in layout order."""
        args: list[int] = []
        for m, (km, rm) in enumerate(zip(self.k, self.r), start=1):
            s = 1 if km >= 0 else -1
            args.extend([s * m] * (abs(km) + rm))
            args.extend([-s * m] * rm)
        return tuple(args)


def term_multiplicity(term: MixTerm) -> int:
    """Number of identical symmetric-kernel summands the term collects.

    Equals ``n! / prod((|km|+rm)! * rm!)``, the count of distinct argument
    orderings of the underlying kernel.
    """
    mult = math.factorial(term.order)
    for km, rm in zip(term.k, term.r):
        mult //= math.factorial(abs(km) + rm) * math.factorial(rm)
    return mult


def terms_at_index(k: FrequencyIndex, order: int) -> list[MixTerm]:
    """All MixTerms of exactly ``order`` landing on index ``k``, r ascending."""
    residual = order - sum(abs(v) for v in k)
    if residual < 0 or residual % 2:
        return []
    return [MixTerm(k=tuple(k), r=r)
            for r in sorted(_compositions(residual // 2, len(k)))]


def unknowns_at_index(k: Sequence[int], truncation: int) -> list[MixTerm]:
    """Kernel terms feeding index ``k`` up to the truncation order, by
    (order, r)."""
    k = tuple(k)
    lo = sum(abs(v) for v in k)
    if lo == 0:
        lo = 2  # DC starts at the first even order; there is no order-0 term
    out: list[MixTerm] = []
    for n in range(lo, truncation + 1):
        out.extend(terms_at_index(k, n))
    return out


def enumerate_kernels_for_order(
    m_tones: int, max_order: int, order: int, include_dc: bool = False
) -> dict[FrequencyIndex, list[MixTerm]]:
    """Map each canonical index to its order-``order`` kernel terms.

    Indices that no order-``order`` kernel reaches are omitted, so the
    value lists are always nonempty.
    """
    if not 1 <= order <= max_order:
        raise ValueError("order must lie in 1..max_order")
    table: dict[FrequencyIndex, list[MixTerm]] = {}
    for k in enumerate_output_indices(m_tones, max_order, include_dc=include_dc):
        terms = terms_at_index(k, order)
        if terms:
            table[k] = terms
    return table


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    return [tuple(picks.count(p) for p in range(parts)) for picks in
            itertools.combinations_with_replacement(range(parts), total)]
