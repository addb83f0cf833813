"""Executable nonlinear reference systems with exactly known kernels.

Two systems ship:

* :class:`MultiplierCascade` -- three identical LC low-pass blocks whose
  outputs a, b, c combine memorylessly as ``y = a + a*b + a*b*c`` (an
  ideally buffered chain of two analog multipliers).  Nonlinearity stops
  exactly at order three, and every kernel is a closed-form product of the
  block transfer, which makes the system a ground-truth oracle for the
  extraction pipeline.

* :class:`SaturatingAmplifier` -- a Wiener-Hammerstein chain (filter, odd
  tanh limiter, filter).  All even-order kernels vanish; odd orders exist
  at every order, so truncation bias is real and measurable.

Both expose ``state_dim``, ``deriv(x, u)`` and ``output(x, u)``, vectorized
over a trailing batch axis, for ``transient``'s RK4 integrator.  The
cascade's state equation is linear, which it declares as ``linear_state``,
and its output is a polynomial of the input, whose degree it declares as
``polynomial_degree``; the probe sizes its record by that degree.
Being LTI blocks around a static nonlinearity, both also declare that
structure for the probe's periodic steady state: ``input_blocks`` each
filter the input, ``static(outs)`` maps their sampled outputs (runs, n)
to the nonlinearity's samples, and ``output_block`` (or None) filters
the result.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from volkit.kernels import canonical_rows

TANH_SERIES = {1: 1.0, 3: -1.0 / 3.0, 5: 2.0 / 15.0, 7: -17.0 / 315.0,
               9: 62.0 / 2835.0}


def _block_diag(mats) -> np.ndarray:
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim))
    at = 0
    for m in mats:
        n = m.shape[0]
        out[at:at + n, at:at + n] = m
        at += n
    return out


@dataclass(frozen=True)
class LinearBlock:
    """State-space LTI block ``dx = A x + b u``, ``y = c x + d u``."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float = 0.0

    def __post_init__(self) -> None:
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(-1))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float).reshape(-1))
        if a.shape[0] != a.shape[1]:
            raise ValueError("A must be square")
        if self.b.shape[0] != a.shape[0] or self.c.shape[0] != a.shape[0]:
            raise ValueError("b and c must match the state dimension")
        eig = np.linalg.eigvals(a)
        if eig.real.max() >= 0:
            raise ValueError("block must be strictly stable")

    @property
    def order(self) -> int:
        return self.a.shape[0]

    def transfer(self, omega_rad) -> np.ndarray:
        """Frequency response ``c (jwI - A)^-1 b + d`` at rad/s points."""
        w = np.atleast_1d(np.asarray(omega_rad, dtype=float))
        n = self.order
        lhs = (1j * w)[:, None, None] * np.eye(n) - self.a
        sol = np.linalg.solve(lhs, np.broadcast_to(self.b, (len(w), n))[..., None])
        out = (self.c[None, :] @ sol)[:, 0, 0] + self.d
        return out if np.ndim(omega_rad) else complex(out[0])

    def transfer_hz(self, f_hz) -> np.ndarray:
        return self.transfer(2.0 * np.pi * np.asarray(f_hz, dtype=float))

    def output(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.c @ x + self.d * u


def lowpass_ladder(
    l_henry: float = 42.52e-9,
    c_farad: float = 8.5e-12,
    r_ohm: float = 50.0,
) -> LinearBlock:
    """Doubly terminated C-L-C ladder, forward-gain (S21) normalized.

    Shunt C at each end of a series L between equal terminations.  With the
    default elements this is a third-order Butterworth with 374.5 MHz
    cutoff and unit passband gain (output taken as 2x the load voltage).
    """
    a = np.array([
        [-1.0 / (r_ohm * c_farad), -1.0 / c_farad, 0.0],
        [1.0 / l_henry, 0.0, -1.0 / l_henry],
        [0.0, 1.0 / c_farad, -1.0 / (r_ohm * c_farad)],
    ])
    b = np.array([1.0 / (r_ohm * c_farad), 0.0, 0.0])
    c = np.array([0.0, 0.0, 2.0])
    return LinearBlock(a=a, b=b, c=c, d=0.0)


@dataclass(frozen=True)
class MultiplierCascade:
    """Third-order benchmark: y = a + a*b + a*b*c from three filtered copies.

    ``include_orders`` masks product terms; (1,) degrades the system to the
    plain linear block, handy for convention checks.
    """

    blocks: tuple[LinearBlock, LinearBlock, LinearBlock] = field(
        default_factory=lambda: (lowpass_ladder(),) * 3)
    include_orders: tuple[int, ...] = (1, 2, 3)

    saturation_limit_v = None
    linear_state = True  # deriv is linear in (x, u); transient uses that
    output_block = None

    @property
    def polynomial_degree(self) -> int:
        """Highest power of the input in y; the probe's record follows it."""
        return max(self.include_orders, default=0)

    def __post_init__(self) -> None:
        if any(n not in (1, 2, 3) for n in self.include_orders):
            raise ValueError("include_orders entries must be 1, 2, or 3")
        # stacked operators: one gemm per derivative/output evaluation
        object.__setattr__(self, "_a_full", _block_diag(
            [blk.a for blk in self.blocks]))
        object.__setattr__(self, "_b_full", np.concatenate(
            [blk.b for blk in self.blocks])[:, None])
        c_rows = np.zeros((3, self._a_full.shape[0]))
        at = 0
        for i, blk in enumerate(self.blocks):
            c_rows[i, at:at + blk.order] = blk.c
            at += blk.order
        object.__setattr__(self, "_c_rows", c_rows)
        object.__setattr__(self, "_d_col",
                           np.array([blk.d for blk in self.blocks])[:, None])

    @property
    def state_dim(self) -> int:
        return sum(blk.order for blk in self.blocks)

    def deriv(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = self._a_full @ x
        out += self._b_full * u
        return out

    def output(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        abc = self._c_rows @ x
        abc += self._d_col * u
        return self._combine(*abc)

    @property
    def input_blocks(self) -> tuple[LinearBlock, ...]:
        """The blocks that filter the input, in ``static``'s order."""
        return self.blocks

    def static(self, outs) -> np.ndarray:
        """The memoryless combination of the three block outputs."""
        return self._combine(*outs)

    def _combine(self, a, b, c):
        """``a + a*b + a*b*c`` of the block outputs, per include_orders."""
        y = np.zeros_like(a)
        if 1 in self.include_orders:
            y = y + a
        if 2 in self.include_orders:
            y = y + a * b
        if 3 in self.include_orders:
            y = y + a * b * c
        return y


@dataclass(frozen=True)
class SaturatingAmplifier:
    """Wiener-Hammerstein surrogate: filter -> soft limiter -> filter.

    The limiter is ``w = vsat * tanh(gain * v / vsat)``, odd by
    construction.  ``vsat`` is the input-referred saturation scale; probe
    schedules must stay below it.
    """

    in_block: LinearBlock = field(default_factory=lowpass_ladder)
    out_block: LinearBlock = field(default_factory=lowpass_ladder)
    vsat: float = 0.07
    gain: float = 0.25

    def __post_init__(self) -> None:
        object.__setattr__(self, "_a_full", _block_diag(
            [self.in_block.a, self.out_block.a]))

    @property
    def saturation_limit_v(self) -> float:
        return self.vsat

    @property
    def state_dim(self) -> int:
        return self.in_block.order + self.out_block.order

    @property
    def input_blocks(self) -> tuple[LinearBlock]:
        return (self.in_block,)

    @property
    def output_block(self) -> LinearBlock:
        return self.out_block

    def static(self, outs) -> np.ndarray:
        """The limiter on the input block's output, overwriting it."""
        return self._limiter(outs[0])

    def _limiter(self, v: np.ndarray) -> np.ndarray:
        """``vsat * tanh(gain * v / vsat)``, computed in place in ``v``
        (a float array; a scalar is limited in a 0-d copy)."""
        v = np.asarray(v)
        v *= self.gain
        v /= self.vsat
        np.tanh(v, out=v)
        v *= self.vsat
        return v

    def deriv(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        n1 = self.in_block.order
        v = self.in_block.output(x[:n1], u)
        w = self._limiter(v)
        out = self._a_full @ x
        out[:n1] += self.in_block.b[:, None] * u
        out[n1:] += self.out_block.b[:, None] * w
        return out

    def output(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        n1 = self.in_block.order
        v = self.in_block.output(x[:n1], u)
        return self.out_block.output(x[n1:], self._limiter(v))

    def series_coefficient(self, order: int) -> float:
        """Taylor coefficient a_n of the limiter, w = sum a_n v^n."""
        if order % 2 == 0:
            return 0.0
        if order not in TANH_SERIES:
            raise ValueError(f"series coefficient beyond order {max(TANH_SERIES)}")
        return TANH_SERIES[order] * self.gain**order / self.vsat ** (order - 1)


def kernel_oracle(sys, freqs_hz, order: int) -> complex | np.ndarray:
    """Closed-form symmetric kernel of a reference system at signed Hz args.

    ``freqs_hz`` is one argument tuple, giving a complex, or (Q, order)
    rows, giving Q values.  Normalized to the series convention where the
    order-n response carries a 1/n! prefactor, so a static ``y = u^n`` term
    has the constant kernel ``n!``.
    """
    args = np.asarray(freqs_hz, dtype=float)
    single = args.ndim < 2
    rows = args.reshape(1, -1) if single else args
    if rows.ndim != 2 or rows.shape[1] != order:
        raise ValueError("argument count must equal the kernel order")
    # evaluate on the canonical representative so permutation symmetry and
    # conjugate symmetry hold bitwise, not just to rounding
    canon, conj, _ = canonical_rows(rows)
    vals = _closed_form_kernel(sys, 2.0 * np.pi * canon, order)
    np.conjugate(vals, out=vals, where=conj)
    return complex(vals[0]) if single else vals


def _transfers(blocks, w: np.ndarray) -> list[np.ndarray]:
    """Each block's transfer at every entry of ``w``, solved once per
    distinct frequency."""
    uniq, inverse = np.unique(w, return_inverse=True)
    inverse = inverse.reshape(w.shape)
    return [blk.transfer(uniq)[inverse] for blk in blocks]


def _mul(a, b) -> np.ndarray:
    """Complex product rounded as Python's ``complex * complex``, so that
    every row equals the one-point closed form bit for bit.  numpy's own
    complex loops may fuse multiply-adds, and whether they do depends on
    the operands' length and strides."""
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _closed_form_kernel(sys, w: np.ndarray, order: int) -> np.ndarray:
    """The oracle's kernel at (Q, order) canonical rad/s rows ``w``."""
    if isinstance(sys, MultiplierCascade):
        if order > 3 or order not in sys.include_orders:
            return np.zeros(len(w), dtype=complex)
        # (Q, order!) terms: block i's transfer at the argument each
        # permutation gives it, multiplied over the blocks, then summed
        perms = np.array(list(itertools.permutations(range(order))))
        hs = _transfers(sys.blocks[:order], w)
        terms = functools.reduce(
            _mul, (h[:, perms[:, i]] for i, h in enumerate(hs)))
        return functools.reduce(np.add, terms.T)
    if isinstance(sys, SaturatingAmplifier):
        if order % 2 == 0:
            return np.zeros(len(w), dtype=complex)
        a_n = sys.series_coefficient(order)
        (l1,) = _transfers([sys.in_block], w)
        (l2,) = _transfers([sys.out_block], w.sum(axis=1))
        return _mul(_mul(math.factorial(order) * a_n,
                         functools.reduce(_mul, l1.T)), l2)
    raise TypeError(f"no kernel oracle for {type(sys).__name__}")
