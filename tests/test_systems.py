import itertools
import math

import numpy as np
import pytest

from volkit.kernels import canonical_rows
from volkit.systems import (
    LinearBlock,
    MultiplierCascade,
    SaturatingAmplifier,
    kernel_oracle,
    lowpass_ladder,
)


class TestLowpassLadder:
    def test_dc_gain_is_unity(self):
        blk = lowpass_ladder()
        assert blk.transfer(0.0) == pytest.approx(1.0)

    def test_rolloff_is_monotone_and_strong(self):
        blk = lowpass_ladder()
        f = np.linspace(10e6, 3e9, 120)
        mag = np.abs(blk.transfer(2 * np.pi * f))
        assert np.all(np.diff(mag) < 0)
        assert mag[-1] < 5e-3

    def test_half_power_near_374_mhz(self):
        # Butterworth corner from the element values: 1/(2*pi*R*C)
        blk = lowpass_ladder()
        fc = 1.0 / (2 * np.pi * 50.0 * 8.5e-12)
        assert abs(blk.transfer(2 * np.pi * fc)) == pytest.approx(2 ** -0.5, rel=1e-3)

    def test_unstable_block_rejected(self):
        with pytest.raises(ValueError, match="stable"):
            LinearBlock(a=np.array([[1.0]]), b=[1.0], c=[1.0])


class TestKernelOracle:
    def setup_method(self):
        self.sys = MultiplierCascade()
        self.h = self.sys.blocks[0].transfer_hz

    def test_first_order_equals_block_transfer(self):
        for f in (13e6, 250e6, 1.9e9):
            assert kernel_oracle(self.sys, (f,), 1) == pytest.approx(
                complex(self.h(f)))

    def test_second_order_diagonal_doubles_product(self):
        f = 137e6
        expect = 2.0 * complex(self.h(f)) ** 2
        assert kernel_oracle(self.sys, (f, f), 2) == pytest.approx(expect)

    def test_permutation_symmetry_exact(self):
        args = (101e6, -407e6, 833e6)
        vals = {kernel_oracle(self.sys, p, 3)
                for p in itertools.permutations(args)}
        assert len(vals) == 1

    def test_conjugate_symmetry_exact(self):
        args = (101e6, -407e6, 833e6)
        v = kernel_oracle(self.sys, args, 3)
        v_neg = kernel_oracle(self.sys, tuple(-a for a in args), 3)
        assert v_neg == pytest.approx(np.conj(v), rel=1e-12)

    def test_orders_above_three_vanish(self):
        assert kernel_oracle(self.sys, (1e8,) * 4, 4) == 0
        assert kernel_oracle(self.sys, (1e8,) * 5, 5) == 0

    def test_include_orders_masks_kernels(self):
        lin = MultiplierCascade(include_orders=(1,))
        assert kernel_oracle(lin, (1e8, 2e8), 2) == 0
        assert kernel_oracle(lin, (1e8,), 1) != 0

    def test_argument_count_enforced(self):
        with pytest.raises(ValueError):
            kernel_oracle(self.sys, (1e8, 2e8), 3)

    def test_unsupported_system_rejected(self):
        with pytest.raises(TypeError):
            kernel_oracle(object(), (1e8,), 1)


def closed_form_reference(system, args, order) -> complex:
    """The closed-form kernel at one argument tuple, in Python complex
    arithmetic, one block transfer per argument."""
    canon, conj, _ = canonical_rows(np.array([args], dtype=float))
    w = 2.0 * np.pi * canon[0]
    if isinstance(system, MultiplierCascade):
        if order > 3:
            return 0j
        hs = [[complex(blk.transfer(x)) for x in w]
              for blk in system.blocks[:order]]
        val = 0j
        for perm in itertools.permutations(range(order)):
            term = 1 + 0j
            for blk_i, arg_i in enumerate(perm):
                term *= hs[blk_i][arg_i]
            val += term
    else:
        if order % 2 == 0:
            return 0j
        l1 = 1 + 0j
        for x in w:
            l1 *= complex(system.in_block.transfer(x))
        l2 = complex(system.out_block.transfer(w.sum()))
        val = (math.factorial(order) * system.series_coefficient(order)
               * l1 * l2)
    return val.conjugate() if conj[0] else val


def signed_rows(order, n=60):
    """Signed argument rows on a 5 MHz comb, with repeated frequencies and
    diagonal rows among them."""
    rng = np.random.default_rng(order)
    rows = rng.integers(1, 40, size=(n, order)) * 5e6
    rows[: n // 4] = rows[: n // 4, :1]
    return rows * rng.choice([-1.0, 1.0], size=(n, order))


@pytest.mark.parametrize("system",
                         [MultiplierCascade(), SaturatingAmplifier()],
                         ids=["cascade", "amplifier"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
class TestArrayOracle:
    def test_rows_give_one_value_each(self, system, order):
        rows = signed_rows(order)
        vals = kernel_oracle(system, rows, order)
        assert vals.dtype == complex and vals.shape == (len(rows),)
        assert type(kernel_oracle(system, tuple(rows[0]), order)) is complex

    def test_rows_equal_the_per_point_closed_form(self, system, order):
        rows = signed_rows(order)
        ref = [closed_form_reference(system, r, order) for r in rows]
        assert np.array_equal(kernel_oracle(system, rows, order), ref)

    def test_each_row_equals_its_tuple_call(self, system, order):
        rows = signed_rows(order)
        vals = kernel_oracle(system, rows, order)
        one = np.array([kernel_oracle(system, tuple(r), order) for r in rows])
        assert one.tobytes() == vals.tobytes()

    def test_permuted_and_negated_rows_exact(self, system, order):
        rows = signed_rows(order)
        vals = kernel_oracle(system, rows, order)
        perm = np.random.default_rng(5).permuted(rows, axis=1)
        assert kernel_oracle(system, perm, order).tobytes() == vals.tobytes()
        # equal as numbers: a self-conjugate row's real value keeps the
        # sign of its zero imaginary part
        assert np.array_equal(kernel_oracle(system, -rows, order),
                              vals.conj())

    def test_row_arity_and_system_checked(self, system, order):
        rows = signed_rows(order)
        with pytest.raises(ValueError):
            kernel_oracle(system, rows, order + 1)
        with pytest.raises(TypeError):
            kernel_oracle(object(), rows, order)


class TestSaturatingAmplifier:
    def setup_method(self):
        self.amp = SaturatingAmplifier()

    def test_even_order_kernels_vanish(self):
        assert kernel_oracle(self.amp, (1e8, 2e8), 2) == 0
        assert kernel_oracle(self.amp, (1e8,) * 4, 4) == 0

    def test_limiter_is_odd_and_saturates(self):
        v = np.linspace(-1.0, 1.0, 41)
        w = self.amp.static([v.copy()])
        assert np.allclose(w, -w[::-1])
        assert np.abs(w).max() <= self.amp.vsat

    def test_third_order_matches_series_expansion(self):
        # Feed the limiter Taylor series through the two filters by hand.
        f = (90e6, -150e6, 210e6)
        l1 = np.prod([self.amp.in_block.transfer_hz(x) for x in f])
        l2 = self.amp.out_block.transfer_hz(sum(f))
        a3 = -self.amp.gain**3 / (3 * self.amp.vsat**2)
        assert kernel_oracle(self.amp, f, 3) == pytest.approx(
            complex(6 * a3 * l1 * l2))

    def test_series_coefficients(self):
        g, vs = self.amp.gain, self.amp.vsat
        assert self.amp.series_coefficient(1) == pytest.approx(g)
        assert self.amp.series_coefficient(5) == pytest.approx(
            2 * g**5 / (15 * vs**4))
        assert self.amp.series_coefficient(2) == 0.0
        with pytest.raises(ValueError):
            self.amp.series_coefficient(11)

    def test_saturation_metadata(self):
        assert self.amp.saturation_limit_v == pytest.approx(0.07)
        assert MultiplierCascade().saturation_limit_v is None
