import itertools

import numpy as np
import pytest

from volkit.systems import (
    LinearBlock,
    MultiplierCascade,
    SaturatingAmplifier,
    kernel_oracle,
    lowpass_ladder,
    oracle_fn,
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

    def test_oracle_fn_binds(self):
        fn = oracle_fn(self.sys)
        assert fn((5e7,), 1) == kernel_oracle(self.sys, (5e7,), 1)


class TestSaturatingAmplifier:
    def setup_method(self):
        self.amp = SaturatingAmplifier()

    def test_even_order_kernels_vanish(self):
        assert kernel_oracle(self.amp, (1e8, 2e8), 2) == 0
        assert kernel_oracle(self.amp, (1e8,) * 4, 4) == 0

    def test_limiter_is_odd_and_saturates(self):
        v = np.linspace(-1.0, 1.0, 41)
        w = self.amp._limiter(v)
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
