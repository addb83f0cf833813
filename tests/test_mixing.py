import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volkit.kernels import KernelGrid, OffLatticeError, canonical_rows
from volkit.mixing import (
    MixTerm,
    enumerate_kernels_for_order,
    enumerate_output_indices,
    is_canonical,
    term_multiplicity,
    terms_at_index,
    unknowns_at_index,
)

from conftest import input_coefficient


def brute_force_indices(m, m0):
    """Independent enumeration: full cube, l1 filter, dedup by +/- pair."""
    seen = set()
    out = set()
    for k in itertools.product(range(-m0, m0 + 1), repeat=m):
        tot = sum(abs(v) for v in k)
        if not 1 <= tot <= m0:
            continue
        pair = frozenset([k, tuple(-v for v in k)])
        if pair in seen:
            continue
        seen.add(pair)
        for v in k:
            if v > 0:
                out.add(k)
                break
            if v < 0:
                out.add(tuple(-x for x in k))
                break
    return out


class TestEnumerateOutputIndices:
    def test_three_tone_third_order_has_31_frequencies(self):
        assert len(enumerate_output_indices(3, 3)) == 31

    def test_single_tone(self):
        assert enumerate_output_indices(1, 1) == [(1,)]

    def test_two_tone_second_order_matches_brute_force(self):
        got = enumerate_output_indices(2, 2)
        assert set(got) == {(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, -1)}
        assert len(got) == 6

    @pytest.mark.parametrize("m,m0", [(1, 3), (2, 3), (3, 3), (3, 2), (4, 2),
                                      (5, 3), (6, 3), (4, 4)])
    def test_matches_brute_force(self, m, m0):
        expected = sorted(brute_force_indices(m, m0),
                          key=lambda k: (sum(abs(v) for v in k), k))
        assert enumerate_output_indices(m, m0) == expected

    def test_sorted_by_total_order_then_lex(self):
        idx = enumerate_output_indices(3, 3)
        key = [(sum(abs(v) for v in k), k) for k in idx]
        assert key == sorted(key)
        assert len(set(idx)) == len(idx)

    def test_include_dc_prepends_zero_vector(self):
        idx = enumerate_output_indices(3, 3, include_dc=True)
        assert idx[0] == (0, 0, 0)
        assert len(idx) == 32

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_output_indices(0, 3)
        with pytest.raises(ValueError):
            enumerate_output_indices(3, 0)


class TestKernelTables:
    def test_first_order_counts(self):
        table = enumerate_kernels_for_order(3, 3, 1)
        assert len(table) == 3
        assert sum(len(v) for v in table.values()) == 3

    def test_second_order_counts(self):
        table = enumerate_kernels_for_order(3, 3, 2)
        assert len(table) == 9
        assert sum(len(v) for v in table.values()) == 9

    def test_third_order_counts(self):
        table = enumerate_kernels_for_order(3, 3, 3)
        assert len(table) == 22
        assert sum(len(v) for v in table.values()) == 28

    def test_dc_gains_three_second_order_terms(self):
        table = enumerate_kernels_for_order(3, 3, 2, include_dc=True)
        assert len(table[(0, 0, 0)]) == 3
        args = {t.argument_tones() for t in table[(0, 0, 0)]}
        assert args == {(1, -1), (2, -2), (3, -3)}

    def test_fundamental_third_order_membership(self):
        table = enumerate_kernels_for_order(3, 3, 3)
        args = {t.argument_tones() for t in table[(1, 0, 0)]}
        assert args == {(1, 1, -1), (1, 2, -2), (1, 3, -3)}

    def test_triple_sum_index_has_four_terms_across_signs(self):
        table = enumerate_kernels_for_order(3, 3, 3)
        quads = [k for k in table if tuple(abs(v) for v in k) == (1, 1, 1)]
        assert len(quads) == 4
        assert all(len(table[k]) == 1 for k in quads)


def canonical(args):
    """canonical_rows of one argument tuple: (row, conjugate, self-conjugate)."""
    canon, conj, self_conj = canonical_rows(np.array([args], dtype=float))
    return tuple(canon[0].tolist()), bool(conj[0]), bool(self_conj[0])


class TestCanonicalization:
    def test_sign_flip_on_trailing_tone(self):
        assert not is_canonical((0, 0, -1))
        assert is_canonical((0, 0, 1))

    def test_already_canonical_mixed_signs(self):
        assert is_canonical((1, -2, 0))

    def test_flip_restores_mixed_signs(self):
        assert not is_canonical((-1, 2, 0))

    def test_zero_vector_is_canonical(self):
        assert is_canonical((0, 0, 0))

    def test_kernel_args_permutation_collapse(self):
        # (w2, -w2, w1) is the same kernel as (w1, w2, -w2)
        assert canonical((41, -41, 7)) == canonical((7, 41, -41)) \
            == ((41, 7, -41), False, False)

    def test_kernel_args_identity_first_order(self):
        assert canonical((7,)) == ((7,), False, False)

    def test_kernel_args_conjugate_flip(self):
        assert canonical((-87, 7, 41)) == ((87, -7, -41), True, False)
        assert canonical((7, -7, 41)) == ((41, 7, -7), False, False)
        assert canonical((41, -7, 7, -41)) == ((41, 7, -7, -41), False, True)

    def test_kernel_args_rejects_bad_tones(self):
        # arguments reach canonical_rows through the grid, which takes only
        # signed sweep frequencies, one per kernel order
        grid = KernelGrid(order=2, lattice_units=(7, 41), df_hz=1e6)
        with pytest.raises(OffLatticeError):
            grid.query_exact((0.0, 7e6))
        with pytest.raises(OffLatticeError):
            grid.query_exact((87e6, 7e6))
        with pytest.raises(ValueError, match="expected 2"):
            grid.query_exact((7e6,))


class TestMultiplicity:
    def test_compression_term_collects_three(self):
        # H3(w1, w1, -w1)
        assert term_multiplicity(MixTerm(k=(1, 0, 0), r=(1, 0, 0))) == 3

    def test_desensitization_term_collects_six(self):
        # H3(w1, w2, -w2)
        assert term_multiplicity(MixTerm(k=(1, 0, 0), r=(0, 1, 0))) == 6

    def test_linear_term(self):
        assert term_multiplicity(MixTerm(k=(0, 0, 1), r=(0, 0, 0))) == 1

    def test_matches_distinct_permutations(self):
        for k, r in [((1, 0, 0), (1, 0, 0)), ((1, -1, 1), (0, 0, 0)),
                     ((0, 2, 0), (1, 0, 1)), ((0, 0, 0), (2, 1, 0))]:
            term = MixTerm(k=k, r=r)
            perms = set(itertools.permutations(term.argument_tones()))
            assert term_multiplicity(term) == len(perms)


class TestCountTerms:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_multiplicities_account_for_all_summands(self, m, n):
        # Summing collected-term multiplicities over every index in the order-n
        # ball (both signs, DC once) must recover the raw summand count.
        total = 0
        for k in itertools.product(range(-n, n + 1), repeat=m):
            if sum(abs(v) for v in k) > n:
                continue
            for term in terms_at_index(k, n):
                total += term_multiplicity(term)
        assert total == (2 * m) ** n


class TestInputCoefficient:
    def test_linear_coefficient_is_half_amplitude(self):
        c = input_coefficient(MixTerm(k=(0, 0, 1), r=(0, 0, 0)), (0.2, 0.3, 0.8))
        assert c == pytest.approx(0.4)

    def test_compression_coefficient(self):
        # (V3/2)^3 / (2! 1!) = V3^3 / 16
        c = input_coefficient(MixTerm(k=(0, 0, 1), r=(0, 0, 1)), (1.0, 1.0, 2.0))
        assert c == pytest.approx(2.0**3 / 16)

    def test_cross_tone_coefficient(self):
        # V2 * V3^2 / 16 for the (w2, -w3, -w3) kernel
        c = input_coefficient(MixTerm(k=(0, 1, -2), r=(0, 0, 0)), (0.5, 0.6, 0.7))
        assert c == pytest.approx(0.6 * 0.7**2 / 16)

    def test_fifth_order_diagonal_coefficient(self):
        # (V3/2)^5 / (3! 2!) = V3^5 / 384
        c = input_coefficient(MixTerm(k=(0, 0, 1), r=(0, 0, 2)), (1.0, 1.0, 1.0))
        assert c == pytest.approx(1.0 / 384)


class TestTermsUpToOrder:
    def test_fundamental_unknowns_truncation_3(self):
        terms = unknowns_at_index((0, 0, 1), 3)
        assert [t.argument_tones() for t in terms] == [
            (3,), (3, 3, -3), (2, -2, 3), (1, -1, 3)]

    def test_pure_cube_has_single_term(self):
        terms = unknowns_at_index((0, 0, 3), 3)
        assert len(terms) == 1
        assert terms[0].argument_tones() == (3, 3, 3)

    def test_truncation_5_adds_fifth_order(self):
        terms = unknowns_at_index((0, 0, 1), 5)
        assert len(terms) == 10
        assert (0, 0, 2) in {t.r for t in terms if t.order == 5}
        diag5 = MixTerm(k=(0, 0, 1), r=(0, 0, 2))
        assert diag5.argument_tones() == (3, 3, 3, -3, -3)
        assert any(t.argument_tones() == (3, 3, 3, -3, -3) for t in terms)

    def test_dc_has_no_order_zero_term(self):
        terms = unknowns_at_index((0, 0, 0), 3)
        assert all(t.order == 2 for t in terms)
        assert len(terms) == 3


# ---------------------------------------------------------------------------
# Randomized properties

def signed_sum(m, draws):
    """Index vector of m tones: the net count of the signed tone draws."""
    k = [0] * m
    for tone, sign in draws:
        k[tone] += sign
    return tuple(k)


# every vector of 1-4 tones with |k|_1 <= 3, as a sum of up to 3 signed
# tones (tone ids are drawn modulo the tone count)
index_vectors = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                       st.sampled_from((1, -1))), max_size=3),
).map(lambda m_draws: signed_sum(
    m_draws[0], [(t % m_draws[0], s) for t, s in m_draws[1]]))


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(index_vectors)
def test_canonicalize_idempotent(k):
    # the representative of the +/- pair of k is canonical
    rep = k if is_canonical(k) else tuple(-v for v in k)
    assert is_canonical(rep)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(index_vectors)
def test_exactly_one_of_pair_is_canonical(k):
    neg = tuple(-v for v in k)
    if any(v != 0 for v in k):
        assert is_canonical(k) != is_canonical(neg)
    else:
        assert is_canonical(k) and is_canonical(neg)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_multiplicity_is_positive_and_exact(m, data):
    # k is the net signed count of n drawn tones: exactly the indices with
    # |k|_1 <= n and the parity of n, with no draw discarded
    n = data.draw(st.integers(min_value=1, max_value=4))
    tones = data.draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=m - 1),
                  st.sampled_from((1, -1))),
        min_size=n, max_size=n))
    for term in terms_at_index(signed_sum(m, tones), n):
        mult = term_multiplicity(term)
        assert mult >= 1
        assert mult == len(set(itertools.permutations(term.argument_tones())))
        assert math.factorial(term.order) % mult == 0


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)),
                min_size=1, max_size=5).map(tuple))
def test_kernel_args_canonicalization_properties(args):
    perms = list(itertools.islice(itertools.permutations(args), 6))
    neg = tuple(-t for t in args)
    canon, conj, self_conj = canonical_rows(np.array([*perms, neg], float))
    # canonical form is invariant under permutation of the inputs
    assert (canon == canon[0]).all()
    assert (conj[:-1] == conj[0]).all() and (self_conj == self_conj[0]).all()
    # conjugating the input lands on the same form and flips the flag,
    # unless the argument multiset is its own negation
    assert self_conj[0] == (sorted(args) == sorted(neg))
    if self_conj[0]:
        assert not conj.any()
    else:
        assert conj[-1] != conj[0]
    # canonicalizing the canonical form is a fixed point
    again, conj2, _ = canonical_rows(canon[:1])
    assert (again == canon[:1]).all() and not conj2[0]


def two_sort_canonical_rows(args):
    """The canonical rule as first written: sort the row and its negation
    descending, then compare them over every column."""
    fwd = -np.sort(-args, axis=1)
    rev = -np.sort(args, axis=1)
    pick_rev = np.zeros(len(args), dtype=bool)
    undecided = np.ones(len(args), dtype=bool)
    for j in range(args.shape[1]):
        gt = undecided & (rev[:, j] > fwd[:, j])
        lt = undecided & (rev[:, j] < fwd[:, j])
        pick_rev |= gt
        undecided &= ~(gt | lt)
    return np.where(pick_rev[:, None], rev, fwd), pick_rev, undecided


# entry sets closed under negation, matched position by position
FLOAT_ENTRIES = np.array([0.0, -0.0, 1.0, -1.0, 7e6, -7e6, 1.27e8, -1.27e8,
                          1.7e308, -1.7e308, np.inf, -np.inf])
INT_ENTRIES = np.array([0, 0, 1, -1, 7_000_000, -7_000_000, 127_000_000,
                        -127_000_000, 2**62, -2**62, 2**63 - 1, -(2**63 - 1)])


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.lists(
    st.lists(st.integers(min_value=0, max_value=len(FLOAT_ENTRIES) - 1),
             min_size=n, max_size=n),
    min_size=1, max_size=16)))
def test_canonical_rows_matches_two_sort_rule(picks):
    rows = FLOAT_ENTRIES[np.array(picks)]
    got, want = canonical_rows(rows), two_sort_canonical_rows(rows)
    # -0.0 and 0.0 compare equal, so they may swap places within a row
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[2], want[2])
    rows = INT_ENTRIES[np.array(picks)]
    got, want = canonical_rows(rows), two_sort_canonical_rows(rows)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
