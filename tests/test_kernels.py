import itertools

import numpy as np
import pytest

from volkit.kernels import (
    MAX_DENSE_ENTRIES,
    EmptyGridError,
    FrozenKernelGrid,
    KernelArchive,
    KernelGrid,
    OffLatticeError,
    _canonical_walk,
    _expand,
    _unwrap,
    canonical_rows,
)
from volkit.systems import MultiplierCascade, kernel_oracle, lowpass_ladder


def lattice_units(n_points=18, df=1e6):
    """Interleaved three-comb lattice in df units, like the stock plans."""
    units = []
    for start in (7, 41, 87):
        units += [start + 120 * i for i in range(n_points)]
    return tuple(sorted(units))


def filled_h1_grid(n_points=18):
    blk = lowpass_ladder()
    grid = KernelGrid(order=1, lattice_units=lattice_units(n_points), df_hz=1e6)
    for u in grid.lattice_units:
        grid.insert((u * 1e6,), complex(blk.transfer_hz(u * 1e6)))
    return grid


class TestStore:
    def test_permutation_returns_identical_sample(self):
        grid = KernelGrid(order=3, lattice_units=(127, 161, 207), df_hz=1e6)
        val = 0.3 - 0.7j
        grid.insert((127e6, 161e6, -161e6), val)
        for perm in itertools.permutations((127e6, 161e6, -161e6)):
            assert grid.query_exact(perm) == grid.query_exact((127e6, 161e6, -161e6))
        assert grid.query_exact((-161e6, 127e6, 161e6)) == val

    def test_conjugate_symmetry_exact(self):
        grid = KernelGrid(order=3, lattice_units=(7, 41, 87), df_hz=1e6)
        val = 1.1 + 0.25j
        grid.insert((7e6, 41e6, 87e6), val)
        got = grid.query_exact((-7e6, -41e6, -87e6))
        assert got == complex(np.conj(val))

    def test_duplicate_insert_averages(self):
        grid = KernelGrid(order=2, lattice_units=(7, 41), df_hz=1e6)
        grid.insert((7e6, 41e6), 1.0 + 1.0j)
        grid.insert((41e6, 7e6), 3.0 + 0.0j)  # same canonical point
        assert grid.query_exact((7e6, 41e6)) == pytest.approx(2.0 + 0.5j)
        assert grid.n_points == 1

    def test_insert_via_conjugate_twin_averages_conjugated(self):
        grid = KernelGrid(order=2, lattice_units=(7, 41), df_hz=1e6)
        grid.insert((7e6, -41e6), 2.0 + 2.0j)
        grid.insert((-7e6, 41e6), 4.0 - 4.0j)  # conjugate coordinates
        assert grid.query_exact((7e6, -41e6)) == pytest.approx(3.0 + 3.0j)

    def test_self_conjugate_point_stores_the_real_part(self):
        # (f, -f) is its own negation: its class holds a value and its
        # conjugate, so only the real part is stored there
        grid = KernelGrid(order=2, lattice_units=(7, 41), df_hz=1e6)
        signed = np.array([-41e6, -7e6, 7e6, 41e6])
        cube = np.array(list(itertools.product(signed, repeat=2)))
        grid.insert(cube, np.ones(len(cube)))
        grid.insert((7e6, -7e6), 1 + 2e-3j)
        got = grid.query_exact((7e6, -7e6))
        assert got == 1.0 and got.imag == 0.0
        assert grid.freeze().query((7e6, -7e6)) == got
        assert grid.query_exact((-7e6, 7e6)) == got

    def test_absent_point_returns_none(self):
        grid = KernelGrid(order=1, lattice_units=(7, 41), df_hz=1e6)
        grid.insert((7e6,), 1.0)
        assert grid.query_exact((41e6,)) is None

    def test_array_query_equals_per_tuple_queries(self):
        lattice, units, values = BULK_CASES["random repeats"]
        grid = KernelGrid(order=3, lattice_units=lattice, df_hz=1e6)
        grid.insert(np.asarray(units[:40]) * 1e6, values[:40])
        rng = np.random.default_rng(5)
        signed = [-127, -87, -41, -7, 7, 41, 87, 127]
        rows = np.concatenate([
            grid.coords,                                # stored
            rng.permuted(grid.coords, axis=1),          # permuted
            -grid.coords,                               # negated
            rng.choice(signed, (200, 3)),               # some absent
        ]) * 1e6
        got = grid.query_exact(rows)
        absent = 0
        for row, v in zip(rows, got):
            want = grid.query_exact(tuple(row))
            if want is None:
                absent += 1
                assert np.isnan(v)
            else:
                assert complex(v) == want
                assert np.signbit(v.imag) == np.signbit(want.imag)
        assert absent > 0
        assert grid.query_exact(np.zeros((0, 3))).shape == (0,)

    def test_off_lattice_rejected_with_axis(self):
        grid = KernelGrid(order=2, lattice_units=(7, 41), df_hz=1e6)
        with pytest.raises(OffLatticeError) as err:
            grid.insert((7e6, 53e6), 1.0)
        assert err.value.axis == 1
        assert err.value.freq_hz == 53e6
        with pytest.raises(OffLatticeError):
            grid.insert((7.5e6, 41e6), 1.0)

    def test_wrong_arity_rejected(self):
        grid = KernelGrid(order=2, lattice_units=(7,), df_hz=1e6)
        with pytest.raises(ValueError, match="expected 2"):
            grid.insert((7e6,), 1.0)


def canonical_tuple(args):
    """Reference rule on one tuple: the descending sort of whichever of
    ``args`` and its negation is lexically larger, and whether it was the
    negation."""
    fwd = tuple(sorted(args, reverse=True))
    rev = tuple(sorted((-a for a in args), reverse=True))
    return (fwd, False) if fwd >= rev else (rev, True)


def dict_store(units, values):
    """Reference model: one point at a time into dicts keyed by tuples."""
    sums, counts = {}, {}
    for row, v in zip(units, values):
        key, conj = canonical_tuple(tuple(int(u) for u in row))
        v = complex(np.conj(v)) if conj else complex(v)
        if key in sums:
            sums[key] += v
            counts[key] += 1
        else:
            sums[key], counts[key] = v, 1
    return sums, counts


# (lattice units, argument rows in df units, values)
BULK_CASES = {
    "duplicates": ((7, 41), [(7, 41), (41, 7), (7, 41), (-7, 41)],
                   [1 + 1j, 3.0, 0.1 - 0.3j, 2j]),
    "conjugate twins": ((7, 41), [(7, -41), (-7, 41), (-41, 7)],
                        [2 + 2j, 4 - 4j, -0.0 + 0.5j]),
    "self-conjugate": ((7, 41, 87), [(7, -7, 41), (41, -7, 7), (-7, 7, -41),
                                     (87, -87, 7)],
                       [0.25 + 1e-17j, 0.5 - 0.0j, -0.0 - 0.0j, 1.5 + 0j]),
    "permutation": ((127, 161, 207), [(127, 161, -161), (161, -161, 127),
                                      (-161, 127, 161)],
                    [0.3 - 0.7j, 0.3 - 0.7j, 0.1 + 0.2j]),
    "conjugate query": ((7, 41, 87), [(7, 41, 87), (-7, -41, -87)],
                        [1.1 + 0.25j, 1.1 - 0.25j]),
    "order one": ((7, 41), [(7,), (41,), (-7,)], [1.0, 2.0 - 1j, 0.5j]),
    "random repeats": ((7, 41, 87, 127),
                       np.random.default_rng(3).choice(
                           [-127, -87, -41, -7, 7, 41, 87, 127], (400, 3)),
                       np.random.default_rng(4).normal(size=(400, 2))
                       @ np.array([1, 1j])),
}


class TestBulkInsert:
    """One bulk insert stores exactly what a loop of single inserts does."""

    @pytest.mark.parametrize("case", sorted(BULK_CASES))
    def test_bulk_equals_loop_bit_for_bit(self, case):
        lattice, units, values = BULK_CASES[case]
        units = np.asarray(units)
        order = units.shape[1]
        bulk = KernelGrid(order=order, lattice_units=lattice, df_hz=1e6)
        loop = KernelGrid(order=order, lattice_units=lattice, df_hz=1e6)
        bulk.insert(units * 1e6, values)
        for row, v in zip(units, values):
            loop.insert(tuple(row * 1e6), v)
        np.testing.assert_array_equal(bulk.coords, loop.coords)
        assert bulk.sums.tobytes() == loop.sums.tobytes()
        np.testing.assert_array_equal(bulk.counts, loop.counts)

        ref_sums, ref_counts = dict_store(units, values)
        keys = sorted(ref_sums)
        assert [tuple(r) for r in bulk.coords.tolist()] == keys
        want = np.array([ref_sums[k] for k in keys], dtype=complex)
        assert bulk.sums.tobytes() == want.tobytes()
        assert bulk.counts.tolist() == [ref_counts[k] for k in keys]

    def test_split_bulk_inserts_accumulate_in_order(self):
        lattice, units, values = BULK_CASES["random repeats"]
        units = np.asarray(units) * 1e6
        once = KernelGrid(order=3, lattice_units=lattice, df_hz=1e6)
        twice = KernelGrid(order=3, lattice_units=lattice, df_hz=1e6)
        once.insert(units, values)
        twice.insert(units[:150], values[:150])
        twice.insert(units[150:], values[150:])
        np.testing.assert_array_equal(once.coords, twice.coords)
        assert once.sums.tobytes() == twice.sums.tobytes()

    def test_chunked_inserts_merge_into_stored_points(self):
        # chunks from empty to larger than the grid land where one bulk
        # insert puts them; a grid restored from the arrays queries and
        # takes further inserts alike
        lattice, units, values = BULK_CASES["random repeats"]
        units = np.asarray(units) * 1e6
        grids = [KernelGrid(order=3, lattice_units=lattice, df_hz=1e6)
                 for _ in range(2)]
        grids[0].insert(units[:300], values[:300])
        cuts = [0, 0, 1, 2, 5, 9, 40, 41, 300]
        for a, b in zip(cuts, cuts[1:]):
            grids[1].insert(units[a:b], values[a:b])
        first = grids[0]
        grids.append(KernelGrid(order=3, lattice_units=lattice, df_hz=1e6,
                                coords=first.coords, sums=first.sums,
                                counts=first.counts))
        probe = np.concatenate([units, -units[::7], [(7e6, -7e6, 7e6)]])
        for grid in grids:
            grid.insert(units[300:], values[300:])
            np.testing.assert_array_equal(grid.coords, first.coords)
            assert grid.sums.tobytes() == first.sums.tobytes()
            np.testing.assert_array_equal(grid.counts, first.counts)
            np.testing.assert_array_equal(grid.query_exact(probe),
                                          first.query_exact(probe))

    @pytest.mark.parametrize("lattice", [(), (7, 0), (-7, 41)])
    def test_lattice_must_hold_positive_frequencies(self, lattice):
        with pytest.raises(ValueError, match="positive lattice"):
            KernelGrid(order=1, lattice_units=lattice, df_hz=1e6)

    def test_bulk_off_lattice_names_first_offender(self):
        grid = KernelGrid(order=2, lattice_units=(7, 41), df_hz=1e6)
        args = np.array([[7e6, 41e6], [41e6, 7.5e6], [53e6, 7e6]])
        with pytest.raises(OffLatticeError) as err:
            grid.insert(args, np.ones(3))
        assert (err.value.axis, err.value.freq_hz) == (1, 7.5e6)
        assert grid.n_points == 0

    def test_value_count_must_match_rows(self):
        grid = KernelGrid(order=1, lattice_units=(7, 41), df_hz=1e6)
        with pytest.raises(ValueError, match="values"):
            grid.insert(np.array([[7e6], [41e6]]), np.ones(3))

    def test_key_cube_beyond_int64_raises(self):
        # 1200 signed lattice points to the 7th power is about 3.6e21 keys
        grid = KernelGrid(order=7, lattice_units=range(1, 601), df_hz=1e6)
        with pytest.raises(ValueError, match="dims"):
            grid.insert((1e6,) * 7, 1.0)
        with pytest.raises(ValueError, match="dims"):
            grid.query_exact((1e6,) * 7)
        assert grid.n_points == 0

    @pytest.mark.parametrize("coords, counts, match", [
        ([[7, 9]], [1], "not on the sweep lattice"),
        ([[41, 7]], [0], "count >= 1"),
        ([[7, 41], [-7, 41]], [1, 1], "canonical"),
        ([[41, 7], [41, -7]], [1, 1], "canonical"),
    ])
    def test_restored_arrays_are_checked(self, coords, counts, match):
        with pytest.raises(ValueError, match=match):
            KernelGrid(order=2, lattice_units=(7, 41), df_hz=1e6,
                       coords=coords, sums=np.ones(len(counts)),
                       counts=counts)

    def test_restored_self_conjugate_sum_must_be_real(self):
        coords = [[7, -7], [41, -7]]
        KernelGrid(order=2, lattice_units=(7, 41), df_hz=1e6, coords=coords,
                   sums=[2.0, 1j], counts=[1, 1])
        with pytest.raises(ValueError, match="self-conjugate"):
            KernelGrid(order=2, lattice_units=(7, 41), df_hz=1e6,
                       coords=coords, sums=[2.0 + 1e-3j, 1j], counts=[1, 1])


def cross_coverage_grid():
    """Order-2 oracle samples on cross-comb pairs and the diagonal."""
    sys = MultiplierCascade()
    units = lattice_units(6)
    grid = KernelGrid(order=2, lattice_units=units, df_hz=1e6)
    combs = {u: (u - 7) % 120 for u in units}
    for u1, u2 in itertools.product(units, repeat=2):
        if combs[u1] == combs[u2] and u1 != u2:
            continue  # same-comb off-diagonal pairs are never co-swept
        for s in (1, -1):
            args = (u1 * 1e6, s * u2 * 1e6)
            grid.insert(args, kernel_oracle(sys, args, 2))
    return grid


class TestFrozenInterpolation:
    def test_lattice_points_reproduced_bit_identical(self):
        grid = filled_h1_grid()
        frozen = grid.freeze()
        for args, val in grid.items():
            assert frozen.query(args) == val
            assert frozen.query((-args[0],)) == complex(np.conj(val))

    def test_midpoint_matches_analytic_transfer_within_2pct(self):
        blk = lowpass_ladder()
        frozen = filled_h1_grid().freeze()
        lat = np.array(filled_h1_grid().lattice_units, dtype=float) * 1e6
        mids = 0.5 * (lat[:-1] + lat[1:])
        got = frozen.query(mids[:, None])
        ref = blk.transfer_hz(mids)
        rel = np.abs(got - ref) / np.abs(ref)
        assert rel.max() < 0.02

    def test_dc_query_continuous_against_oracle(self):
        # Flat-hold extrapolation toward DC: magnitude of the edge sample,
        # phase pulled to zero, close to the true DC gain of 1.
        blk = lowpass_ladder()
        frozen = filled_h1_grid().freeze()
        dc = frozen.query((0.0,))
        assert abs(dc.imag) < 1e-12
        assert dc.real == pytest.approx(float(abs(blk.transfer_hz(0.0))), abs=0.01)
        lo = frozen.query((1e6,))
        hi = frozen.query((-1e6,))
        assert lo == pytest.approx(np.conj(hi))

    def test_beyond_band_edge_returns_zero(self):
        frozen = filled_h1_grid().freeze()
        edge = frozen.band_edge_hz
        assert frozen.query((edge + frozen.margin_hz * 0.5,)) != 0
        assert frozen.query((edge + frozen.margin_hz * 2.0,)) == 0

    def test_nan_argument_raises_and_infinite_is_beyond_band(self):
        frozen = cross_coverage_grid().freeze()
        for args in ((np.nan, 1e8), (1e8, np.nan), [[1e8, 2e7], [np.nan, 0]]):
            with pytest.raises(ValueError, match="NaN"):
                frozen.query(args)
        assert frozen.query((np.inf, 1e8)) == 0
        assert frozen.query((1e8, -np.inf)) == 0
        np.testing.assert_array_equal(
            frozen.query([[np.inf, np.inf], [-np.inf, 2e7]]), [0, 0])

    def test_permuted_and_conjugated_queries_exactly_consistent(self):
        sys = MultiplierCascade()
        units = lattice_units(6)
        grid = KernelGrid(order=2, lattice_units=units, df_hz=1e6)
        for u1 in units[:8]:
            for u2 in units[:8]:
                for s in (1, -1):
                    args = (u1 * 1e6, s * u2 * 1e6)
                    grid.insert(args, kernel_oracle(sys, args, 2))
        frozen = grid.freeze()
        q = (150.5e6, -90.25e6)
        v = frozen.query(q)
        assert frozen.query((q[1], q[0])) == v
        assert frozen.query((-q[0], -q[1])) == complex(np.conj(v))

    def test_hole_filling_from_cross_axis_coverage(self):
        # Only cross-comb pairs (plus the diagonal), the coverage a
        # cross-product sweep produces; filled cells stay close to the
        # separable oracle.
        sys = MultiplierCascade()
        frozen = cross_coverage_grid().freeze()
        assert frozen.fill_fraction > 0
        scale = np.abs(frozen.values[frozen.known_mask]).max()
        idx = np.argwhere(~frozen.known_mask)
        rng = np.random.default_rng(0)
        sel = idx[rng.choice(len(idx), size=200, replace=False)]
        for i, j in sel:
            args = (frozen.axis_hz[i], frozen.axis_hz[j])
            truth = kernel_oracle(sys, args, 2)
            assert abs(frozen.values[i, j] - truth) <= 0.05 * scale

    def test_empty_grid_refuses_to_freeze(self):
        grid = KernelGrid(order=1, lattice_units=(7,), df_hz=1e6)
        with pytest.raises(EmptyGridError):
            grid.freeze()

    def test_empty_bulk_insert_and_empty_restore_refuse_to_freeze(self):
        inserted = KernelGrid(order=1, lattice_units=(7,), df_hz=1e6)
        inserted.insert(np.zeros((0, 1)), np.zeros(0))
        restored = KernelGrid(order=1, lattice_units=(7,), df_hz=1e6,
                              coords=np.zeros((0, 1)), sums=[], counts=[])
        for grid in (inserted, restored):
            assert grid.n_points == 0
            with pytest.raises(EmptyGridError):
                grid.freeze()

    # lattice units and order: 3 pts/axis at order 5, 12 and 18 pts/axis
    # at order 3 and a cube of exactly the limit fit; 6 pts/axis at order 5
    # and 600 units at order 3 do not
    @pytest.mark.parametrize("units, order, fits", [
        (9, 5, True), (36, 3, True), (54, 3, True), (128, 3, True),
        (18, 5, False), (600, 3, False)])
    def test_dense_cube_is_bounded_before_allocating(self, monkeypatch,
                                                      units, order, fits):
        class Reached(Exception):
            pass

        def full(*args, **kwargs):
            raise Reached

        grid = KernelGrid(order=order, lattice_units=range(1, units + 1),
                          df_hz=1e6)
        grid.insert((1e6,) * order, 1.0)
        monkeypatch.setattr(np, "full", full)
        if fits:
            with pytest.raises(Reached):
                grid.freeze()
        else:
            with pytest.raises(ValueError, match=f"{(2 * units) ** order} "
                               f"entries is over MAX_DENSE_ENTRIES "
                               rf"\({MAX_DENSE_ENTRIES}\)$"):
                grid.freeze()


def reference_symmetrize(vals, n):
    """The two-pass permutation/conjugation closure freezing used to run."""
    flip = (slice(None, None, -1),) * n
    for _ in range(2):
        for perm in itertools.permutations(range(n)):
            if perm == tuple(range(n)):
                continue
            cand = vals.transpose(perm)
            vals = np.where(np.isnan(vals), cand, vals)
        cand = np.conj(vals[flip])
        vals = np.where(np.isnan(vals), cand, vals)
    return vals


def reference_wedge(size, n):
    """Every row of the index cube that is its own canonical form, on the
    symmetric odd lattice 2*i - (size-1)."""
    wedge = []
    for row in itertools.product(range(size), repeat=n):
        signed = tuple(2 * i - (size - 1) for i in row)
        if canonical_tuple(signed) == (signed, False):
            wedge.append(row)
    return wedge


def reference_fill(vals, axis_hz, n, passes):
    """The wedge fill one hole at a time; appends "hold" to ``passes`` for
    each pass that holds flat."""
    size = len(axis_hz)
    wedge = reference_wedge(size, n)

    def one_pass(hold):
        known = ~np.isnan(vals)
        filled = {}
        for hole in wedge:
            if known[hole]:
                continue
            total, count = 0j, 0
            for j in range(n):
                line = [hole[:j] + (i,) + hole[j + 1:] for i in range(size)]
                on = [i for i in range(size) if known[line[i]]]
                before = [i for i in on if i < hole[j]]
                after = [i for i in on if i > hole[j]]
                if before and after:
                    a, b = before[-1], after[0]
                    va, vb = vals[line[a]], vals[line[b]]
                    t = ((axis_hz[hole[j]] - axis_hz[a])
                         / (axis_hz[b] - axis_hz[a]))
                    step = np.angle(vb) - np.angle(va)
                    step -= 2 * np.pi * np.rint(step / (2 * np.pi))
                    ma, mb = np.abs(va), np.abs(vb)
                    total += ((ma + t * (mb - ma))
                              * np.exp(1j * (np.angle(va) + t * step)))
                    count += 1
                elif hold and len(on) >= 2:
                    total += vals[line[before[-1] if before else after[0]]]
                    count += 1
            if count:
                filled[hole] = complex(total.real / count, total.imag / count)
        for hole, v in filled.items():
            mirror = tuple(size - 1 - i for i in hole)
            if sorted(mirror) == sorted(hole):
                v = complex(v.real, 0.0)
            for image in itertools.permutations(mirror):
                vals[image] = np.conj(v)
            for image in itertools.permutations(hole):
                vals[image] = v
        return bool(filled)

    while True:
        if one_pass(hold=False):
            continue
        if not one_pass(hold=True):
            return vals
        passes.append("hold")


def reference_freeze(grid, passes):
    pos = np.asarray(grid.lattice_units, dtype=np.int64)
    signed = np.concatenate([-pos[::-1], pos])
    n, size = grid.order, len(signed)
    axis_hz = signed.astype(float) * grid.df_hz
    vals = np.full((size,) * n, np.nan + 0j, dtype=complex)
    for row, v in zip(grid.coords.tolist(), grid._means()):
        # a self-conjugate argument multiset forces a real kernel value
        if sorted(row) == sorted(-u for u in row):
            v = complex(v.real, 0.0)
        vals[tuple(np.searchsorted(signed, row))] = v
    vals = reference_symmetrize(vals, n)
    known = ~np.isnan(vals)
    vals = reference_fill(vals, axis_hz, n, passes)
    if np.isnan(vals).any():
        raise EmptyGridError("holes remain")
    return FrozenKernelGrid(axis_hz, vals, known)


def random_sparse_grid(seed):
    """A sparse grid of order 1-3 on a few random lattice points, with
    random, real, and signed-zero imaginary values."""
    rng = np.random.default_rng(seed)
    order = 1 + seed % 3
    units = np.sort(rng.choice(np.arange(5, 300), rng.integers(2, 7),
                               replace=False))
    signed = np.concatenate([-units, units])
    n_points = int(rng.integers(
        1, 2 + len(signed) ** order // rng.integers(2, 12)))
    args = rng.choice(signed, (n_points, order))
    z = rng.normal(size=n_points) + 1j * rng.normal(size=n_points)
    kind = rng.integers(0, 4, n_points)
    z = np.where(kind == 1, z.real + 0j, z)
    z[kind == 2] = complex(-1.5, -0.0)
    z[kind == 3] = complex(0.7, -0.0)
    grid = KernelGrid(order=order, lattice_units=tuple(units), df_hz=1e6)
    grid.insert(args * 1e6, z)
    return grid


class TestFreezeMatchesReference:
    """Whole-array freezing gives the hole-by-hole wedge fill's grids bit
    for bit."""

    ATTRS = ("values", "known_mask", "mag", "phase")

    def assert_same_freeze(self, grid):
        passes = []
        try:
            want = reference_freeze(grid, passes)
        except EmptyGridError:
            with pytest.raises(EmptyGridError):
                grid.freeze()
            return "empty"
        got = grid.freeze()
        for attr in self.ATTRS:
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
        return "extrapolated" if passes else "interpolated"

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_extracted_benchmark_grids(self, bench_archive, order):
        self.assert_same_freeze(bench_archive.grid(order))

    def test_cross_coverage_grid(self):
        self.assert_same_freeze(cross_coverage_grid())

    def test_random_sparse_grids(self):
        outcomes = [self.assert_same_freeze(random_sparse_grid(seed))
                    for seed in range(48)]
        assert {"empty", "extrapolated", "interpolated"} <= set(outcomes)
        orders = {random_sparse_grid(seed).order
                  for seed, o in enumerate(outcomes) if o == "extrapolated"}
        assert orders == {1, 2, 3}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_wedge_is_the_canonical_rows_of_the_cube(self, n):
        for size in range(2, 10):
            cube = np.array(list(itertools.product(range(size), repeat=n)))
            signed = 2 * cube - (size - 1)
            canon, conj, self_conj = canonical_rows(signed)
            own = (canon == signed).all(axis=1)
            got, ties = [], []
            for pre, first, count, tie in _canonical_walk(size, n):
                got.append(np.vstack([np.repeat(pre, count, axis=1),
                                      _expand(first, count)])[::-1].T)
                flags = np.zeros(count.sum(), dtype=bool)
                flags[np.cumsum(count) - count] = tie
                ties.append(flags)
            got, ties = np.concatenate(got), np.concatenate(ties)
            np.testing.assert_array_equal(np.unique(got, axis=0), cube[own])
            assert len(got) == own.sum()
            at = np.ravel_multi_index(got.T, (size,) * n)
            np.testing.assert_array_equal(ties, self_conj[at])
            assert not conj[at].any()


def frozen_grids(bench_archive):
    """Every grid the freeze tests use that freezes, frozen."""
    frozen = [bench_archive.frozen(order) for order in (1, 2, 3)]
    frozen.append(cross_coverage_grid().freeze())
    for seed in range(48):
        try:
            frozen.append(random_sparse_grid(seed).freeze())
        except EmptyGridError:
            pass
    return frozen


class TestFrozenSymmetry:
    def test_values_equal_their_permuted_and_conjugated_images(
            self, bench_archive):
        frozen = frozen_grids(bench_archive)
        assert len(frozen) > 20
        for values in (f.values for f in frozen):
            n = values.ndim
            for perm in itertools.permutations(range(n)):
                assert values.transpose(perm).tobytes() == \
                    np.ascontiguousarray(values).tobytes()
            # exact equality: a self-conjugate entry is real, and its own
            # conjugate differs from it only in the sign of a zero
            np.testing.assert_array_equal(
                values, np.conj(values[(slice(None, None, -1),) * n]))

    # bounds between this fill's error (order 2: max 1.23e-2, RMS 4.72e-3;
    # order 3: 2.43e-2, 6.57e-3) and that of filling each hole along the
    # first axis that brackets it (1.51e-2, 6.73e-3; 3.46e-2, 8.54e-3), as
    # fractions of the peak
    @pytest.mark.parametrize("order, max_err, rms_err", [
        (2, 0.013, 0.005),
        (3, 0.026, 0.007),
    ])
    def test_filled_entries_track_the_oracle(self, bench_system,
                                             bench_archive, order, max_err,
                                             rms_err):
        frozen = bench_archive.frozen(order)
        filled = np.argwhere(~frozen.known_mask)
        truth = kernel_oracle(bench_system, frozen.axis_hz[filled], order)
        peak = np.abs(frozen.values[frozen.known_mask]).max()
        err = np.abs(frozen.values[tuple(filled.T)] - truth) / peak
        assert err.max() <= max_err
        assert np.sqrt(np.mean(err ** 2)) <= rms_err


class TestPhaseUnwrap:
    """The freeze's unwrap corrects only the steps np.unwrap corrects."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_numpy_unwrap_on_each_axis(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 9, size=seed % 3 + 1))
        ph = rng.uniform(-4.0, 4.0, shape) * (0.5, 1.0, 3.0)[seed % 3]
        # whole multiples of pi make steps of exactly +-pi, np.unwrap's
        # boundary case, and negative zeros only meet its "+ 0.0"
        at = rng.random(shape) < 0.3
        ph[at] = np.pi * rng.integers(-3, 4, size=at.sum())
        ph[rng.random(shape) < 0.1] = -0.0
        if seed >= 3:   # a NaN step is corrected, so NaN runs down its line
            ph[rng.random(shape) < 0.05] = np.nan
        for axis in range(ph.ndim):
            got = ph.copy()
            _unwrap(got, axis)
            assert got.tobytes() == np.unwrap(ph, axis=axis).tobytes()

    def test_frozen_phase_is_the_unwrapped_angle(self, bench_archive):
        frozen = bench_archive.frozen(3)
        want = np.angle(frozen.values)
        for axis in range(3):
            want = np.unwrap(want, axis=axis)
        assert frozen.phase.tobytes() == want.tobytes()


class TestArchive:
    def test_orders_must_be_contiguous(self):
        g1 = KernelGrid(order=1, lattice_units=(7,), df_hz=1e6)
        g3 = KernelGrid(order=3, lattice_units=(7,), df_hz=1e6)
        with pytest.raises(ValueError):
            KernelArchive(grids={1: g1, 3: g3})

    def test_frozen_grids_are_cached(self):
        grid = filled_h1_grid(6)
        archive = KernelArchive(grids={1: grid}, metadata={"system_id": "x"})
        assert archive.frozen(1) is archive.frozen(1)
        assert max(archive.grids) == 1
        v = archive.frozen(1).query((100e6,))
        assert isinstance(v, complex)

    def test_frozen_grid_sees_a_later_insert(self):
        grid = KernelGrid(order=1, lattice_units=(7, 41), df_hz=1e6)
        grid.insert([(7e6,), (41e6,)], [1.0, 2.0])
        archive = KernelArchive(grids={1: grid})
        assert archive.frozen(1).query((41e6,)) == 2.0
        grid.insert((41e6,), 4.0)
        assert dict(grid.items())[(41e6,)] == 3.0
        assert archive.frozen(1).query((41e6,)) == 3.0
        assert archive.frozen(1) is grid.freeze()

    def test_stored_arrays_are_read_only(self):
        # a frozen grid cannot go stale through an in-place write
        grid = KernelGrid(order=1, lattice_units=(7, 41), df_hz=1e6)
        grid.insert([(7e6,), (41e6,)], [1.0, 2.0])
        restored = KernelGrid(order=1, lattice_units=(7, 41), df_hz=1e6,
                              coords=grid.coords, sums=grid.sums,
                              counts=grid.counts)
        frozen = grid.freeze()
        for g in (grid, restored):
            for arr in (g.coords, g.sums, g.counts):
                with pytest.raises(ValueError, match="read-only"):
                    arr[1] = 4
        assert grid.freeze() is frozen
        assert grid.query_exact((41e6,)) == frozen.query((41e6,)) == 2.0


class TestExtractedGridInterpolation:
    """Off-lattice queries of extracted benchmark grids track the oracle."""

    def test_random_in_band_probes_within_5pct_of_peak(self, bench_system,
                                                       bench_archive):
        rng = np.random.default_rng(42)
        for order in (1, 2, 3):
            frozen = bench_archive.frozen(order)
            edge = frozen.band_edge_hz
            probes = rng.uniform(-edge, edge, size=(2000, order))
            got = frozen.query(probes)
            truth = np.array([
                kernel_oracle(bench_system, tuple(row), order)
                for row in probes
            ])
            scale = np.abs(truth).max()
            worst = np.abs(got - truth).max() / scale
            assert worst <= 0.05, f"order {order}: {worst:.3e}"
