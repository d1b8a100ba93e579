import math
import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import box_volume, centroid, dehomogenize, matrix_rank, sparse_rank
from topobetti.arrangement import _Builder, _primitive
from topobetti.exactgeom import (
    BoxDomain,
    format_rational,
    homogenize,
    parse_rational,
    sign,
    sparse_pivots,
    vdot,
)
from topobetti.relunet import AffineLayer, ReluNetwork

rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)

small_ints = st.integers(min_value=-9, max_value=9)


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("0", Fraction(0)),
            ("-7", Fraction(-7)),
            ("3/4", Fraction(3, 4)),
            ("-22/7", Fraction(-22, 7)),
            ("1000000", Fraction(10**6)),
        ],
    )
    def test_parses_canonical(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["2/4", "1/1", "-0", "+3", "1/-2", "1.5", "", "03", "1/0", " 1", "1 "],
    )
    def test_rejects_non_canonical(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @pytest.mark.parametrize("text", ["1\n", "1/2\n", "-3\n"])
    def test_rejects_a_trailing_newline(self, text):
        # a pattern ending in $ also matches just before a final newline
        with pytest.raises(ValueError, match="non-canonical"):
            parse_rational(text)

    @pytest.mark.parametrize(
        "value", [1, Fraction(1, 2), None, b"1"], ids=["int", "Fraction", "None", "bytes"]
    )
    def test_rejects_a_non_string(self, value):
        with pytest.raises(ValueError, match=f"must be a string, got {re.escape(repr(value))}"):
            parse_rational(value)

    @given(rationals)
    def test_round_trip(self, x):
        assert parse_rational(format_rational(x)) == x

    @given(rationals)
    def test_format_is_canonical(self, x):
        text = format_rational(x)
        assert "/" not in text or int(text.split("/")[1]) > 1


class TestSmallHelpers:
    def test_vdot(self):
        assert vdot((1, 2), (Fraction(1, 2), 3)) == Fraction(13, 2)
        with pytest.raises(ValueError):
            vdot((1,), (1, 2))

    def test_sign(self):
        assert [sign(x) for x in (-5, 0, Fraction(1, 9))] == [-1, 0, 1]

    def test_centroid(self):
        assert centroid([(0, 0), (1, 0), (0, 1)]) == (Fraction(1, 3), Fraction(1, 3))
        with pytest.raises(ValueError):
            centroid([])


class TestHyperplane:
    """arrangement._primitive, the one normalizer of hyperplane rows."""

    def test_normalizes_to_primitive_integers(self):
        assert _primitive((2, -4), 6) == ((1, -2, 3), 1)

    def test_negative_leading_coefficient_flips(self):
        assert _primitive((-2, 4), 6) == ((1, -2, -3), -1)
        assert _primitive((0, -3), 0) == ((0, 1, 0), -1)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="zero normal"):
            _primitive((0, 0), 1)

    @given(
        st.lists(small_ints, min_size=2, max_size=3),
        small_ints,
        st.lists(rationals, min_size=2, max_size=3),
    )
    def test_orientation_preserves_signs(self, normal, offset, x):
        if not any(normal) or len(x) != len(normal):
            return
        row, orient = _primitive(tuple(normal), offset)
        raw = sign(vdot(normal, x) + offset)
        assert raw == orient * sign(vdot(row[:-1], x) + row[-1])

    def test_equal_hyperplanes_intern_to_one_hid(self):
        (r1, _), (r2, _) = _primitive((2, -2), 1), _primitive((-4, 4), -2)
        assert r1 == r2 == (2, -2, 1)
        # two neurons on that hyperplane, and a constant output: the second
        # neuron finds the first's row among the table's keys, so it adds no
        # hyperplane and splits no region
        net = ReluNetwork(
            (
                AffineLayer(((2, -2), (-4, 4)), (1, -2)),
                AffineLayer(((0, 0),), (1,)),
            )
        )
        b = _Builder(net, BoxDomain.unit_cube(2))
        b.run()
        assert list(b.hids) == [(1, 0, 0), (1, 0, -1), (0, 1, 0), (0, 1, -1), (2, -2, 1)]
        assert len(b.regions) == 2


class TestBoxDomain:
    def test_unit_cube(self):
        box = BoxDomain.unit_cube(3)
        assert box.dimension == 3
        assert box_volume(box) == 1
        assert len(list(box.corners())) == 8

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain((Fraction(1),), (Fraction(1),))
        with pytest.raises(ValueError):
            BoxDomain((Fraction(0), Fraction(0)), (Fraction(1),))
        with pytest.raises(ValueError, match="at least one dimension"):
            BoxDomain((), ())

    @pytest.mark.parametrize(
        "lower, upper",
        [((0.0, 0.0), (1.0, 1.0)), ((0, Fraction(0)), (1, 1.0))],
        ids=["all-float", "one-float"],
    )
    def test_float_bounds_are_rejected(self, lower, upper):
        # a float box used to die in the build, on 'float' has no 'denominator'
        with pytest.raises(ValueError, match="box bounds must be int or Fraction, got"):
            BoxDomain(lower, upper)

    def test_volume(self):
        box = BoxDomain((Fraction(0), Fraction(-1, 2)), (Fraction(1, 3), Fraction(1)))
        assert box_volume(box) == Fraction(1, 2)


def _naive_rank(rows):
    """Rank by brute-force minor expansion; only viable for tiny matrices."""

    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(minor)
        return total

    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    for k in range(min(len(rows), ncols), 0, -1):
        for ri in combinations(range(len(rows)), k):
            for ci in combinations(range(ncols), k):
                if det([[rows[r][c] for c in ci] for r in ri]) != 0:
                    return k
    return 0


class TestMatrixRank:
    def test_known_ranks(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[0, 0], [0, 0]]) == 0
        assert matrix_rank([[1, 2], [2, 4]]) == 1
        assert matrix_rank([[1, 0], [0, 1]]) == 2
        assert matrix_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1

    @given(
        st.lists(
            st.lists(small_ints, min_size=4, max_size=4), min_size=1, max_size=5
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_minor_expansion(self, rows):
        assert matrix_rank(rows) == _naive_rank(rows)

    @given(
        st.lists(
            st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_rational_entries_match_minor_expansion(self, rows):
        assert matrix_rank(rows) == _naive_rank(rows)


def _fraction_rank(rows):
    """Rank by Gaussian elimination over Fraction, on dict rows."""
    rows = [{c: Fraction(v) for c, v in r.items() if v} for r in rows]
    rank = 0
    while rows:
        piv = rows.pop()
        if not piv:
            continue
        rank += 1
        col = next(iter(piv))
        for r in rows:
            f = r.get(col, 0) / piv[col]
            for c, x in piv.items():
                r[c] = r.get(c, 0) - f * x
                if not r[c]:
                    del r[c]
    return rank


@st.composite
def sparse_matrices(draw):
    """Up to 15 sparse rows over up to 15 columns, entries in [−3, 3].

    Random rows are joined by integer combinations of them and by exact
    duplicates, and the whole list is shuffled.
    """
    n_cols = draw(st.integers(1, 15))
    entries = st.dictionaries(st.integers(0, n_cols - 1), st.integers(-3, 3), max_size=n_cols)
    base = [{c: v for c, v in r.items() if v} for r in draw(st.lists(entries, max_size=9))]
    extra = []
    n_extra = draw(st.integers(0, 15 - len(base))) if base else 0
    for _ in range(n_extra):
        if draw(st.booleans()):
            extra.append(dict(draw(st.sampled_from(base))))
        else:
            combo = {}
            for r in base:
                k = draw(st.integers(-2, 2))
                for c, v in r.items():
                    combo[c] = combo.get(c, 0) + k * v
            extra.append({c: v for c, v in combo.items() if v})
    return draw(st.permutations(base + extra))


class TestSparseRank:
    """sparse_rank against Fraction elimination, beyond matrix_rank's 5×4."""

    @given(sparse_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_elimination(self, rows):
        before = [dict(r) for r in rows]
        assert sparse_rank(rows) == _fraction_rank(rows)
        assert rows == before  # the input rows are not modified

    @pytest.mark.parametrize("n", [2, 7, 14])
    def test_shared_last_column_forces_fill_in(self, n):
        # column n is every row's largest, so each row is reduced against the
        # first one and takes on its other columns
        rows = [{n: i + 2, i: 1, (i + 1) % n: -1} for i in range(n)]
        assert sparse_rank(rows) == _fraction_rank(rows)
        rows = [{n: 1, **{j: j - i - 1 for j in range(i + 1)}} for i in range(n)]
        assert sparse_rank(rows) == _fraction_rank(rows) == n

    def test_coprime_pivots_and_duplicates(self):
        rows = [{0: 2, 1: 3}, {0: 3, 1: 2}, {0: 2, 1: 3}, {1: 5}, {0: 5}]
        assert sparse_rank(rows) == 2
        assert sparse_rank([{3: 6, 0: 4}, {3: 9, 0: 6}, {3: -3, 0: -2}]) == 1
        assert sparse_rank([]) == sparse_rank([{}, {}]) == 0


def _content(row) -> int:
    return math.gcd(*row.values())


class TestSparsePivots:
    """The pivot table itself: what the homology's clearing reads."""

    @given(sparse_matrices())
    @settings(max_examples=200, deadline=None)
    def test_each_key_is_its_rows_largest_column(self, rows):
        pivots = sparse_pivots(rows)
        assert len(pivots) == _fraction_rank(rows)
        for col, row in pivots.items():
            assert col == max(row)
            # a row kept as it came in keeps its content; a reduced one has 1
            assert any(row is r for r in rows) or _content(row) == 1
        # the kept rows span the input: adding them leaves the rank
        assert _fraction_rank([*rows, *pivots.values()]) == len(pivots)

    def test_a_reduced_row_is_kept_with_content_one(self):
        # the second row is reduced against the first, the third to zero
        rows = [{0: 2, 3: 4}, {0: 1, 3: 6, 1: 9}, {0: 4, 3: 8}]
        pivots = sparse_pivots(rows)
        assert sorted(pivots) == [1, 3]
        assert pivots[3] is rows[0]
        assert pivots[1] == {0: -2, 1: 9}


class TestHomogeneousCoordinates:
    def test_normalised(self):
        assert homogenize((Fraction(1, 2), Fraction(-2, 3))) == (3, -4, 6)
        assert homogenize((0, 0)) == (0, 0, 1)
        assert homogenize((Fraction(4), 6)) == (4, 6, 1)

    @given(st.lists(rationals, min_size=1, max_size=4))
    def test_round_trip(self, point):
        h = homogenize(point)
        assert h[-1] > 0
        assert dehomogenize(h) == tuple(point)

