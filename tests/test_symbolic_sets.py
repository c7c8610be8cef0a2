"""Unit and property tests for symbolic range sets (memlet subsets)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symbolic import Integer, Range, Symbol

N = Symbol("N")
M = Symbol("M")


class TestConstruction:
    def test_from_shape(self):
        rng = Range.from_shape((N, 4))
        assert rng.ndim == 2
        assert rng.size() == (N, Integer(4))

    def test_from_indices(self):
        rng = Range.from_indices([N - 1, Integer(0)])
        assert rng.is_point() is True

    def test_from_string_slices(self):
        rng = Range.from_string("0:N, 3, 2:M:2")
        assert rng.ndim == 3
        assert rng.dims[1][0] == Integer(3)
        assert rng.dims[2][2] == Integer(2)

    def test_from_string_expressions(self):
        rng = Range.from_string("1:N-1")
        begin, end, step = rng.dims[0]
        assert begin == Integer(1)
        assert end == N - 2

    def test_str_roundtrip(self):
        rng = Range.from_string("1:N, i, 0:M:4")
        assert Range.from_string(str(rng)) == rng

    def test_str_rendered_once_and_shared_by_copies(self, monkeypatch):
        import copy

        from repro.symbolic import sets

        rng = Range.from_string("1:N, i, 0:M:4")
        text = str(rng)
        assert text == "1:N, i, 0:M:4"

        def no_symbolic_work(*_):
            raise AssertionError("a rendered range was rendered again")

        monkeypatch.setattr(sets, "definitely_eq", no_symbolic_work)
        assert str(rng) is text
        assert str(copy.deepcopy(rng)) is text      # graph clones share ranges
        # equal ranges stay independent objects: nothing global is kept
        with pytest.raises(AssertionError):
            str(Range.from_string("1:N, i, 0:M:4"))

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            Range([(1, 2, 3, 4)])


class TestQueries:
    def test_volume(self):
        rng = Range.from_shape((N, 3))
        assert rng.volume() == 3 * N

    def test_num_elements(self):
        rng = Range.from_string("2:10:2")
        assert rng.num_elements() == 4

    def test_covers_full(self):
        full = Range.from_shape((N,))
        inner = Range.from_string("1:N-1")
        assert full.covers(inner) is True
        assert inner.covers(full) is False

    def test_covers_unknown(self):
        a = Range.from_string("0:N")
        b = Range.from_string("0:M")
        assert a.covers(b) is None

    def test_intersects_disjoint(self):
        a = Range.from_string("0:4")
        b = Range.from_string("4:8")
        assert a.intersects(b) is False

    def test_intersects_overlap(self):
        a = Range.from_string("0:5")
        b = Range.from_string("4:8")
        assert a.intersects(b) is True

    def test_intersects_symbolic_shift(self):
        i = Symbol("i", nonnegative=False)
        d = Symbol("d", positive=True)
        a = Range.from_indices([i])
        b = Range.from_indices([i + d])
        assert a.intersects(b) is False

    def test_intersection_box(self):
        a = Range.from_string("0:6")
        b = Range.from_string("4:9")
        inter = a.intersection(b)
        assert inter.num_elements() == 2

    def test_union_hull(self):
        a = Range.from_string("0:3")
        b = Range.from_string("5:8")
        hull = a.union_hull(b)
        assert hull.num_elements() == 8


class TestTransformations:
    def test_offset(self):
        rng = Range.from_string("2:6")
        shifted = rng.offset_by([2], negative=True)
        assert shifted == Range.from_string("0:4")

    def test_compose(self):
        outer = Range.from_string("10:20")
        inner = Range.from_string("2:5")
        composed = outer.compose(inner)
        assert composed == Range.from_string("12:15")

    def test_compose_strided(self):
        outer = Range.from_string("0:20:2")
        inner = Range.from_string("1:4")
        composed = outer.compose(inner)
        begin, end, step = composed.dims[0]
        assert begin == Integer(2)
        assert step == Integer(2)

    def test_subs(self):
        rng = Range.from_string("0:N")
        assert rng.subs({"N": 7}).num_elements() == 7

    def test_to_slices(self):
        rng = Range.from_string("1:N-1")
        assert rng.to_slices({"N": 10}) == (slice(1, 9, 1),)

    def test_to_slices_empty_range(self):
        # a triangular subset 0:i at i == 0 stores inclusive end -1: the
        # range is empty, and the stop must not wrap into from-the-end
        # indexing (slice(0, 0) for end -1, but end -2 naively becomes
        # slice(0, -1) — almost the whole array)
        arr = list(range(8))
        for end in (-1, -2, -3):
            rng = Range([(Integer(0), Integer(end), Integer(1))])
            assert arr[rng.to_slices()[0]] == []

    def test_to_slices_negative_step(self):
        arr = list(range(8))
        # descending 4..0: exclusive stop of inclusive 0 is None, not -1
        # (which wraps to the end) nor +1 (the old ascending conversion)
        rng = Range([(Integer(4), Integer(0), Integer(-1))])
        assert arr[rng.to_slices()[0]] == [4, 3, 2, 1, 0]
        # descending 5..2 keeps a finite stop
        rng = Range([(Integer(5), Integer(2), Integer(-1))])
        assert arr[rng.to_slices()[0]] == [5, 4, 3, 2]
        # empty descending range (end above begin)
        rng = Range([(Integer(2), Integer(5), Integer(-1))])
        assert arr[rng.to_slices()[0]] == []


# ---------------------------------------------------------------------------
# Property tests against concrete integer sets
# ---------------------------------------------------------------------------

bounds = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
    lambda t: (min(t), max(t)))


def concrete(lo, hi):
    return set(range(lo, hi + 1))


@given(a=bounds, b=bounds)
@settings(max_examples=80)
def test_intersects_matches_concrete(a, b):
    ra = Range([(a[0], a[1], 1)])
    rb = Range([(b[0], b[1], 1)])
    verdict = ra.intersects(rb)
    truth = bool(concrete(*a) & concrete(*b))
    assert verdict is truth  # fully constant: must be decidable


@given(a=bounds, b=bounds)
@settings(max_examples=80)
def test_covers_matches_concrete(a, b):
    ra = Range([(a[0], a[1], 1)])
    rb = Range([(b[0], b[1], 1)])
    verdict = ra.covers(rb)
    truth = concrete(*b) <= concrete(*a)
    assert verdict is truth


@given(a=bounds, b=bounds)
@settings(max_examples=80)
def test_union_hull_contains_both(a, b):
    ra = Range([(a[0], a[1], 1)])
    rb = Range([(b[0], b[1], 1)])
    hull = ra.union_hull(rb)
    assert hull.covers(ra) is True
    assert hull.covers(rb) is True


@given(outer=bounds, inner=bounds)
@settings(max_examples=80)
def test_compose_matches_concrete(outer, inner):
    """outer.compose(inner) == {outer.start + i : i in inner}."""
    ra = Range([(outer[0], outer[1], 1)])
    ri = Range([(inner[0], inner[1], 1)])
    composed = ra.compose(ri)
    expected = {outer[0] + i for i in concrete(*inner)}
    lo, hi, _ = composed.dims[0]
    assert concrete(int(lo.evaluate({})), int(hi.evaluate({}))) == expected
