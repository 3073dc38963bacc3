import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from valtool.values import (
    INFINITE,
    ContainmentError,
    Grid,
    IrrationalDescriptor,
    UndecidedComparison,
    Value,
    exact_sums,
    group_index,
    pi_descriptor,
    smallest_multiple_in_group,
    value_cmp,
    value_ratio,
)

PI = pi_descriptor()


def test_rational_comparison():
    assert value_cmp(Value(Fraction(3, 2)), Value(1)) == "GT"
    assert value_cmp(Value(Fraction(7, 2)), Value(Fraction(7, 2))) == "EQ"
    assert Value(1) < Value(Fraction(3, 2))


def test_pi_comparison_from_interval_table():
    # pi + 2 vs 4: decided by the first interval [3.14, 3.15]
    assert value_cmp(Value(2, 1, PI), Value(4)) == "GT"
    assert Value(2, 1, PI) > Value(4)
    assert Value(0, 1, PI) < Value(Fraction(16, 5))


def test_equality_is_coordinatewise():
    a = Value(2, 1, PI)
    assert a == Value(2, 1, PI)
    assert a != Value(2, 0, PI)
    # tau is irrational: never equal to a rational
    assert Value(0, 1, PI) != Value(Fraction(314159, 100000))


def test_shallow_descriptor_faults():
    shallow = IrrationalDescriptor("rough", [(Fraction(3), Fraction(4))])
    with pytest.raises(UndecidedComparison):
        Value(Fraction(-7, 2), 1, shallow).sign()


def test_descriptor_validation():
    with pytest.raises(ValueError):
        IrrationalDescriptor("bad", [(1, 2), (0, 3)])
    with pytest.raises(ValueError):
        IrrationalDescriptor("empty", [])


def test_order_translation_invariant_randomized():
    rng = random.Random(7)
    vals = [
        Value(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
              Fraction(rng.randint(-3, 3), rng.randint(1, 4)), PI)
        for _ in range(40)
    ]
    for _ in range(200):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        assert (a < b) == (a + c < b + c)
        if a < b and b < c:
            assert a < c


def test_group_index_basic():
    one = Value(1)
    assert group_index([one, Value(Fraction(3, 2))], [one]) == 2
    assert group_index([one], [one]) == 1


def test_group_index_pi_example():
    # e = 2 for the rank-2 splitting fixture, cross-checked by determinants
    big = [Value(1, 0, PI), Value(1, 1, PI)]
    small = [Value(2, 0, PI), Value(2, 1, PI)]
    assert group_index(big, small) == 2


def test_group_index_rank_drop_and_containment():
    big = [Value(1, 0, PI), Value(0, 1, PI)]
    assert group_index(big, [Value(2)]) is INFINITE
    with pytest.raises(ContainmentError):
        group_index([Value(1)], [Value(Fraction(1, 2))])


def test_group_index_tower_law_randomized():
    rng = random.Random(11)
    for _ in range(60):
        g0 = Value(Fraction(1, rng.randint(1, 4)))
        g1 = Value(0, Fraction(1, rng.randint(1, 4)), PI)
        big = [g0, g1]
        k1, k2 = rng.randint(1, 4), rng.randint(1, 4)
        l1, l2 = rng.randint(1, 3), rng.randint(1, 3)
        mid = [g0 * k1, g1 * k2]
        small = [g0 * (k1 * l1), g1 * (k2 * l2)]
        assert (group_index(big, mid) * group_index(mid, small)
                == group_index(big, small))


def test_smallest_multiple_in_group():
    gens = [Value(1)]
    assert smallest_multiple_in_group(Value(Fraction(3, 4)), gens) == 4
    assert smallest_multiple_in_group(Value(2), gens) == 1
    with pytest.raises(ContainmentError):
        smallest_multiple_in_group(Value(0, 1, PI), gens)


def test_sentinels_keep_repr_truth_and_homes():
    from valtool import extension, ring, values
    sentinels = {"INFINITE": "Infinite",
                 "INSUFFICIENT_PRECISION": "InsufficientPrecision",
                 "UNDETERMINED": "Undetermined"}
    for name, text in sentinels.items():
        assert repr(getattr(values, name)) == text
    assert bool(values.INFINITE) is True
    assert bool(values.INSUFFICIENT_PRECISION) is False
    # an undecided verdict must not pass for a certified one in an ``if``
    with pytest.raises(TypeError):
        bool(values.UNDETERMINED)
    assert ring.INSUFFICIENT_PRECISION is values.INSUFFICIENT_PRECISION
    assert extension.UNDETERMINED is values.UNDETERMINED


# -- exact sums on the value lattice ---------------------------------------------

def test_exact_sums_match_brute_force():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 4)
        vals = [Value(Fraction(rng.randint(0, 6), rng.randint(1, 4)))
                for _ in range(n)]
        caps = [rng.choice([None, 1, 2, 3]) for _ in range(n)]
        target = Value(Fraction(rng.randint(0, 24), rng.randint(1, 4)))
        ranges = [range(1) if not v.sign() else
                  range(int(target.q0 / v.q0) + 1 if c is None else c)
                  for v, c in zip(vals, caps)]
        want = [k for k in product(*ranges)
                if sum((v * a for v, a in zip(vals, k)), Value(0)) == target]
        assert list(exact_sums(vals, target, caps)) == want, (vals, caps, target)


def test_exact_sums_rank_two():
    vals = [Value(0, 1, PI), Value(1), Value(1, 1, PI)]
    assert list(exact_sums(vals, Value(7))) == [(0, 7, 0)]
    assert list(exact_sums(vals, Value(2, 1, PI))) == [(0, 1, 1), (1, 2, 0)]
    assert list(exact_sums(vals, Value(-1))) == []
    assert list(exact_sums([], Value(0))) == [()]


def _walk_every_remainder(vals, target):
    """Reference walk of exact_sums without skipping barren remainders."""
    def rec(i, rest):
        if i == len(vals) - 1:
            ratio = value_ratio(rest, vals[i]) if vals[i].sign() else None
            if ratio is not None and ratio >= 0 and ratio.denominator == 1:
                yield (int(ratio),)
            elif not vals[i].sign() and rest == Value(0):
                yield (0,)
            return
        k = 0
        while rest.sign() >= 0:
            for tail in rec(i + 1, rest):
                yield (k,) + tail
            if not vals[i].sign():
                break
            k += 1
            rest = rest - vals[i]
    return list(rec(0, target))


CHAIN5 = [Value(Fraction(a, 64)) for a in (341, 170, 84, 40, 16, 32)]


@pytest.mark.parametrize("vals, target", [
    (CHAIN5, Value(Fraction(853, 64))),
    ([Value(0, 1, PI), Value(0, 2, PI), Value(1), Value(3), Value(1, 1, PI)],
     Value(9, 4, PI)),
])
def test_exact_sums_match_the_full_walk(vals, target):
    want = _walk_every_remainder(vals, target)
    assert want
    assert list(exact_sums(vals, target)) == want


def test_exact_sums_skip_barren_remainders():
    # the key values of a depth-5 chain over Q; the detector asks for the
    # first exact hits at values like this one
    steps = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is walk_code:
            steps.append(1)

    walk = exact_sums(CHAIN5, Value(Fraction(3413, 64)))
    # exact_sums hands the walk to Grid.sums, whose code holds rec
    walk_code = next(c for c in Grid.sums.__code__.co_consts
                     if getattr(c, "co_name", None) == "rec")
    sys.setprofile(count)
    try:
        first = next(walk)
    finally:
        sys.setprofile(None)
    assert first == (1, 0, 0, 0, 0, 96)
    # 751486 steps when every remainder is walked again
    assert len(steps) < 200000


def test_exact_sums_shallow_descriptor_still_faults():
    shallow = IrrationalDescriptor("rough", [(Fraction(3), Fraction(4))])
    # 7 - 2*tau straddles 0 on [3, 4]
    with pytest.raises(UndecidedComparison):
        list(exact_sums([Value(0, 1, shallow), Value(1)], Value(7)))


# -- the value grid ----------------------------------------------------------------

def _on_grid(grid, exps):
    return tuple(sum(k * p[c] for k, p in zip(exps, grid.points))
                 for c in (0, 1))


def _sum(values, exps):
    return sum((v * k for v, k in zip(values, exps)), Value(0))


@pytest.mark.parametrize("rank", [1, 2])
def test_grid_order_is_value_order(rank):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fraction = st.builds(Fraction, st.integers(-30, 30),
                         st.sampled_from((1, 2, 3, 4, 8)))
    rational = st.builds(Value, fraction)
    irrational = st.builds(lambda q0, q1: Value(q0, q1, PI), fraction,
                           fraction.filter(bool))
    exps = st.lists(st.integers(0, 6), min_size=5, max_size=5)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(
        values=st.lists(rational if rank == 1 else
                        st.one_of(rational, irrational), max_size=4),
        first=irrational if rank == 2 else rational, a=exps, b=exps)
    def check(values, first, a, b):
        values = [first] + values
        grid = Grid(values)
        pa, pb = _on_grid(grid, a), _on_grid(grid, b)
        va, vb = _sum(values, a), _sum(values, b)
        assert grid.cmp(pa, pb) == (va > vb) - (va < vb)
        assert grid.value(pa) == va and grid.point(va) == pa

    check()


def test_grid_order_on_a_pair_that_needs_a_deep_interval():
    # 833719 - 265381*pi is about -2.1e-12: the first 11 digits of pi
    # cannot tell its sign, and the grid defers to interval refinement
    values = [Value(Fraction(1, 2)), Value(0, Fraction(1, 3), PI)]
    grid = Grid(values)
    assert grid.scale == 6
    a, b = (2 * 833719, 0), (0, 3 * 265381)
    pa, pb = _on_grid(grid, a), _on_grid(grid, b)
    assert (pa, pb) == ((5002314, 0), (0, 1592286))
    assert grid.cmp(pa, pb) == -1 and grid.cmp(pb, pa) == 1
    assert _sum(values, a) < _sum(values, b)
    with pytest.raises(UndecidedComparison):
        Value(833719, -265381, pi_descriptor(11)).sign()


def test_grid_points_off_the_grid():
    grid = Grid([Value(Fraction(3, 2)), Value(Fraction(13, 4))])
    assert grid.points == [(6, 0), (13, 0)]
    assert grid.point(Value(Fraction(1, 8))) is None
    assert grid.point(Value(1, 1, PI)) is None
    assert grid.point((5, 0)) == (5, 0)
    assert list(grid.sums(grid.points, Value(Fraction(1, 3)))) == []
    assert list(grid.sums(grid.points, Value(Fraction(19, 2)))) == [(2, 2)]
    with pytest.raises(ValueError, match="different group contexts"):
        Grid([Value(0, 1, PI), Value(0, 1, pi_descriptor(5))])


def test_value_ratio():
    assert value_ratio(Value(3), Value(Fraction(3, 2))) == 2
    assert value_ratio(Value(-2, -2, PI), Value(1, 1, PI)) == -2
    assert value_ratio(Value(2, 1, PI), Value(1, 1, PI)) is None
    assert value_ratio(Value(0, 1, PI), Value(1)) is None
    assert value_ratio(Value(1), Value(0)) is None


def test_values_are_exact():
    third = Fraction(1, 3)
    assert Value(third).q0 is third
    assert Value(2, third, PI).q1 is third
    assert Value(2).q0 == 2 and type(Value(2).q0) is Fraction
    assert Value(third) * 3 == Value(1)
    for make in (lambda: Value(0.1), lambda: Value(1, 0.5, PI),
                 lambda: Value(1) * 0.5):
        with pytest.raises(TypeError):
            make()
