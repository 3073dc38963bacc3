import gc
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from valtool.values import (
    INFINITE,
    ContainmentError,
    Grid,
    IrrationalDescriptor,
    RunningIndex,
    UndecidedComparison,
    Value,
    covolume,
    lattice_add,
    pi_descriptor,
    value_ratio,
)

from subfields import order_modulo, value_index

PI = pi_descriptor()


def test_rational_comparison():
    assert Value(Fraction(3, 2)) > Value(1)
    assert Value(Fraction(7, 2)) == Value(Fraction(7, 2))
    assert not Value(Fraction(7, 2)) < Value(Fraction(7, 2))
    assert Value(1) < Value(Fraction(3, 2))


def test_pi_comparison_from_interval_table():
    # pi + 2 vs 4: decided by the first interval [3.14, 3.15]
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


def test_pi_descriptor_is_a_new_context_on_one_table():
    a, b = pi_descriptor(), pi_descriptor()
    assert a is not b and a.intervals == b.intervals and a.depth == 40
    assert a.intervals is b.intervals  # built and checked once per depth
    assert pi_descriptor(5).intervals == a.intervals[:5]
    assert Value(1, 1, a) > Value(4) and Value(1, 1, b) > Value(4)
    with pytest.raises(ValueError, match="different group contexts"):
        Value(1, 1, a) + Value(0, 1, b)
    with pytest.raises(ValueError, match="nested"):
        IrrationalDescriptor("pi", list(a.intervals[:3]) + [(3, 4)])


def test_grid_sums_leave_no_reference_cycles():
    grid = Grid([Value(2), Value(3), Value(5)])
    gc.collect()
    gc.disable()
    try:
        assert len(list(grid.sums(grid.points, Value(20)))) == 11
        walk = grid.sums(grid.points, Value(20))
        next(walk)
        del walk  # a walk stopped early
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    assert value_index([one, Value(Fraction(3, 2))], [one]) == 2
    assert value_index([one], [one]) == 1


def test_group_index_pi_example():
    # e = 2 for the rank-2 splitting fixture, cross-checked by determinants
    big = [Value(1, 0, PI), Value(1, 1, PI)]
    small = [Value(2, 0, PI), Value(2, 1, PI)]
    assert value_index(big, small) == 2


def test_group_index_rank_drop_and_containment():
    big = [Value(1, 0, PI), Value(0, 1, PI)]
    assert value_index(big, [Value(2)]) is INFINITE
    with pytest.raises(ContainmentError):
        value_index([Value(1)], [Value(Fraction(1, 2))])


def test_group_index_with_a_first_value_off_the_rational_axis():
    # the first echelon row pivots on the tau coordinate; a later value
    # with a rational part must go above it, not be merged into it
    big = [Value(0, 3, PI), Value(2, 5, PI)]
    assert value_index(big, big) == 1
    assert value_index(big + [Value(1)], [Value(0, 1, PI), Value(1)]) == 1
    assert value_index(big, [Value(0, 6, PI), Value(4, 10, PI)]) == 4


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
        assert (value_index(big, mid) * value_index(mid, small)
                == value_index(big, small))


def test_group_index_reads_the_order_of_a_value_modulo_the_group():
    gens = [Value(1)]
    assert value_index(gens + [Value(Fraction(3, 4))], gens) == 4
    assert value_index(gens + [Value(2)], gens) == 1
    assert value_index(gens + [Value(0, 1, PI)], gens) is INFINITE


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

def _sums(values, target, caps=None):
    """Vectors k with sum k_i * values[i] == target, by Grid.sums."""
    grid = Grid(values)
    return grid.sums(grid.points, target, caps)


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
        assert list(_sums(vals, target, caps)) == want, (vals, caps, target)


def test_exact_sums_rank_two():
    vals = [Value(0, 1, PI), Value(1), Value(1, 1, PI)]
    assert list(_sums(vals, Value(7))) == [(0, 7, 0)]
    assert list(_sums(vals, Value(2, 1, PI))) == [(0, 1, 1), (1, 2, 0)]
    assert list(_sums(vals, Value(-1))) == []
    assert list(_sums([], Value(0))) == [()]


def test_sums_refuse_a_negative_point():
    # an uncapped negative point would be walked without end; a zero point
    # only takes k = 0 and stays allowed
    with pytest.raises(ValueError, match="point 1 has negative value -7/2"):
        next(_sums([Value(1), Value(Fraction(-7, 2))], Value(2)))
    with pytest.raises(ValueError, match="point 0 has negative value"):
        next(_sums([Value(1, -1, PI), Value(1)], Value(2)))
    assert list(_sums([Value(0), Value(1)], Value(2))) == [(0, 2)]


def _walk_every_remainder(vals, target):
    """Reference walk of Grid.sums without skipping barren remainders."""
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
    assert list(_sums(vals, target)) == want


def test_exact_sums_skip_barren_remainders():
    # the key values of a depth-5 chain over Q; the detector asks for the
    # first exact hits at values like this one
    steps = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is walk_code:
            steps.append(1)

    walk = _sums(CHAIN5, Value(Fraction(3413, 64)))
    # Grid.sums walks in its inner function rec
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
        list(_sums([Value(0, 1, shallow), Value(1)], Value(7)))


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
                 lambda: Value(1) * 0.5, lambda: Value(1) / 0.5):
        with pytest.raises(TypeError):
            make()


def test_arithmetic_is_coordinatewise_and_keeps_the_descriptor():
    rng = random.Random(26)

    def draw():
        q1 = rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
        return Value(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), q1,
                     PI if q1 or rng.random() < 0.5 else None)

    for _ in range(300):
        a, b = draw(), draw()
        s = rng.choice([2, -3, Fraction(2, 3), True])
        tau = a.tau or b.tau
        for got, q0, q1, want_tau in (
                (a + b, a.q0 + b.q0, a.q1 + b.q1, tau),
                (a - b, a.q0 - b.q0, a.q1 - b.q1, tau),
                (-a, -a.q0, -a.q1, a.tau),
                (a * s, a.q0 * s, a.q1 * s, a.tau),
                (s * a, a.q0 * s, a.q1 * s, a.tau),
                (a / s, a.q0 / s, a.q1 / s, a.tau)):
            assert (got.q0, got.q1, got.tau) == (q0, q1, want_tau)
            assert type(got.q0) is Fraction and type(got.q1) is Fraction
    other = IrrationalDescriptor("e", PI.intervals)
    with pytest.raises(ValueError):
        Value(0, 1, PI) + Value(0, 1, other)
    with pytest.raises(ZeroDivisionError):
        Value(1) / 0


# -- lattice helpers: property tests on random vectors in Z^2 -------------------

def _lattice_strategies():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.integers(-20, 20)
    # vectors on the axes, the zero vector among them, come up often
    vec = st.one_of(st.tuples(entry, entry), st.tuples(st.just(0), entry),
                    st.tuples(entry, st.just(0)))

    @st.composite
    def vectors(draw, min_size=0):
        vecs = draw(st.lists(vec, min_size=min_size, max_size=5))
        if vecs and draw(st.booleans()):  # one parallel to a drawn vector
            k = draw(st.integers(-3, 3))
            vecs.append(tuple(k * c for c in draw(st.sampled_from(vecs))))
        return vecs

    settings = hypothesis.settings(max_examples=200, deadline=None,
                                   derandomize=True)
    return hypothesis, st, vec, vectors, settings


def _as_values(vecs):
    return [Value(a, b, PI) for a, b in vecs]


def _rank_and_covolume(vecs):
    """Reference: the gcd of the 2x2 minors at rank 2, of the leading
    column's entries at rank 1."""
    minors = [a0 * b1 - a1 * b0 for (a0, a1), (b0, b1) in combinations(vecs, 2)]
    if any(minors):
        return 2, gcd(*minors)
    nonzero = [v for v in vecs if any(v)]
    if not nonzero:
        return 0, 1
    column = 0 if any(v[0] for v in nonzero) else 1
    return 1, gcd(*(v[column] for v in nonzero))


def test_lattice_rank_and_covolume_ignore_the_order():
    hypothesis, st, _, vectors, settings = _lattice_strategies()

    @settings
    @hypothesis.given(vecs=vectors(), order=st.permutations(range(6)))
    @hypothesis.example(vecs=[(0, 3), (2, 5), (1, 0)], order=[0, 1, 2])
    def check(vecs, order):
        want = _rank_and_covolume(vecs)
        for vs in (vecs, [vecs[k] for k in order if k < len(vecs)]):
            rows, rank = [], 0
            for v in vs:
                rank += lattice_add(rows, v)
            assert (len(rows), covolume(rows)) == want and rank == want[0]

    check()


def test_group_index_tower_law_on_nested_prefixes():
    hypothesis, st, _, vectors, settings = _lattice_strategies()

    @settings
    @hypothesis.given(data=st.data())
    def check(data):
        values = _as_values(data.draw(vectors()))
        n1, n2, n3 = sorted(data.draw(st.integers(0, len(values)))
                            for _ in range(3))
        a, b, c = values[:n3], values[:n2], values[:n1]
        whole, upper, lower = (value_index(a, c), value_index(a, b),
                               value_index(b, c))
        if INFINITE in (upper, lower):
            assert whole is INFINITE
        else:
            assert whole == upper * lower

    check()


def test_group_index_refuses_a_subgroup_that_is_not_contained():
    hypothesis, st, vec, vectors, settings = _lattice_strategies()
    odd = vec.filter(lambda w: w[0] % 2 or w[1] % 2)

    @settings
    @hypothesis.given(vecs=vectors(), w=odd, at=st.integers(0, 6))
    def check(vecs, w, at):
        big = _as_values([(2 * a, 2 * b) for a, b in vecs])
        with pytest.raises(ContainmentError):
            value_index(big, big[:at] + _as_values([w]) + big[at:])

    check()


def test_containment_error_names_the_first_generator_outside():
    with pytest.raises(ContainmentError) as err:
        RunningIndex([(2, 0)], [(2, 0), (3, 0), (1, 0)]).at(0, 2)
    assert err.value.index == 1
    big = [Value(2), Value(0, 2, PI)]
    small = [Value(2), Value(1), Value(0, 1, PI)]
    with pytest.raises(ContainmentError) as err:
        value_index(big, small)
    assert err.value.index == 1
    named = ContainmentError.of_value(small[err.value.index], big,
                                      err.value.index)
    assert named.index == 1
    assert str(named) == "value 1 is not in the group generated by " \
        "%r" % (big,)


def test_group_index_agrees_with_a_rational_solve_of_the_order():
    """[G(gens + [v]) : G(gens)] is the order of v modulo G(gens), on
    rank-1 values with denominators and on rank-2 values over pi."""
    hypothesis, st, vec, vectors, settings = _lattice_strategies()

    @settings
    @hypothesis.given(vecs=vectors(), v=vec, rank=st.sampled_from((1, 2)))
    def check(vecs, v, rank):
        def value(a, b):  # at rank 1, (a, b) reads a / (|b| + 1)
            return Value(Fraction(a, abs(b) + 1)) if rank == 1 else Value(a, b, PI)

        gens, v = [value(*w) for w in vecs], value(*v)
        assert value_index(gens + [v], gens) == order_modulo(v, gens)

    check()
