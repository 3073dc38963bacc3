import operator
from itertools import product
import random
from fractions import Fraction

import pytest

from valtool.ring import LocalRingCtx
from valtool.towers import (
    QQ,
    BaseField,
    LinearSolver,
    NotAFieldExtension,
    ResidueTower,
    span_closure,
)


def gf(p):
    return ResidueTower(BaseField(p))


def degree(t, e, ring_levels=0):
    """[K(e):K] for K the subfield spanned by the first ``ring_levels``
    levels of the tower."""
    sub = LocalRingCtx(t, ring_levels=ring_levels).residue_field()
    k = sub[1].rank
    return span_closure(t, [e], sub)[1].rank // k


def test_f4_construction():
    f2 = gf(2)
    f4 = f2.extend("a", [1, 1])  # u^2 + u + 1
    assert f4.degree() == 2
    assert len(list(f4.elements())) == 4
    a = f4.gen("a")
    assert a * a == a + 1
    assert (a * a * a) == f4.one()


def test_degree_one_adjoin_rejected():
    with pytest.raises(NotAFieldExtension):
        ResidueTower(QQ).extend("a", [-1])  # u - 1


def test_reducible_rejected_with_root():
    f2 = gf(2)
    with pytest.raises(NotAFieldExtension) as err:
        f2.extend("a", [1, 0])  # u^2 + 1 = (u+1)^2 over GF(2)
    assert err.value.root is not None


def test_sqrt2_tower():
    t = ResidueTower(QQ).extend("r", [-2, 0])  # u^2 - 2
    r = t.gen("r")
    assert r * r == t.scalar(2)
    e = r + 1
    assert degree(t, e) == 2
    assert degree(t, t.one()) == 1
    # (r+1)(r-1) = 1, so inverse of r+1 is r-1
    assert e.inverse() == r - 1


def test_rational_quartic_irreducibility():
    t = ResidueTower(QQ)
    # x^4 - 4 = (x^2-2)(x^2+2): root-free, but the quadratic-factor search
    # finds the factor and the level is refused
    with pytest.raises(NotAFieldExtension) as err:
        t.extend("b", [-4, 0, 0, 0])
    assert err.value.root is None
    assert str(err.value) == ("minimal polynomial for 'b' has a factor of "
                              "degree 2 at its own level")
    # the genuinely irreducible x^4 - 2 is certified
    t3 = t.extend("c", [-2, 0, 0, 0])
    assert "c" not in t3.unverified_levels()


def test_finite_tower_exhaustive_factor_search():
    f2 = gf(2)
    # x^4 + x^2 + 1 = (x^2+x+1)^2 over GF(2): no root, quadratic factor,
    # so the level is refused
    with pytest.raises(NotAFieldExtension) as err:
        f2.extend("a", [1, 0, 1, 0])
    assert err.value.root is None
    assert "has a factor of degree 2 at its own level" in str(err.value)
    # x^4 + x + 1 is irreducible over GF(2)
    t2 = f2.extend("a", [1, 1, 0, 0])
    assert t2.levels[-1].verified


def _random_minpolys(rng):
    """(p, c_0 .. c_(d-1)) of random monic polynomials over GF(2), GF(3),
    GF(5) and Q of degree 2 to 5; half the rational quartics are products
    of two monic quadratics."""
    for p in (2, 3, 5):
        for _ in range(120):
            yield p, [rng.randrange(p) for _ in range(rng.randint(2, 5))]
    small = [Fraction(a, b) for a in range(-6, 7) for b in (1, 1, 2, 3)]
    for _ in range(240):
        d = rng.randint(2, 5)
        if d == 4 and rng.random() < 0.5:
            (a, b), (c, e) = [rng.choices(small, k=2) for _ in range(2)]
            # (u^2 + a u + b)(u^2 + c u + e)
            yield 0, [b * e, a * e + b * c, a * c + b + e, a + c]
        else:
            yield 0, rng.choices(small, k=d)


def test_extend_refuses_exactly_what_sympy_factors():
    # where the factor search is exhaustive (a finite tower, or Q up to
    # degree 4) a level is refused exactly when sympy finds a factor, at
    # the least degree of one, and is verified otherwise; over Q at
    # degree 5 only a rational root refuses it, and it stays unverified
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    refused = {"root": 0, "factor": 0}
    for p, coeffs in _random_minpolys(random.Random(37)):
        d = len(coeffs)
        dense = [1] + [sympy.Rational(c.numerator, c.denominator)
                       if p == 0 else c for c in reversed(coeffs)]
        poly = (sympy.Poly(dense, u, modulus=p) if p
                else sympy.Poly(dense, u, domain="QQ"))
        least = min(f.degree() for f, _ in poly.factor_list()[1])
        base = ResidueTower(BaseField(p))
        if p == 0 and d == 5 and least > 1:
            assert base.extend("a", coeffs).unverified_levels() == ("a",)
            continue
        if least == d:
            assert base.extend("a", coeffs).unverified_levels() == (), coeffs
            continue
        with pytest.raises(NotAFieldExtension) as err:
            base.extend("a", coeffs)
        root = err.value.root
        if least == 1:
            refused["root"] += 1
            assert poly.eval(sympy.Rational(str(root.as_rational()))) == 0
        else:
            refused["factor"] += 1
            assert root is None, coeffs
            assert str(err.value).endswith(
                "has a factor of degree %d at its own level" % least)
    assert min(refused.values()) >= 10, refused  # both refusals are drawn


def test_field_axioms_randomized_on_fixture_towers():
    f2 = gf(2)
    f4 = f2.extend("a", [1, 1])
    qr2 = ResidueTower(QQ).extend("r", [-2, 0])
    rng = random.Random(3)
    for tower in (f4, qr2):
        elems = (list(tower.elements()) if tower.base.p
                 else [tower.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                       + tower.gen(0) * rng.randint(-3, 3) for _ in range(12)])
        for _ in range(150):
            x, y, z = rng.choice(elems), rng.choice(elems), rng.choice(elems)
            assert (x + y) * z == x * z + y * z
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            if not x.is_zero():
                assert x * x.inverse() == tower.one()


def test_nested_tower_inverse():
    t = ResidueTower(QQ).extend("r", [-2, 0]).extend("s", [-3, 0])
    r, s = t.gen("r"), t.gen("s")
    e = r + s  # sqrt2 + sqrt3
    assert degree(t, e) == 4
    assert e * e.inverse() == t.one()
    # sqrt3 - sqrt2 = 1/(sqrt3 + sqrt2)
    assert e.inverse() == s - r


def test_degree_over_subfields():
    t = ResidueTower(QQ).extend("r", [-2, 0]).extend("s", [-3, 0])
    r, s = t.gen("r"), t.gen("s")
    q_r = LocalRingCtx(t, ring_levels=1).residue_field()
    assert degree(t, s, ring_levels=1) == 2
    assert degree(t, r, ring_levels=1) == 1
    assert degree(t, r * s) == 2  # sqrt6
    q6 = span_closure(t, [r * s])
    assert q6[1].rank == 2
    assert q6[1].solve((r * s + 1).to_vector()) is not None
    assert q6[1].solve(r.to_vector()) is None
    q_rs = LocalRingCtx(t, ring_levels=2).residue_field()
    assert q_rs[1].rank // q_r[1].rank == 2


def test_ring_residue_field_is_a_prefix():
    t = ResidueTower(QQ).extend("r", [-2, 0]).extend("s", [-3, 0])
    ranks = [LocalRingCtx(t, ring_levels=k).residue_field()[1].rank
             for k in range(4)]
    assert ranks == [1, 2, 4, 4]  # levels beyond the tower add nothing
    basis, solver = LocalRingCtx(t, ring_levels=1).residue_field()
    assert solver.solve(t.gen("r").to_vector()) is not None
    assert solver.solve(t.gen("s").to_vector()) is None
    # each call is a fresh pair: extending one leaves the next alone
    span_closure(t, [t.gen("s")], (basis, solver))
    assert solver.rank == 4
    assert LocalRingCtx(t, ring_levels=1).residue_field()[1].rank == 2


def test_minimal_polynomial():
    t = ResidueTower(QQ).extend("r", [-2, 0])
    r = t.gen("r")
    e = r + 1
    # (x - 1)^2 - 2 = x^2 - 2x - 1
    assert (e * e - e * 2 - 1).is_zero()
    assert degree(t, e) == 2
    assert degree(t, t.scalar(5)) == 1


def test_levels_used_and_lift():
    t = ResidueTower(QQ).extend("r", [-2, 0])
    t2 = t.extend("s", [-3, 0])
    assert t.gen("r").levels_used() == 1
    assert t.one().levels_used() == 0
    lifted = t2.lift(t.gen("r"))
    assert lifted == t2.gen("r")
    assert t2.scalar(7).is_rational()


def test_whole_rationals_are_ints_and_stay_exact():
    t = ResidueTower(QQ)
    two = t.scalar(Fraction(6, 3))
    assert type(two.rep) is int and two == t.scalar(2)
    half = two.inverse()
    assert type(half.rep) is Fraction and half.rep == Fraction(1, 2)
    # a whole Fraction result equals, and hashes like, the int it names
    assert half * 4 == two and hash(half * 4) == hash(two)
    assert type((half * 2).as_rational()) is Fraction
    assert (two ** -3).rep == Fraction(1, 8)


def test_elements_combine_only_within_one_tower():
    t = ResidueTower(QQ)
    t2 = t.extend("i", [1, 0])
    a, b = t.scalar(3), t2.gen("i")
    for x, y in ((a, b), (b, a)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ValueError, match="ResidueTower.lift"):
                op(x, y)
        assert not x == y and x != y
    assert t2.lift(a) * b == 3 * b
    assert t2.lift(a) / b == -3 * b


def test_prime_field_characteristic_is_bounded():
    # trial division takes about 0.1 s just below the bound, 2^40
    assert BaseField(2147483647).p == 2147483647
    with pytest.raises(ValueError, match=r"below 2\^40"):
        BaseField(1000000000000000000000000000057)


def test_field_constants_refuse_floats():
    f3 = ResidueTower(BaseField(3))
    qi = ResidueTower(QQ).extend("i", [1, 0])
    for make in (lambda: f3.scalar(0.5), lambda: qi.scalar(0.5),
                 lambda: QQ.of(0.1),
                 lambda: LocalRingCtx(f3, ("x", "y")).x() * 0.5):
        with pytest.raises(TypeError):
            make()
    assert f3.scalar(Fraction(1, 2)) == f3.scalar(2)
    assert f3.scalar(7) == f3.one()
    assert qi.scalar(Fraction(1, 2)) * 2 == qi.one()


# ---------------------------------------------------------------------------
# guard towers: every rep format must pass these
# ---------------------------------------------------------------------------

def _guard_chains():
    """Each guard tower with its prefixes, lowest first."""
    q = ResidueTower(QQ)
    qr = q.extend("r", [-2, 0])
    f2, f3 = gf(2), gf(3)
    f3a = f3.extend("a", [1, 0])
    return {
        "Q(i)": [q, q.extend("i", [1, 0])],
        "Q(r2)(r3)": [q, qr, qr.extend("s", [-3, 0])],
        "GF2(a4+a+1)": [f2, f2.extend("a", [1, 1, 0, 0])],
        "GF3(i)(b3-b-1)": [f3, f3a, f3a.extend("b", [-1, -1, 0])],
    }


def _basis(tower):
    """The monomials a_1^e_1 ... a_k^e_k, a_1 fastest."""
    degs = [level.degree for level in tower.levels]
    out = []
    for exps in product(*(range(d) for d in reversed(degs))):
        m = tower.one()
        for i, e in enumerate(reversed(exps)):
            m = m * tower.gen(i) ** e
        out.append(m)
    return out


def _elements(st, tower):
    if tower.base.p:
        coord = st.integers(0, tower.base.p - 1)
    else:
        coord = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    basis = _basis(tower)
    n = len(basis)
    return st.lists(coord, min_size=n, max_size=n).map(
        lambda cs: sum((b * c for b, c in zip(basis, cs)), tower.zero()))


@pytest.mark.parametrize("name", sorted(_guard_chains()))
def test_guard_tower_field_axioms(name):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chain = _guard_chains()[name]
    tower = chain[-1]
    base = tower.base
    elems = _elements(st, tower)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(x=elems, y=elems, z=elems)
    def check(x, y, z):
        one, zero = tower.one(), tower.zero()
        assert (x + y) + z == x + (y + z) and x + y == y + x
        assert (x * y) * z == x * (y * z) and x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x and (x - x).is_zero()
        assert x - y == x + (-y) and (x * zero).is_zero()
        if not x.is_zero():
            assert x * x.inverse() == one and (y / x) * x == y
        vx, vy = x.to_vector(), y.to_vector()
        assert len(vx) == tower.degree()
        assert (x + y).to_vector() == [base.add(a, b) for a, b in zip(vx, vy)]
        assert x.to_vector() == vx  # reading the vector changes nothing
        assert hash(x * y) == hash(y * x) and hash((x + y) - y) == hash(x)
        assert x.levels_used() <= tower.height

    check()


@pytest.mark.parametrize("name", sorted(_guard_chains()))
def test_guard_tower_lift_is_a_ring_map(name):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chain = _guard_chains()[name]
    top = chain[-1]
    for k, sub in enumerate(chain):
        assert sub.is_prefix_of(top)
        assert top.lift(sub.one()) == top.one()
        for i in range(k):
            assert top.lift(sub.gen(i)) == top.gen(i)
            assert top.gen(i).levels_used() == i + 1
        elems = _elements(st, sub)

        @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
        @hypothesis.given(x=elems, y=elems)
        def check(x, y):
            lx, ly = top.lift(x), top.lift(y)
            assert top.lift(x + y) == lx + ly and top.lift(x * y) == lx * ly
            assert top.lift(-x) == -lx
            assert lx.levels_used() == x.levels_used() <= k
            assert hash(top.lift(x * y)) == hash(lx * ly)
            assert lx.to_vector()[:sub.degree()] == x.to_vector()
            assert not any(lx.to_vector()[sub.degree():])
            if x.is_rational():
                assert lx.as_rational() == x.as_rational()

        check()


@pytest.mark.parametrize("p,minpoly", [(2, [1, 1, 0, 0]), (3, [1, 0]),
                                       (5, [1, 1, 0])])
def test_prime_field_products_match_sympy(p, minpoly):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    tower = gf(p).extend("a", minpoly)
    a, d = tower.gen("a"), len(minpoly)
    modulus = sympy.Poly(list(reversed(minpoly + [1])), x, modulus=p)
    rng = random.Random(p)
    for _ in range(40):
        cs = [[rng.randrange(p) for _ in range(d)] for _ in range(2)]
        u, v = (sum((a ** i * c for i, c in enumerate(c_)), tower.zero())
                for c_ in cs)
        pu, pv = (sympy.Poly(list(reversed(c_)), x, modulus=p) for c_ in cs)
        rem = (pu * pv).rem(modulus)
        want = [int(rem.coeff_monomial(x ** i)) % p for i in range(d)]
        assert (u * v).to_vector() == want


def test_minimal_polynomials_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    t = ResidueTower(QQ).extend("r", [-2, 0]).extend("s", [-3, 0])
    r, s = t.gen("r"), t.gen("s")
    sr, ss = sympy.sqrt(2), sympy.sqrt(3)
    cases = [(r + s, sr + ss), (r * s, sr * ss), (r + 1, sr + 1), (s, ss),
             (r * 2 - s / 3, 2 * sr - ss / 3), (r * s + r, sr * ss + sr),
             (t.scalar(Fraction(5, 7)), sympy.Rational(5, 7)),
             ((r + s).inverse() + r * s, 1 / (sr + ss) + sr * ss)]
    for e, expr in cases:
        want = sympy.Poly(sympy.minimal_polynomial(expr, x), x).monic()
        # a monic polynomial of degree [Q(e):Q] vanishing at e is the
        # minimal polynomial of e
        value = t.zero()
        for c in want.all_coeffs():
            value = value * e + t.scalar(Fraction(int(c.p), int(c.q)))
        assert value.is_zero()
        assert degree(t, e) == want.degree()


def test_elements_order_is_pinned():
    f4 = gf(2).extend("a", [1, 1])
    assert [repr(e) for e in f4.elements()] == ["0", "a", "1", "1 + a"]
    f16 = f4.extend("b", [f4.gen("a"), 1])  # b^2 + b + a
    # the coordinate vector, a_1 fastest, runs in lexicographic order
    assert [repr(e) for e in f16.elements()] == [
        "0", "a*b", "b", "b + a*b",
        "a", "a + a*b", "b + a", "b + a + a*b",
        "1", "1 + a*b", "1 + b", "1 + b + a*b",
        "1 + a", "1 + a + a*b", "1 + b + a", "1 + b + a + a*b"]
    assert [e.to_vector() for e in f16.elements()] == [
        [int(c) for c in "{:04b}".format(n)] for n in range(16)]
    assert len(set(f16.elements())) == 16


def test_reducible_minpoly_root_is_pinned():
    f2 = gf(2)
    with pytest.raises(NotAFieldExtension) as err:
        f2.extend("u", [1, 0])  # u^2 + 1 = (u + 1)^2
    assert err.value.root == f2.one() and repr(err.value.root) == "1"
    assert "has root 1 at its own level" in str(err.value)


def test_linear_solver_reads_lists_and_dicts_alike():
    # a dict {coordinate: scalar} is the sparse form of a list; explicit
    # zeros in it count for nothing
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data())
    def check(data):
        base = data.draw(st.sampled_from([QQ, BaseField(2), BaseField(3)]))
        n = data.draw(st.integers(1, 6))
        entry = st.sampled_from([0, 0, 0, 1, -1, 2]
                                + ([] if base.p else [Fraction(1, 2)]))
        vector = st.lists(entry, min_size=n, max_size=n).map(
            lambda v: [base.of(c) for c in v])
        vecs = data.draw(st.lists(vector, max_size=8))
        keep_zeros = data.draw(st.booleans())

        def sparse(v):
            return {i: c for i, c in enumerate(v) if c or keep_zeros}

        as_list, as_dict = LinearSolver(base), LinearSolver(base)
        for v in vecs:
            assert as_list.add(v) == as_dict.add(sparse(v))
            assert as_list.rank == as_dict.rank
        for t in data.draw(st.lists(vector, min_size=1, max_size=3)):
            for rank in [None] + list(range(as_list.rank + 1)):
                got = as_list.solve(t, rank)
                assert got == as_dict.solve(sparse(t), rank), (t, rank)
                if got is not None:  # the combination is the target
                    total = [0] * n
                    for k, c in got.items():
                        total = [base.add(a, base.mul(c, b))
                                 for a, b in zip(total, vecs[k])]
                    assert total == t

    check()
