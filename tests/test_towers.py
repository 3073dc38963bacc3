import operator
import random
from fractions import Fraction

import pytest

from valtool.ring import LocalRingCtx
from valtool.towers import (
    QQ,
    BaseField,
    NotAFieldExtension,
    ResidueTower,
    SubfieldSpec,
    degree_over,
    in_subfield,
    minimal_polynomial,
    relative_dimension,
    subfield_dimension,
)


def gf(p):
    return ResidueTower(BaseField(p))


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
    assert degree_over(e, SubfieldSpec()) == 2
    assert degree_over(t.one(), SubfieldSpec()) == 1
    # (r+1)(r-1) = 1, so inverse of r+1 is r-1
    assert e.inverse() == r - 1


def test_rational_quartic_irreducibility():
    t = ResidueTower(QQ)
    # x^4 - 4 = (x^2-2)(x^2+2): root-free, but the quadratic-factor search
    # finds it and the level is left unverified
    t2 = t.extend("b", [-4, 0, 0, 0])
    assert "b" in t2.unverified_levels()
    # the genuinely irreducible x^4 - 2 is certified
    t3 = t.extend("c", [-2, 0, 0, 0])
    assert "c" not in t3.unverified_levels()


def test_finite_tower_exhaustive_factor_search():
    f2 = gf(2)
    # x^4 + x^2 + 1 = (x^2+x+1)^2 over GF(2): no root, quadratic factor
    t = f2.extend("a", [1, 0, 1, 0])
    assert not t.levels[-1].verified
    # x^4 + x + 1 is irreducible over GF(2)
    t2 = f2.extend("a", [1, 1, 0, 0])
    assert t2.levels[-1].verified


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
    assert degree_over(e, SubfieldSpec()) == 4
    assert e * e.inverse() == t.one()
    # sqrt3 - sqrt2 = 1/(sqrt3 + sqrt2)
    assert e.inverse() == s - r


def test_degree_over_subfields():
    t = ResidueTower(QQ).extend("r", [-2, 0]).extend("s", [-3, 0])
    r, s = t.gen("r"), t.gen("s")
    assert degree_over(s, SubfieldSpec(prefix_levels=1)) == 2
    assert degree_over(r, SubfieldSpec(prefix_levels=1)) == 1
    assert degree_over(r * s, SubfieldSpec()) == 2  # sqrt6
    assert subfield_dimension(t, SubfieldSpec(adjoined=[r * s])) == 2
    assert in_subfield(r * s + 1, SubfieldSpec(adjoined=[r * s]))
    assert not in_subfield(r, SubfieldSpec(adjoined=[r * s]))
    assert relative_dimension(t, SubfieldSpec(prefix_levels=2),
                              SubfieldSpec(prefix_levels=1)) == 2


def test_minimal_polynomial():
    t = ResidueTower(QQ).extend("r", [-2, 0])
    r = t.gen("r")
    e = r + 1
    coeffs = minimal_polynomial(e, SubfieldSpec())
    # (x - 1)^2 - 2 = x^2 - 2x - 1
    assert [c.as_rational() for c in coeffs] == [Fraction(-1), Fraction(-2)]
    assert minimal_polynomial(t.scalar(5), SubfieldSpec())[0].as_rational() == -5


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
