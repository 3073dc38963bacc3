import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import valtool
from valtool import fixtures, ring
from valtool.blowup import free_transform
from valtool.cli import main
from valtool.extension import ExtensionMap
from valtool.genseq import GenSeq, KeyStep, TailTerm, expand
from valtool.scenario import parse_scenario
from valtool.ring import (
    INSUFFICIENT_PRECISION,
    LocalRingCtx,
    MonomialForm,
    NotMonomial,
    NotRegularAfterSubstitution,
    PolyParseError,
    RingElem,
    SeriesEmbedding,
    TruncSeries,
    divmod_y,
    monomialize_check,
    order_mod_x,
    parse_poly,
    series_value,
    substitute,
)
from valtool.towers import QQ, BaseField, ResidueTower, TowerElem
from valtool.values import INFINITE, Value

from test_graded import _chain


@pytest.fixture
def ctx():
    return LocalRingCtx(ResidueTower(QQ), ("x", "y"))


@pytest.fixture
def v1_oracle(ctx):
    # series oracle of the desk fixture: x -> t^2, y -> t^3 + t^4
    t = ctx.tower
    gx = TruncSeries(t, {2: t.one()}, 40)
    gy = TruncSeries(t, {3: t.one(), 4: t.one()}, 40)
    return SeriesEmbedding(ctx, {"x": gx, "y": gy})


def test_parse_and_arithmetic(ctx):
    f = parse_poly("y^2 - x^3", ctx)
    g = parse_poly("y^2", ctx) - parse_poly("x^3", ctx)
    assert f == g
    assert parse_poly("(x + y)^2", ctx) == parse_poly("x^2 + 2*x*y + y^2", ctx)
    assert ctx.coeff(parse_poly("3/2*x", ctx).terms[(1, 0)]).as_rational() \
        == Fraction(3, 2)
    with pytest.raises(PolyParseError):
        parse_poly("x + q", ctx)
    with pytest.raises(PolyParseError):
        parse_poly("x^(2)", ctx)


def test_unit_and_maximal_ideal(ctx):
    assert parse_poly("1 + x", ctx).is_unit()
    assert not parse_poly("x + y^2", ctx).is_unit()
    assert not parse_poly("x", ctx).is_unit()


def test_shift_refuses_a_negative_exponent(ctx):
    f = parse_poly("x^2*y + 3*x", ctx)
    assert f.shift(-1, 0) == parse_poly("x*y + 3", ctx)
    assert f.shift(1, 2) == parse_poly("x^3*y^3 + 3*x^2*y^2", ctx)
    assert f.shift(1, 2).shift(-1, -2) == f
    for di, dj in ((-2, 0), (0, -1), (-3, 5)):
        with pytest.raises(NotRegularAfterSubstitution):
            f.shift(di, dj)


def test_substitute_expansion(ctx):
    # quadratic-transform substitution on the desk fixture key
    tgt = LocalRingCtx(ctx.tower, ("x1", "y1"))
    f = parse_poly("y^2 - x^3", ctx)
    img = substitute(f, {"x": parse_poly("x1^2*y1", tgt),
                         "y": parse_poly("x1^3*y1^2", tgt)})
    assert img == parse_poly("x1^6*y1^4 - x1^6*y1^3", tgt)


def test_substitute_identity_and_composition(ctx):
    f = parse_poly("x", ctx)
    assert substitute(f, {"x": ctx.x(), "y": ctx.y()}) == f
    g = parse_poly("y^2 - x^2", ctx)
    h = substitute(parse_poly("y - x", ctx) * parse_poly("y + x", ctx),
                   {"x": ctx.x(), "y": ctx.y()})
    assert h == g
    # composition law: substituting g then h equals substituting g-after-h
    mid = LocalRingCtx(ctx.tower, ("s", "u"))
    tgt = LocalRingCtx(ctx.tower, ("a", "b"))
    g_imgs = {"x": parse_poly("s*u", mid), "y": parse_poly("s + u^2", mid)}
    h_imgs = {"s": parse_poly("a^2", tgt), "u": parse_poly("a + b", tgt)}
    composed = {"x": substitute(g_imgs["x"], h_imgs),
                "y": substitute(g_imgs["y"], h_imgs)}
    for text in ("x^2*y - 3*y", "x + y^3", "2 - x*y"):
        f = parse_poly(text, ctx)
        assert substitute(substitute(f, g_imgs), h_imgs) == \
            substitute(f, composed)


def _term_by_term(f, gx, gy, zero, lift):
    """Reference evaluation: one full product per term of f."""
    out = zero
    for (i, j), c in sorted(f.terms.items()):
        out = out + (gx ** i) * (gy ** j) * lift(f.ctx.coeff(c))
    return out


def _units(tower, ks=(1, 2, -1, 3)):
    """The nonzero scalars among ks, and the first two times each generator."""
    scalars = [tower.scalar(k) for k in ks]
    scalars = [c for c in scalars if not c.is_zero()]
    return scalars + [c * tower.gen(k) for c in scalars[:2]
                      for k in range(tower.height)]


def _random_poly(ctx, rng, terms, xdeg, ydeg, ks=(1, 2, -1, 3)):
    out = ctx.zero()
    scalars = _units(ctx.tower, ks)
    for _ in range(terms):
        out = out + ctx.monomial(rng.randint(0, xdeg), rng.randint(0, ydeg),
                                 rng.choice(scalars))
    return out


_KS = (1, 2, -1, 3)
# the ring kernels: raw numbers at height 0 (Q with whole and with proper
# fractions, GF(2), GF(3), GF(5)) and coordinate lists above it
KERNEL_CASES = [
    pytest.param(ResidueTower(QQ), _KS, id="Q"),
    pytest.param(ResidueTower(QQ),
                 (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), 3),
                 id="Q-frac"),
    pytest.param(ResidueTower(BaseField(2)), _KS, id="F2"),
    pytest.param(ResidueTower(BaseField(3)), _KS, id="F3"),
    pytest.param(ResidueTower(BaseField(5)), _KS, id="F5"),
    pytest.param(ResidueTower(QQ).extend("i", [1, 0]), _KS, id="Q(i)"),
    pytest.param(ResidueTower(BaseField(2)).extend("a", [1, 1]), _KS,
                 id="F2(a)"),
]


def _assert_canonical(*fs):
    """Every stored coefficient is a nonzero canonical rep: adding zero
    (which reduces mod p) leaves it as it is."""
    for f in fs:
        tower = f.ctx.tower
        zero = tower.zero().rep
        for c in f.terms.values():
            assert not tower.is_zero(c) and tower.add(c, zero) == c


@pytest.mark.parametrize("tower", [
    ResidueTower(QQ), ResidueTower(BaseField(3)),
    ResidueTower(QQ).extend("i", [1, 0])], ids=["Q", "F3", "Q(i)"])
def test_substitute_matches_term_by_term(tower):
    ctx = LocalRingCtx(tower, ("x", "y"))
    tgt = LocalRingCtx(tower, ("x1", "y1"))
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        f = _random_poly(ctx, rng, 6, 5, 4)
        images = {"x": _random_poly(tgt, rng, rng.randint(1, 3), 3, 2),
                  "y": _random_poly(tgt, rng, rng.randint(1, 4), 2, 3)}
        got = substitute(f, images)
        want = _term_by_term(f, images["x"], images["y"], tgt.zero(),
                             tgt.tower.lift)
        assert got == want
        checked += not got.is_zero()
    assert checked > 20


def _oracles():
    v1 = fixtures.v1()
    _, branch1, branch2, _ = fixtures.disc()
    g_r, g_s, _ = fixtures.def2()
    # name -> (oracle, sample size); the transported oracle has long series
    return {"v1": (v1.oracle, 60), "disc-branch1": (branch1, 60),
            "disc-branch2": (branch2, 60), "def2-r": (g_r.oracle, 60),
            "def2-s": (g_s.oracle, 60),
            "v1-transform": (free_transform(v1)[1].oracle, 15)}


@pytest.mark.parametrize("name", ["v1", "disc-branch1", "disc-branch2",
                                  "def2-r", "def2-s", "v1-transform"])
def test_series_evaluate_matches_term_by_term(name):
    emb, samples = _oracles()[name]
    xn, yn = emb.ctx.param_names
    gx, gy = emb.images[xn], emb.images[yn]
    tower = gx.tower
    zero = TruncSeries(tower, {}, Fraction(10 ** 9))
    rng = random.Random(29)
    for n in range(samples):
        f = _random_poly(emb.ctx, rng, 1 + n % 6, 4, 3)
        got = emb.evaluate(f)
        want = _term_by_term(f, gx, gy, zero, tower.lift)
        assert got.coeffs == want.coeffs
        assert got.trunc == want.trunc


@pytest.mark.parametrize("kind", ["ring", "tower"])
def test_power_forms_no_spare_products(monkeypatch, kind):
    tower = ResidueTower(QQ).extend("r", [-2, 0])
    if kind == "ring":
        cls, f = RingElem, parse_poly("x + 2*y - 1", LocalRingCtx(tower))
        one = f.ctx.one()
    else:
        cls, f, one = TowerElem, tower.gen("r") + 1, tower.one()
    real, products = cls.__mul__, []

    def counting(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(cls, "__mul__", counting)
    want = one
    # squarings: bit length - 1; multiplications: set bits - 1
    for n, count in enumerate([0, 0, 1, 2, 2, 3, 3, 4, 3]):
        products.clear()
        assert f ** n == want
        assert len(products) == count
        want = real(want, f)


def test_power_builds_one_only_for_the_zeroth_power(monkeypatch, ctx):
    f = parse_poly("x + 2*y - 1", ctx)
    real, built = LocalRingCtx.one, []

    def counting(self):
        built.append(1)
        return real(self)

    monkeypatch.setattr(LocalRingCtx, "one", counting)
    assert f ** 0 == real(ctx) and built == [1]
    want = f
    for n in range(1, 6):
        built.clear()
        assert f ** n == want and built == []
        want = want * f


def test_ring_equality_with_foreign_objects_is_false(ctx):
    x = ctx.x()
    for other in (None, "a", object(), 1.5):
        assert not (x == other) and x != other
    assert x in [None, x] and [None] != [x]
    assert ctx.one() == 1 and ctx.const(Fraction(1, 2)) == Fraction(1, 2)


def test_ring_equality_is_exact(ctx):
    x = ctx.x()
    assert x != 2 ** 61 * x  # hash(2**61) == hash(1)
    assert not (x == 2 ** 61 * x)
    assert len({x, 2 ** 61 * x}) == 2
    tower = ResidueTower(QQ).extend("r", [-2, 0])
    rctx = LocalRingCtx(tower)
    r = rctx.const(tower.gen("r"))
    a = (rctx.x() + r * rctx.y()) ** 3
    b = (rctx.x() ** 3 + r * 3 * rctx.x() ** 2 * rctx.y()
         + 6 * rctx.x() * rctx.y() ** 2 + r * 2 * rctx.y() ** 3)
    assert a == b and hash(a) == hash(b)


def test_substitute_respects_ring_ops_randomized(ctx):
    rng = random.Random(5)
    tgt = LocalRingCtx(ctx.tower, ("x1", "y1"))
    images = {"x": parse_poly("x1 + y1^2", tgt), "y": parse_poly("x1*y1", tgt)}

    def rand_poly():
        out = ctx.zero()
        for _ in range(4):
            out = out + ctx.monomial(rng.randint(0, 3), rng.randint(0, 2),
                                     rng.randint(-3, 3))
        return out

    for _ in range(25):
        f, g = rand_poly(), rand_poly()
        assert substitute(f + g, images) == substitute(f, images) + substitute(g, images)
        assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)


def test_series_value_fixture(ctx, v1_oracle):
    assert series_value(parse_poly("y^2 + x^3", ctx), v1_oracle) == Value(3)
    assert series_value(parse_poly("y^2 - x^3", ctx), v1_oracle) == Value(Fraction(7, 2))
    assert series_value(parse_poly("x", ctx), v1_oracle) == Value(1)
    assert series_value(parse_poly("y", ctx), v1_oracle) == Value(Fraction(3, 2))


def test_series_value_insufficient_precision(ctx):
    t = ctx.tower
    gx = TruncSeries(t, {2: t.one()}, 5)
    gy = TruncSeries(t, {3: t.one(), 4: t.one()}, 5)
    emb = SeriesEmbedding(ctx, {"x": gx, "y": gy})
    # (y^2 - x^3) - x^3*(something) pushing leading term past truncation
    deep = parse_poly("y^2 - x^3 - 2*x^2*y", ctx)  # image -t^8 + ..., order 8
    assert series_value(deep, emb) is INSUFFICIENT_PRECISION


def test_series_valuation_axioms_randomized(ctx, v1_oracle):
    rng = random.Random(13)

    def rand_poly():
        out = ctx.zero()
        for _ in range(5):
            out = out + ctx.monomial(rng.randint(0, 6), rng.randint(0, 4),
                                     rng.randint(-3, 3))
        return out

    checked = 0
    for _ in range(60):
        f, g = rand_poly(), rand_poly()
        if f.is_zero() or g.is_zero():
            continue
        vf, vg = series_value(f, v1_oracle), series_value(g, v1_oracle)
        vfg = series_value(f * g, v1_oracle)
        if INSUFFICIENT_PRECISION in (vf, vg, vfg):
            continue
        assert vfg == vf + vg
        s = f + g
        if not s.is_zero():
            vs = series_value(s, v1_oracle)
            if vs is not INSUFFICIENT_PRECISION:
                assert vs >= min(vf, vg)
                if vf != vg:
                    assert vs == min(vf, vg)
        checked += 1
    assert checked > 20


def test_order_mod_x(ctx):
    assert order_mod_x(parse_poly("y^2", ctx)) == 2
    assert order_mod_x(parse_poly("x*y", ctx)) is INFINITE
    assert order_mod_x(parse_poly("x^3 + y^5", ctx)) == 5


def test_divmod_y(ctx):
    f = parse_poly("y^3 + x*y + 2", ctx)
    g = parse_poly("y^2 - x^3", ctx)
    q, r = divmod_y(f, g)
    assert q * g + r == f
    assert r.y_degree() < 2


def test_whole_rationals_are_kept_as_ints(ctx):
    # Fraction inputs with whole results hold ints, as BaseField keeps them
    def whole(f):
        return f.terms and all(type(c) is int for c in f.terms.values())

    x, y, half = ctx.x(), ctx.y(), Fraction(1, 2)
    assert whole((x * half) * (y * 2))  # a product
    assert whole(x * Fraction(3, 2) + x * half)  # a row sum
    q, r = divmod_y(y ** 2 + x * y * Fraction(3, 2) + x ** 2 * Fraction(3, 2),
                    y + x * half)
    assert (q, r) == (y + x, x ** 2) and whole(q) and whole(r)
    g = GenSeq(ctx, [1, Fraction(3, 2), 4],  # P_2 = y^2 - x^3 / 2
               [KeyStep(1, 2, [TailTerm(-half, (3, 0))], Value(4))])
    terms = expand(y ** 2 + x ** 3 * half, g).grid_terms  # P_2 + x^3
    assert {e: c for c, e, _ in terms} == {(3, 0, 0): 1, (0, 0, 1): 1}
    assert all(type(c.rep) is int for c, _, _ in terms)


@pytest.mark.parametrize("tower, ks", KERNEL_CASES)
def test_divmod_y_random(tower, ks):
    ctx = LocalRingCtx(tower, ("x", "y"))
    rng = random.Random(11)

    def poly(terms, ydeg):
        return _random_poly(ctx, rng, terms, 5, ydeg, ks)

    checked = 0
    for _ in range(40):
        d = rng.randint(1, 4)
        g = poly(4, d - 1) + ctx.monomial(0, d, rng.choice(_units(tower, ks)))
        h = poly(5, 3)
        for f in (poly(8, 7), h * g, h * g + poly(3, d - 1), poly(3, d - 1)):
            q, r = divmod_y(f, g)
            _assert_canonical(q, r)
            assert _coeffs(f) == _tower_sum(_tower_product(q, g), _coeffs(r))
            assert (q * g + r - f).is_zero()
            assert r.y_degree() < d
            if f.y_degree() < d:
                assert q.is_zero() and (r - f).is_zero()
            checked += 1
        q, r = divmod_y(h * g, g)
        assert r.is_zero() and (q - h).is_zero()
    assert checked == 160


def _to_sympy(f, gens):
    """f as a sympy expression in the symbols ``gens`` = (x, y)."""
    import sympy
    x, y = gens
    return sum((sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                * x ** i * y ** j for (i, j), c in f.terms.items()),
               sympy.Integer(0))


def _from_sympy(poly, p):
    """The terms {(i, j): c} of a sympy Poly in (y, x), reduced mod p."""
    out = {}
    for (j, i), c in poly.as_dict().items():
        c = int(c) % p if p else Fraction(int(c.p), int(c.q))
        if c:
            out[(i, j)] = c
    return out


@pytest.mark.parametrize("p", [0, 2, 3], ids=["Q", "F2", "F3"])
def test_divmod_y_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    X, Y = sympy.symbols("x y")
    ctx = LocalRingCtx(ResidueTower(BaseField(p)), ("x", "y"))
    ks = (1, -1, 3) if p else (Fraction(1, 2), Fraction(-2, 3), 3)
    rng = random.Random(53)
    for _ in range(25):
        d = rng.randint(1, 4)
        g = (_random_poly(ctx, rng, 4, 4, d - 1, ks)
             + ctx.monomial(0, d, rng.choice(_units(ctx.tower, ks))))
        f = _random_poly(ctx, rng, 10, 5, 8, ks)
        q, r = divmod_y(f, g)
        # one divisor whose lex-leading term (y > x) is c*y^d: the
        # remainder has y-degree below d, as divmod_y's
        opts = {"modulus": p} if p else {"domain": "QQ"}
        fs, gs = (sympy.Poly(_to_sympy(h, (X, Y)), Y, X, **opts)
                  for h in (f, g))
        qs, rs = sympy.div(fs, gs)
        assert (q.terms, r.terms) == (_from_sympy(qs, p), _from_sympy(rs, p))


@pytest.mark.parametrize("p", [0, 3], ids=["Q", "F3"])
def test_substitute_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    X, Y, X1, Y1 = sympy.symbols("x y x1 y1")
    tower = ResidueTower(BaseField(p))
    ctx = LocalRingCtx(tower, ("x", "y"))
    tgt = LocalRingCtx(tower, ("x1", "y1"))
    ks = (1, -1, 3) if p else (Fraction(1, 2), Fraction(-2, 3), 3)
    rng = random.Random(59)
    opts = {"modulus": p} if p else {"domain": "QQ"}
    for _ in range(20):
        f = _random_poly(ctx, rng, 6, 4, 3, ks)
        images = {"x": _random_poly(tgt, rng, rng.randint(1, 3), 3, 2, ks),
                  "y": _random_poly(tgt, rng, rng.randint(1, 3), 2, 3, ks)}
        want = sympy.expand(_to_sympy(f, (X, Y)).subs(
            {X: _to_sympy(images["x"], (X1, Y1)),
             Y: _to_sympy(images["y"], (X1, Y1))}, simultaneous=True))
        got = substitute(f, images)
        assert got.terms == _from_sympy(sympy.Poly(want, Y1, X1, **opts), p)


def test_monomialize_check(ctx):
    f2ctx = LocalRingCtx(ResidueTower(BaseField(2)), ("x", "y"))
    u, v = parse_poly("x", f2ctx), parse_poly("y^2", f2ctx)
    mf = monomialize_check(u, v)
    assert isinstance(mf, MonomialForm)
    assert (mf.a, mf.b, mf.d) == (1, 0, 2)
    assert mf.f == parse_poly("y^2", f2ctx)

    res = monomialize_check(parse_poly("x^2", ctx), parse_poly("x^3 + x^3*y", ctx))
    assert isinstance(res, NotMonomial)

    mf2 = monomialize_check(parse_poly("x^2", ctx), parse_poly("x*y^3", ctx))
    assert (mf2.a, mf2.b, mf2.d) == (2, 1, 3)


def test_order_mod_x_multiplicative(ctx):
    rng = random.Random(23)
    for _ in range(40):
        f = ctx.zero()
        g = ctx.zero()
        for _ in range(3):
            f = f + ctx.monomial(rng.randint(0, 2), rng.randint(0, 3),
                                 rng.randint(-2, 2))
            g = g + ctx.monomial(rng.randint(0, 2), rng.randint(0, 3),
                                 rng.randint(-2, 2))
        if f.is_zero() or g.is_zero():
            continue
        of, og = order_mod_x(f), order_mod_x(g)
        if of is INFINITE or og is INFINITE:
            assert order_mod_x(f * g) is INFINITE
        else:
            assert order_mod_x(f * g) == of + og


def test_series_inverse(ctx):
    t = ctx.tower
    s = TruncSeries(t, {0: t.one(), 1: t.one()}, 10)  # 1 + t
    inv = s.inverse()
    prod = s * inv
    assert prod.order() == 0
    assert list(prod.coeffs) == [0]  # zeros are never stored


def test_shipped_series_encode_their_identities():
    # each identity holds below the truncation of the squared series
    def below(series, trunc):
        return {e: c for e, c in series.coeffs.items() if e < trunc}

    _, branch1, branch2, _ = fixtures.disc()
    tower = branch1.images["y"].tower
    # y^2 = x^2 * p(x^2) with p(u) = 1 + u + u^3 + u^7
    want = TruncSeries(tower, {e: tower.one() for e in (2, 4, 8, 16)}, 10 ** 9)
    for branch in (branch1, branch2):
        sq = branch.images["y"] * branch.images["y"]
        assert sq.trunc > 16
        assert below(sq, sq.trunc) == below(want, sq.trunc)
    # def2: v = y^2 through the extension u -> x, v -> y^2
    g_r, g_s, _ = fixtures.def2()
    sq = g_s.oracle.images["y"] * g_s.oracle.images["y"]
    v = g_r.oracle.images["v"]
    trunc = min(sq.trunc, v.trunc)
    assert below(sq, trunc) == below(v, trunc)
    assert max(v.coeffs) < trunc


def _coeffs(f):
    return {e: f.ctx.coeff(c) for e, c in f.terms.items()}


def _tower_sum(a, b):
    """Sum of two coefficient dicts in tower-element arithmetic."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return {e: c for e, c in out.items() if not c.is_zero()}


def _tower_product(f, g):
    """f * g's coefficients, one tower-element product per pair of terms."""
    out = {}
    for (i1, j1), a in _coeffs(f).items():
        for (i2, j2), b in _coeffs(g).items():
            out = _tower_sum(out, {(i1 + i2, j1 + j2): a * b})
    return out


@pytest.mark.parametrize("tower, ks", KERNEL_CASES)
def test_raw_rep_arithmetic_matches_tower_elements(tower, ks):
    ctx = LocalRingCtx(tower, ("x", "y"))
    rng = random.Random(31)
    checked = 0
    for _ in range(30):
        f = _random_poly(ctx, rng, 6, 4, 3, ks)
        g = _random_poly(ctx, rng, 5, 3, 3, ks)
        cf, cg = _coeffs(f), _coeffs(g)
        for got, want in ((f * g, _tower_product(f, g)),
                          (f + g, _tower_sum(cf, cg)),
                          (f - f, {}),
                          (-f, {e: -a for e, a in cf.items()})):
            _assert_canonical(got)
            assert _coeffs(got) == want
        if cf:
            inv = cf[min(cf)].inverse()
            assert _coeffs(f.leading_unit_normalized()) == \
                {e: a * inv for e, a in cf.items()}
            checked += 1
    assert checked > 20


def test_whole_fraction_coefficients_equal_ints(ctx):
    x = ctx.x()
    half = x * Fraction(1, 2)
    assert half + half == x and hash(half + half) == hash(x)


@pytest.mark.parametrize("tower", [
    ResidueTower(QQ), ResidueTower(QQ).extend("i", [1, 0])],
    ids=["Q", "Q(i)"])
def test_ring_arithmetic_creates_no_tower_elements(monkeypatch, tower):
    ctx = LocalRingCtx(tower, ("x", "y"))
    rng = random.Random(37)
    f = _random_poly(ctx, rng, 8, 4, 5)
    g = _random_poly(ctx, rng, 6, 3, 3)
    c = tower.gen(0) if tower.height else 2
    key = ctx.y() ** 2 + ctx.monomial(1, 1, c) - ctx.x() ** 3
    real, made = TowerElem.__init__, []

    def counting(self, tower, rep):
        made.append(1)
        real(self, tower, rep)

    monkeypatch.setattr(TowerElem, "__init__", counting)
    for op in (lambda: f * g, lambda: f + g, lambda: divmod_y(f, key)):
        made.clear()
        op()
        assert made == []


def test_coefficients_beyond_the_residue_field_are_refused():
    tower = ResidueTower(QQ).extend("i", [1, 0])
    i = tower.gen("i")
    small = LocalRingCtx(tower, ("u", "v"), ring_levels=0)
    for make in (lambda: small.const(i), lambda: small.monomial(1, 0, i)):
        with pytest.raises(ValueError, match="beyond the ring's residue field"):
            make()
    big = LocalRingCtx(tower, ("x", "y"), ring_levels=1)
    ext = ExtensionMap(big, small.x(), small.y() ** 2, 2)
    assert ext.apply(big.x() + big.y()) == small.x() + small.y() ** 2
    with pytest.raises(ValueError, match="beyond the ring's residue field"):
        ext.apply(big.x() + big.monomial(0, 1, i))


def test_evaluate_refuses_elements_of_another_ring(ctx, v1_oracle):
    other = LocalRingCtx(ctx.tower, ("u", "v"))
    twin = LocalRingCtx(ctx.tower, ("x", "y"))  # same names, another ring
    for f in (other.x(), twin.y()):
        with pytest.raises(ValueError, match="embedding's ring"):
            series_value(f, v1_oracle)
        with pytest.raises(ValueError, match="embedding's ring"):
            v1_oracle.evaluate(f)
    assert series_value(ctx.y(), v1_oracle) == Value(Fraction(3, 2))


def _geometric_inverse(s):
    """Reference inverse through tower elements, c0^-1 formed per term."""
    tower = s.tower
    e0 = min(s.coeffs)
    c0 = s.leading_coeff()
    u = TruncSeries(tower, {e - e0: TowerElem(tower, c) * c0.inverse()
                            for e, c in s.coeffs.items() if e != e0},
                    s.trunc - e0)
    acc = term = TruncSeries(tower, {0: tower.one()}, s.trunc - e0)
    k = 0
    while u.coeffs and k * min(u.coeffs) < acc.trunc:
        term = term * (-u)
        acc = acc + term
        k += 1
    return TruncSeries(tower, {e - e0: TowerElem(tower, c) * c0.inverse()
                               for e, c in acc.coeffs.items()},
                       acc.trunc - e0)


@pytest.mark.parametrize("name", ["v1", "disc-branch1", "def2-s"])
def test_series_inverse_inverts_the_leading_coefficient_once(monkeypatch,
                                                             name):
    emb = _oracles()[name][0]
    s = emb.images[emb.ctx.param_names[1]]
    want = _geometric_inverse(s)
    real, calls = TowerElem.inverse, []

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(TowerElem, "inverse", counting)
    got = s.inverse()
    assert len(calls) == 1
    assert got.coeffs == want.coeffs and got.trunc == want.trunc


@pytest.mark.parametrize("name", ["v1", "disc-branch1", "def2-s",
                                  "v1-transform"])
def test_embedding_forms_each_image_power_once(monkeypatch, name):
    oracle = _oracles()[name][0]
    images = dict(oracle.images)
    emb = SeriesEmbedding(oracle.ctx, images)
    x, y = emb.ctx.x(), emb.ctx.y()
    deep = x ** 5 * y ** 4 + 2 * x * y ** 3 - y + 3
    shallow = x * y + x - 1
    fresh = [SeriesEmbedding(emb.ctx, images).evaluate(f)
             for f in (deep, shallow, deep)]
    real, products = TruncSeries.__mul__, []

    def counting(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    got, counts = [], []
    for f in (deep, shallow, deep):
        products.clear()
        got.append(emb.evaluate(f))
        counts.append(len(products))
    for g, w in zip(got, fresh):
        assert g.coeffs == w.coeffs and g.trunc == w.trunc
    # the repeat is the image the first call kept: it forms no product
    assert counts[0] > 0 and counts[2] == 0
    assert all(emb.images[n] is g for n, g in images.items())
    assert emb.images == images


def _shipped_embeddings():
    return [(name, emb) for name in ("corn", "def2", "disc", "pi2", "v1")
            for emb in parse_scenario(
                valtool.scenario_path(name).read_text()).embeddings.values()]


def test_kept_images_equal_fresh_ones():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    shipped = _shipped_embeddings()
    assert len(shipped) >= 4

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data())
    def check(data):
        name, emb = data.draw(st.sampled_from(shipped))
        terms = data.draw(st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 4),
                      st.integers(-3, 3)), min_size=1, max_size=6))

        def build():  # a new element object on each call, all equal
            f = emb.ctx.zero()
            for i, j, c in terms:
                f = f + emb.ctx.monomial(i, j, c)
            return f

        fresh = SeriesEmbedding(emb.ctx, emb.images).evaluate(build())
        for _ in range(2):  # formed or kept, then kept under an equal key
            got = emb.evaluate(build())
            assert (got.coeffs, got.trunc) == (fresh.coeffs, fresh.trunc), \
                (name, terms)

    check()


def test_a_run_forms_each_image_once(monkeypatch):
    # over v1, def2 and disc, ring._evaluate runs once per distinct
    # (embedding, element) pair: the embedding is named by its power list
    calls = []
    real = ring._evaluate

    def counting(f, xp, yp, zero, lift):
        calls.append((xp, f))
        return real(f, xp, yp, zero, lift)

    monkeypatch.setattr(ring, "_evaluate", counting)
    for name in ("v1", "def2", "disc"):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["run", str(valtool.scenario_path(name))]) == 0
    assert calls
    for k, (xp, f) in enumerate(calls):
        assert not any(xq is xp and g == f for xq, g in calls[:k]), f


@pytest.mark.parametrize("tower, ks", KERNEL_CASES)
def test_ring_row_sum_matches_sequential_sum(tower, ks):
    ctx = LocalRingCtx(tower, ("x", "y"))
    rng = random.Random(41)
    # 5 is zero in GF(5): a scale that wipes its polynomial out
    scalars = [tower.scalar(k) for k in ks[:3] + (5,)]
    scalars += [c * tower.gen(0) for c in scalars[:2]] if tower.height else []
    checked = 0
    for _ in range(30):
        pairs = [(_random_poly(ctx, rng, rng.randint(0, 5), 4, 3, ks),
                  rng.choice(scalars)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:  # a pair that cancels
            p, c = pairs[0]
            pairs.append((p, -c))
        want = {}
        for p, c in pairs:
            want = _tower_sum(want, {e: a * c for e, a in _coeffs(p).items()})
        got = ctx.zero()._add_scaled([(p, ctx.rep(c)) for p, c in pairs])
        _assert_canonical(got)
        assert _coeffs(got) == want
        checked += not got.is_zero()
    assert checked > 20


def _random_series(tower, rng, terms, trunc):
    scalars = [tower.scalar(k) for k in (1, 2, -1, 3)]
    scalars = [c for c in scalars if not c.is_zero()]
    return TruncSeries(tower, {Fraction(rng.randint(0, 12), rng.choice((1, 2))):
                               rng.choice(scalars) for _ in range(terms)},
                       trunc)


@pytest.mark.parametrize("tower", [
    ResidueTower(QQ), ResidueTower(BaseField(3)),
    ResidueTower(QQ).extend("i", [1, 0])], ids=["Q", "F3", "Q(i)"])
def test_series_row_sum_matches_sequential_sum(tower):
    rng = random.Random(43)
    scalars = [tower.scalar(k) for k in (1, 2, -1)]
    zero = TruncSeries(tower, {}, Fraction(10 ** 9))
    for _ in range(40):
        pairs = [(_random_series(tower, rng, rng.randint(0, 5),
                                 Fraction(rng.randint(3, 14), rng.choice((1, 3)))),
                  rng.choice(scalars)) for _ in range(rng.randint(1, 4))]
        p, c = pairs[0]
        pairs.append((p, -c))  # cancels the first term below its truncation
        want = zero
        for p, c in pairs:
            want = want + p * c
        got = zero._add_scaled([(p, c.rep) for p, c in pairs])
        assert got.coeffs == want.coeffs
        assert got.trunc == want.trunc == min(p.trunc for p, _ in pairs)
    s = _random_series(tower, rng, 4, 9)
    gone = zero._add_scaled([(s, tower.one().rep), (s, (-tower.one()).rep)])
    assert gone.coeffs == {} and gone.trunc == 9


def _assert_normalised(s):
    assert isinstance(s.trunc, Fraction)
    for e, c in s.coeffs.items():
        assert isinstance(e, Fraction) and e < s.trunc
        # raw reps of the series' tower, as in RingElem.terms
        assert not isinstance(c, TowerElem) and not s.tower.is_zero(c)


@pytest.mark.parametrize("name", ["v1", "disc-branch1", "def2-s",
                                  "v1-transform"])
def test_series_arithmetic_results_are_normalised(name):
    emb = _oracles()[name][0]
    gx, gy = (emb.images[n] for n in emb.ctx.param_names)
    tower = gx.tower
    rng = random.Random(47)
    series = [gx, gy, gx * gy, gy - gx,
              _random_series(tower, rng, 5, Fraction(7, 2))]
    for a in series:
        results = [a + a, a - a, -a, a * a, a ** 2, a ** 3, a ** 0,
                   a * tower.scalar(2), a * tower.zero()]
        if a.coeffs:
            results += [a.inverse(), a ** -2]
        for b in series:
            results += [a + b, a - b, a * b]
        for s in results:
            _assert_normalised(s)
    # a sum reaching past the smaller truncation, and a full cancellation
    short = TruncSeries(tower, {1: tower.one()}, 3)
    long_ = TruncSeries(tower, {1: -tower.one(), 5: tower.one()}, 10)
    assert (short + long_).coeffs == {} and (short + long_).trunc == 3


def _inverse_cases():
    q, f3 = ResidueTower(QQ), ResidueTower(BaseField(3))
    qi = ResidueTower(QQ).extend("i", [1, 0])
    i = qi.gen("i")
    h = Fraction(1, 2)
    return {
        # u supported on {3/2, 7/3}: sums leave gaps below the truncation
        "gapped": TruncSeries(q, {0: q.one(), Fraction(3, 2): q.scalar(2),
                                  Fraction(7, 3): q.scalar(-1)}, 15),
        "mixed-denominators": TruncSeries(
            f3, {Fraction(-3, 4): f3.one(), Fraction(-1, 4): f3.scalar(2),
                 Fraction(2, 5): f3.one(), Fraction(7, 6): f3.scalar(2)},
            Fraction(9, 2)),
        # 71/7 is on no lattice the exponents generate
        "off-lattice-trunc": TruncSeries(
            q, {h: q.one(), Fraction(3, 2): q.one(), Fraction(13, 4): q.scalar(h)},
            Fraction(71, 7)),
        "non-unit-lead": TruncSeries(
            qi, {Fraction(5, 3): 3 * i + 1, 2: qi.scalar(2), 4: i},
            Fraction(29, 3)),
        "monomial": TruncSeries(q, {Fraction(-7, 2): q.scalar(5)}, 3),
    }


@pytest.mark.parametrize("name", sorted(_inverse_cases()))
def test_series_inverse_matches_geometric_series(monkeypatch, name):
    s = _inverse_cases()[name]
    want = _geometric_inverse(s)
    real, products = TruncSeries.__mul__, []

    def counting(a, b):
        products.append(1)
        return real(a, b)

    monkeypatch.setattr(TruncSeries, "__mul__", counting)
    got = s.inverse()
    assert products == []
    monkeypatch.undo()
    assert got.coeffs == want.coeffs and got.trunc == want.trunc
    _assert_normalised(got)
    one = s * got  # 1 below the product's truncation
    assert one.coeffs == {0: s.tower.one().rep}


def test_series_inverse_matches_geometric_series_on_random_series():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    towers = [ResidueTower(QQ), ResidueTower(BaseField(3)),
              ResidueTower(QQ).extend("i", [1, 0])]
    exps = st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 3, 4)))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        tower=st.sampled_from(towers),
        e0=st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3))),
        support=st.lists(exps, max_size=4),
        width=st.builds(Fraction, st.integers(1, 40), st.integers(1, 5)),
        picks=st.lists(st.integers(0, 5), min_size=5, max_size=5))
    def check(tower, e0, support, width, picks):
        scalars = [tower.scalar(k) for k in (1, 2, -1, 3, 5)]
        if tower.height:
            scalars.append(tower.gen(0) + 1)
        scalars = [c for c in scalars if not c.is_zero()]
        coeffs = {e0 + f: scalars[k % len(scalars)]
                  for f, k in zip(support, picks[1:])}
        coeffs[e0] = scalars[picks[0] % len(scalars)]
        s = TruncSeries(tower, coeffs, e0 + min(width, 8))
        got, want = s.inverse(), _geometric_inverse(s)
        assert got.coeffs == want.coeffs and got.trunc == want.trunc

    check()


def test_embedding_on_a_finer_grid_answers_in_t_units():
    ctx = LocalRingCtx(ResidueTower(QQ), ("x", "y"))
    tower = ctx.tower
    gx = TruncSeries(tower, {Fraction(3, 2): tower.one()}, Fraction(91, 3))
    gy = TruncSeries(tower, {Fraction(9, 4): tower.one(),
                             Fraction(8, 3): tower.scalar(2)}, Fraction(91, 3))
    emb = SeriesEmbedding(ctx, {"x": gx, "y": gy})
    assert emb._grid == 12
    assert emb.images["x"] is gx and emb.images["y"] is gy
    zero = TruncSeries(tower, {}, Fraction(10 ** 9))
    rng = random.Random(53)
    for n in range(40):
        f = _random_poly(ctx, rng, 1 + n % 6, 4, 3)
        got = emb.evaluate(f)
        want = _term_by_term(f, gx, gy, zero, tower.lift)
        _assert_normalised(got)
        assert got.coeffs == want.coeffs and got.trunc == want.trunc
    assert series_value(ctx.x(), emb) == Value(1)
    assert series_value(ctx.y(), emb) == Value(Fraction(3, 2))
    assert series_value(ctx.y() ** 2 - ctx.x() ** 3, emb) == Value(Fraction(59, 18))
    with pytest.raises(ValueError, match="nonzero order -3/4"):
        emb.residue_of_ratio([ctx.x(), ctx.y()], (1, 0), (0, 1))


def _schoolbook(f, g):
    """Reference height-0 product: one dict update per term pair."""
    p, out = f.ctx.tower.base.p, {}
    for (i1, j1), c1 in f.terms.items():
        for (i2, j2), c2 in g.terms.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    out = {e: c % p if p else c for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


_PACKED_BASES = {"Q": 0, "F2": 2, "F3": 3, "F2147483647": 2147483647}


def _packed_operand(ctx, rng, terms, coeffs):
    """A height-0 element with about ``terms`` terms in a few dense rows."""
    ydeg = rng.randint(0, 6)
    width = max(1, 2 * terms // (ydeg + 1))
    pick = {"small": lambda: rng.choice((1, -1, 2, -3)),
            "big": lambda: rng.randint(-2 ** 80, 2 ** 80),
            "frac": lambda: Fraction(rng.randint(-40, 40),
                                     rng.choice((1, 2, 3, 7, 12))),
            "whole": lambda: Fraction(rng.choice((1, -1, 2, -3))),
            "sign": lambda: rng.choice((1, -1))}[coeffs]
    # over Q, "frac" and "whole" keep whole values as Fractions, as
    # products of Fractions in the dict loop leave them
    rep = (Fraction if coeffs in ("frac", "whole") and not ctx.tower.base.p
           else ctx.rep)
    out = {}
    for _ in range(terms):
        j = rng.randint(0, ydeg)
        lo = rng.randint(0, 3 * j + 2)
        c = pick()
        if c:
            out[(rng.randint(lo, lo + width), j)] = rep(c)
    return RingElem(ctx, out)


def test_packed_product_matches_the_schoolbook_product():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    @hypothesis.given(base=st.sampled_from(sorted(_PACKED_BASES)),
                      coeffs=st.sampled_from(("small", "big", "frac", "whole",
                                              "sign")),
                      sizes=st.tuples(st.integers(1, 80), st.integers(1, 80)),
                      seed=st.integers(0, 2 ** 32))
    def check(base, coeffs, sizes, seed):
        p = _PACKED_BASES[base]
        if p and coeffs == "frac" and p in (2, 3):
            coeffs = "sign"  # denominators 2 and 3 do not exist there
        ctx = LocalRingCtx(ResidueTower(BaseField(p)))
        rng = random.Random(seed)
        f, g = (_packed_operand(ctx, rng, n, coeffs) for n in sizes)
        want = _schoolbook(f, g)
        # a square pairs each two distinct rows once
        packed, square = ring._packed_product(f, g), ring._packed_product(f, f)
        for got, ref in ((f * g, want), (packed, want),
                         (square, _schoolbook(f, f))):
            assert got.terms == ref
            _assert_canonical(got)
        # whole rationals come out as ints, as BaseField keeps them
        assert all(type(c) is int for h in (packed, square)
                   for c in h.terms.values() if Fraction(c).denominator == 1)
        # (f + g)(f - g) = f^2 - g^2: the cross terms cancel pairwise
        diff = ring._packed_product(f + g, f - g)
        assert diff.terms == _schoolbook(f + g, f - g)
        assert diff == square - ring._packed_product(g, g)

    check()


def test_packed_product_runs_from_the_cutoff(monkeypatch):
    ctx = LocalRingCtx(ResidueTower(QQ))
    rng = random.Random(3)
    f, g = (_packed_operand(ctx, rng, 60, "small") for _ in range(2))
    real, packed = ring._packed_product, []

    def counting(a, b):
        packed.append(len(a.terms) * len(b.terms))
        return real(a, b)

    monkeypatch.setattr(ring, "_packed_product", counting)
    pairs = len(f.terms) * len(g.terms)
    for cutoff, runs in ((pairs, True), (pairs + 1, False)):
        monkeypatch.setattr(ring, "PACKED_MIN_PAIRS", cutoff)
        packed.clear()
        assert (f * g).terms == _schoolbook(f, g)
        assert packed == ([pairs] if runs else [])


@pytest.mark.parametrize("p", [0, 3], ids=["Q", "F3"])
def test_square_of_a_depth_6_chain_key_matches_sympy(p):
    sympy = pytest.importorskip("sympy")
    X, Y = sympy.symbols("x y")
    key = _chain(6, BaseField(p)).keys[-1]
    assert len(key.terms) ** 2 >= ring.PACKED_MIN_PAIRS
    # the key's coefficients are integers: square over ZZ (sympy's QQ and
    # GF(p) squares take seconds here) and reduce mod p
    assert all(type(c) is int for c in key.terms.values())
    square = sympy.Poly.from_dict({(j, i): c for (i, j), c in
                                   key.terms.items()}, Y, X, domain="ZZ") ** 2
    want = {(i, j): int(c) % p if p else int(c)
            for (j, i), c in square.as_dict().items()}
    assert (key * key).terms == {e: c for e, c in want.items() if c}
