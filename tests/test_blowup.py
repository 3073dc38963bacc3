import copy
import gc
import random
from fractions import Fraction

import pytest

import valtool
from valtool import blowup, fixtures
from valtool.blowup import (
    TransformError,
    TransformMap,
    _chart_exponents,
    free_transform,
    iterate_transforms,
    shift_table,
    strict_transform,
    transform_value_table,
)
from valtool.extension import ExtensionMap, ramification_report
from valtool.genseq import GenSeq, InsufficientGeneratingData, KeyStep, TailTerm, evaluate, expand, initial_form, monic_of_degree, sigma_indices, step_from_tail, validate_sequence
from valtool.graded import fingen_detect
from valtool.ring import LocalRingCtx, RingElem, SeriesEmbedding, TruncSeries, divmod_y, monomialize_check, parse_poly, substitute
from valtool.scenario import parse_scenario
from valtool.towers import QQ, BaseField, ResidueTower, TowerElem
from valtool.values import INFINITE, Value

from test_genseq import _SCENARIOS, _chain_cell, _shipped
from test_graded import _chain, _v1_declared
from test_reports import _reparametrised


@pytest.fixture
def v1():
    return fixtures.v1()


def test_v1_chart(v1):
    tmap, tgt = free_transform(v1)
    assert (tmap.a, tmap.b) == (1, 2)
    assert (tmap.nbar, tmap.w) == (2, 3)
    # x = x1^2 y1, y = x1^3 y1^2 (in recentered coordinates y1 = z + 1)
    z = tgt.ctx.y()
    unit = z + tgt.ctx.one()
    assert tmap.x_image == tgt.ctx.x() ** 2 * unit
    assert tmap.y_image == tgt.ctx.x() ** 3 * unit ** 2
    assert tmap.exceptional_value == Value(Fraction(1, 2))


def test_v1_strict_transforms(v1):
    tmap, tgt = free_transform(v1)
    st = strict_transform(parse_poly("y^2 - x^3", v1.ctx), tmap)
    assert st == tgt.ctx.y()
    # exceptional directions collapse to units
    assert strict_transform(parse_poly("x", v1.ctx), tmap).is_unit()
    assert strict_transform(parse_poly("y", v1.ctx), tmap).is_unit()


def test_v1_target_sequence(v1):
    tmap, tgt = free_transform(v1)
    assert tgt.values == [Value(Fraction(1, 2)), Value(Fraction(1, 2))]
    assert validate_sequence(tgt).ok
    # transported residue: alpha_1(target) = alpha_2(source) = 2
    assert tgt.level(1).residue == tgt.ctx.tower.scalar(2)
    assert tgt.level(1).group_jump == 1


def test_shift_identities_v1(v1):
    _, tgt = free_transform(v1)
    rows = shift_table(v1, tgt)
    assert rows and all(r.ok for r in rows)
    assert rows[0].jump == (1, 1)  # jump(target 1) = jump(source 2)


def test_shift_table_flags_a_forged_target_value(v1):
    _, tgt = free_transform(v1)
    forged = copy.copy(tgt)
    forged.values = list(tgt.values)
    forged.values[1] = tgt.values[1] + Value(1)
    rows = shift_table(v1, forged)
    assert len(rows) == 1 and not rows[0].ok
    assert rows[0].value == (forged.values[1], tgt.values[1])
    assert repr(rows[0]).endswith("  MISMATCH")
    assert all(r.ok for r in shift_table(v1, tgt))


def test_shift_identities_corn():
    corn = fixtures.corn()
    tmap, tgt = free_transform(corn)
    assert [k for k in tgt.keys[2:]] == [parse_poly("y1^2 - x1*y1 - x1", tgt.ctx)]
    assert tgt.values == [Value(Fraction(1, 2)), Value(Fraction(1, 4)),
                          Value(Fraction(7, 8))]
    rows = shift_table(corn, tgt)
    assert all(r.ok for r in rows)
    assert [r.jump for r in rows] == [(2, 2), (2, 2)]
    assert [r.power for r in rows] == [(2, 2), (2, 2)]
    assert validate_sequence(tgt).ok


def test_degenerate_quadratic_transform():
    # jump 1, w 1 gives the ordinary quadratic transform x1 = x, y1 = y/x
    g_r, g_s, _ = fixtures.def2()
    tmap, tgt = free_transform(g_s)
    assert (tmap.nbar, tmap.w, tmap.a, tmap.b) == (1, 1, 0, 1)
    assert tmap.x_image == tgt.ctx.x()
    assert validate_sequence(tgt).ok
    # target keys are the shifted partial sums
    assert tgt.values == [Value(1), Value(1), Value(3), Value(7), Value(15)]


def test_value_preservation_under_transform(v1):
    tmap, tgt = free_transform(v1)
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        f = v1.ctx.zero()
        for _ in range(4):
            f = f + v1.ctx.monomial(rng.randint(0, 5), rng.randint(0, 3),
                                    rng.randint(-2, 2))
        if f.is_zero():
            continue
        try:
            before = evaluate(f, v1)
        except InsufficientGeneratingData:
            continue
        img = tmap.to_target(f)
        drop = img.x_order()
        rest = img.shift(-drop, 0)
        try:
            after = evaluate(rest, tgt)
        except InsufficientGeneratingData:
            continue
        assert before == after + tmap.exceptional_value * drop
        checked += 1
    assert checked > 15


def test_transform_value_bookkeeping(v1):
    tmap, _ = free_transform(v1)
    # terms of y^2 + x^3 relative to key level 2 (value 7/2): both lie below,
    # so the table is empty; against level 1 the x^3 term transforms deeper
    rows = transform_value_table(v1, tmap, parse_poly("x^3 + x^2*y", v1.ctx), 1)
    assert rows and all(ok for _, _, _, ok in rows)
    for exps, t, lam, ok in rows:
        assert t > lam


def test_transform_exceptional_case():
    # jump = w = 1: the monomial x against level 1 transforms with t == lam
    g_r, _, _ = fixtures.def2()
    tower = ResidueTower(QQ)
    ctx = LocalRingCtx(tower, ("x", "y"))
    g = GenSeq(ctx, [Value(1), Value(1), Value(2)],
               steps=[KeyStep(1, 1, [TailTerm(tower.scalar(-1), (1, 0))],
                              Value(2))],
               residues={1: tower.one(), 2: tower.one()})
    tmap, _ = free_transform(g)
    rows = transform_value_table(g, tmap, parse_poly("x", ctx), 1)
    assert len(rows) == 1
    exps, t, lam, ok = rows[0]
    assert ok and t == lam


def test_iterate_truncates_with_reason(v1):
    rec = iterate_transforms(v1, 3)
    assert len(rec) == 1
    assert "insufficient keys" in rec.truncated_reason
    rec0 = iterate_transforms(v1, 0)
    assert len(rec0) == 0 and rec0.truncated_reason is None


def test_iterate_multi_step_chain():
    # all-power-1 sequences chain indefinitely; each step re-validates
    _, g_s, _ = fixtures.def2()
    rec = iterate_transforms(g_s, 3)
    assert len(rec) == 3 and rec.truncated_reason is None
    assert all(step.ok() for step in rec.steps)
    assert rec.steps[-1].target.values == [Value(1), Value(4), Value(12)]
    assert validate_sequence(rec.steps[-1].target).ok
    dot = rec.dot()
    assert dot[0].startswith("digraph")


def test_iterate_corn_truncates_at_nonpolynomial_chart():
    # the second transported key picks up a unit factor (1 - x) that no
    # polynomial coordinate change absorbs; the chain stops honestly
    rec = iterate_transforms(fixtures.corn(), 2)
    assert len(rec) == 1
    assert "does not normalize" in rec.truncated_reason
    assert rec.steps[0].ok()


def test_transform_requires_keys():
    tower = ResidueTower(QQ)
    ctx = LocalRingCtx(tower, ("x", "y"))
    bare = GenSeq(ctx, [Value(1), Value(Fraction(3, 2))])
    with pytest.raises(TransformError):
        free_transform(bare)


def test_residue_field_degree_row(v1):
    rec = iterate_transforms(v1, 1)
    assert rec.steps[0].residue_extension == 1


def test_strict_transform_rejects_zero(v1):
    tmap, _ = free_transform(v1)
    with pytest.raises(ValueError):
        strict_transform(v1.ctx.zero(), tmap)


def test_residue_outside_the_ring_raises_the_target_height():
    # residue i of y/x over a ring with residue field Q: the target ring
    # must see Q(i) to recenter, and then the key splits as Z*(Z + 2i)
    tower = ResidueTower(QQ).extend("i", [1, 0])
    ctx = LocalRingCtx(tower, ("x", "y"), ring_levels=0)
    g = GenSeq(ctx, [Value(1), Value(1), Value(3)],
               steps=[KeyStep(1, 2, [TailTerm(tower.one(), (2, 0))],
                              Value(3))],
               residues={1: tower.gen("i")})
    rec = iterate_transforms(g, 1)
    assert len(rec) == 0
    assert rec.truncated_reason.startswith(
        "strict transform of key 2 does not normalize")


def _strip_by_division(f, unit):
    """Reference: divide out the largest exact power of (Z + alpha)."""
    while True:
        q, r = divmod_y(f, unit)
        if r.is_zero() and not q.is_zero():
            f = q
        else:
            return f


_BASES = {"Q": QQ, "GF2": BaseField(2), "GF3": BaseField(3)}


@pytest.mark.parametrize("name", ["v1", "corn"] + [
    "chain%d-%s" % (depth, base) for depth in (1, 2, 3) for base in _BASES])
def test_chart_reading_matches_trial_division(name):
    if name.startswith("chain"):
        depth, base = name[5:].split("-")
        g = _chain(int(depth), _BASES[base])
    else:
        g = getattr(fixtures, name)()
    tmap, tgt = free_transform(g)
    xn, yn = g.ctx.param_names
    images = {xn: tmap.x_image, yn: tmap.y_image}
    # the transform's extension map applies through the chart, too
    ext = tmap.extension()
    assert (ext.u_image, ext.v_image) == (tmap.x_image, tmap.y_image)
    unit = tgt.ctx.y() + tgt.ctx.const(tmap.alpha_lift)
    rng = random.Random(name)
    stripped = 0
    for _ in range(12):
        f = g.ctx.zero()
        for _ in range(rng.randint(1, 3)):
            exps = [rng.randint(0, 3)] + [rng.randint(0, 1)
                                          for _ in g.keys[1:]]
            f = f + (g.monomial(exps) * g.ctx.x() ** rng.randint(0, 2)
                     * g.ctx.const(rng.choice((1, -1, 2))))
        if f.is_zero():
            continue
        img = substitute(f, images)
        assert tmap.to_target(f) == img
        assert ext.apply(f) == img
        shifted = img.shift(-img.x_order(), 0)
        reference = _strip_by_division(shifted, unit)
        stripped += reference != shifted
        assert strict_transform(f, tmap) == reference.leading_unit_normalized()
    assert stripped  # some element carried a power of (Z + alpha)


# -- a chart-and-shift reference, by ring substitution ---------------------------

def _chart(tmap, f):
    """Reference chart of f: X^n * U^a and X^w * U^b substituted for x and
    y in an (X, U) ring of the test's own."""
    target = tmap.target_ctx
    chart = LocalRingCtx(target.tower, ("X", "U"),
                         ring_levels=target.ring_levels)
    xn, yn = tmap.source_ctx.param_names
    return substitute(f, {xn: chart.monomial(tmap.nbar, tmap.a),
                          yn: chart.monomial(tmap.w, tmap.b)})


def _recentred(tmap, h):
    """Reference recentring of a chart element: X and Z + alpha
    substituted for X and U."""
    ctx = tmap.target_ctx
    return substitute(h, {"X": ctx.x(),
                          "U": ctx.y() + ctx.const(tmap.alpha_lift)})


def _strict_reference(tmap, h):
    """A chart element with its powers of X and U cleared, recentred."""
    return _recentred(tmap, h.shift(-h.x_order(), -min(j for _, j in h.terms)))


def _chart_terms(tmap, f):
    """The map's own chart of f, read off its pieces, as chart terms."""
    return {(s, t): c for c, s, t, _ in tmap._pieces(f)}


_QI = ResidueTower(QQ).extend("i", [1, 0])


_BUILT_MAPS = ["v1", "corn"] + ["chain%d-%s-%d" % (d, b, r) for d in (1, 2, 3)
                                 for b in _BASES for r in (1, 2)]


def _built_map(case):
    """The map free_transform builds on a fixture or a chain cell."""
    if case.startswith("chain"):
        depth, base, rank = case[5:].split("-")
        g = _chain_cell(int(depth), base, int(rank))
    else:
        g = getattr(fixtures, case)()
    return free_transform(g)[0]


@pytest.mark.parametrize("tower, alpha, nbar, w", [
    (ResidueTower(QQ), 2, 2, 3),
    (ResidueTower(QQ), Fraction(-1, 3), 3, 2),
    # U-degrees reach 3 and more, so C(3, 1) and C(3, 2) vanish mod 3
    (ResidueTower(BaseField(3)), 2, 2, 3),
    (ResidueTower(BaseField(2)), 1, 3, 1),
    (_QI, _QI.gen("i"), 2, 1),
] + [(None, case, None, None) for case in _BUILT_MAPS],
    ids=["Q-2", "Q-minus-1/3", "GF3-2", "GF2-1", "Qi-i"] + _BUILT_MAPS)
def test_recentring_matches_ring_substitution(tower, alpha, nbar, w):
    if tower is None:  # a map free_transform builds
        tmap = _built_map(alpha)
        src, tgt = tmap.source_ctx, tmap.target_ctx
        tower, alpha = tgt.tower, tmap.alpha_lift
        nbar, w, a, b = tmap.nbar, tmap.w, tmap.a, tmap.b
    else:
        src = LocalRingCtx(tower, ("x", "y"))
        tgt = LocalRingCtx(tower, ("x1", "y1"))
        alpha = alpha if isinstance(alpha, TowerElem) else tower.scalar(alpha)
        a, b = _chart_exponents(nbar, w)
        tmap = TransformMap(src, tgt, nbar, w, a, b, alpha, Value(1))
    X, unit = tgt.x(), tgt.y() + tgt.const(alpha)

    def product(*factors):
        out = tgt.one()
        for base, e in factors:
            for _ in range(e):
                out = out * base
        return out

    assert tmap.x_image == product((X, nbar), (unit, a))
    assert tmap.y_image == product((X, w), (unit, b))
    # the reference charts and recentres by substitution: X^n U^a and
    # X^w U^b for x and y, then X and Z + alpha for X and U
    images = {"x": tmap.x_image, "y": tmap.y_image}
    coeffs = [tower.scalar(c) for c in (1, -1, 2, Fraction(1, 5))]
    coeffs += [alpha, alpha + 1] if tower.height else []
    rng = random.Random("%r %r" % (tower, alpha))
    top_u_degrees = set()
    for _ in range(20):
        f = src.zero()
        for _ in range(rng.randint(1, 5)):
            f = f + src.monomial(rng.randint(0, 4), rng.randint(0, 3),
                                 rng.choice(coeffs))
        if f.is_zero():
            continue
        h = _chart(tmap, f)
        assert _chart_terms(tmap, f) == h.terms
        top_u_degrees.add(h.y_degree())
        assert tmap.to_target(f) == _recentred(tmap, h)
        assert tmap.to_target(f) == substitute(f, images)
        assert strict_transform(f, tmap) == \
            _strict_reference(tmap, h).leading_unit_normalized()
    assert max(top_u_degrees) >= max(3, tower.base.p)


# -- the piece sum ------------------------------------------------------------------

_PIECE_TOWERS = {"Q": ResidueTower(QQ), "GF2": ResidueTower(BaseField(2)),
                 "GF3": ResidueTower(BaseField(3)), "Qi": _QI}


def test_sum_of_pieces_matches_multiplied_out_pieces():
    # c * X^s * (Z + alpha)^t * prod S_j^e_j, each piece multiplied out with
    # ring products and added up one by one; pieces repeat (s, t), have
    # t = 0, and carry S factors or none
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(_PIECE_TOWERS)))
        tower = _PIECE_TOWERS[name]
        scalars = [tower.scalar(c) for c in (1, -1, 2, Fraction(1, 5))]
        if tower.height:
            scalars += [tower.gen("i"), tower.gen("i") + 1]
        src = LocalRingCtx(tower, ("x", "y"))
        tgt = LocalRingCtx(tower, ("x1", "y1"))
        alpha = data.draw(st.sampled_from(scalars))
        tmap = TransformMap(src, tgt, 2, 3, 1, 2, alpha, Value(1))
        terms = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.sampled_from(scalars)),
                         min_size=1, max_size=3)
        keys = [None] + [sum((tgt.monomial(i, j, c)
                              for i, j, c in data.draw(terms)), tgt.zero())
                         for _ in range(data.draw(st.integers(0, 2)))]
        pieces = data.draw(st.lists(st.tuples(
            st.sampled_from(scalars), st.integers(0, 3), st.integers(0, 4),
            st.tuples(*[st.integers(0, 2)] * (len(keys) - 1))), max_size=8))
        want = tgt.zero()
        for c, s, t, strict in pieces:
            term = tgt.const(c)
            for base, e in [(tgt.x(), s), (tgt.y() + tgt.const(alpha), t)] + [
                    (keys[j], e) for j, e in enumerate(strict, 1)]:
                for _ in range(e):
                    term = term * base
            want = want + term
        got = blowup._sum_of_pieces(
            tmap, [(tgt.rep(c), s, t, strict) for c, s, t, strict in pieces],
            lambda j, e: keys[j] ** e)
        assert got == want, (name, pieces)

    check()


def test_repeated_images_form_no_unit_power_again(monkeypatch):
    # the map's powers of Z + alpha are formed once, for keys and elements
    # alike: a later image reuses every power below the highest one formed,
    # and an element's image then takes no ring product at all
    g = _chain_cell(3, "GF3", 1)
    tmap, _ = free_transform(g)
    x, y = g.ctx.x(), g.ctx.y()
    high = x ** 3 * y ** 4 + x * y ** 2 - 1  # U-degree 1*3 + 2*4 = 11
    kept = list(tmap.unit_powers)
    assert tmap.to_target(high) == substitute(
        high, {"x": tmap.x_image, "y": tmap.y_image})
    assert len(tmap.unit_powers) == 12
    assert all(p is q for p, q in zip(tmap.unit_powers, kept))
    kept, later = list(tmap.unit_powers), [high, x * y ** 3 + y, g.keys[3],
                                           x ** 2 + y ** 2]
    products = []
    mul = RingElem.__mul__
    monkeypatch.setattr(RingElem, "__mul__",
                        lambda f, h: products.append(h) or mul(f, h))
    for f in later:
        tmap.to_target(f)
        strict_transform(f, tmap)
        assert len(tmap.unit_powers) == len(kept)
        assert all(p is q for p, q in zip(tmap.unit_powers, kept))
    assert products == []


def test_free_transform_substitutes_only_into_the_chart(monkeypatch):
    """The chart is TransformMap's own map and recentring a sum over its
    powers of Z + alpha: free_transform makes no ring substitution at all."""
    import valtool
    calls = []

    def counting(f, images):
        calls.append(images)
        return substitute(f, images)

    patched = 0
    for module in vars(valtool).values():
        if getattr(module, "substitute", None) is substitute:
            monkeypatch.setattr(module, "substitute", counting)
            patched += 1
    assert patched  # the ring module at least
    g = _chain_cell(3, "Q", 1)
    free_transform(g)
    assert g.top > 2 and calls == []


def test_transform_map_refuses_a_chart_it_cannot_apply():
    """The chart's preconditions are checked once, when the map is built."""
    tower = ResidueTower(QQ)
    src, one = LocalRingCtx(tower, ("x", "y")), tower.one()
    tgt = LocalRingCtx(tower, ("x1", "y1"))
    tmap = TransformMap(src, tgt, 2, 3, 1, 2, one, Value(1))
    f = parse_poly("y^2 - x^3", src)
    h = _chart(tmap, f)
    assert h == parse_poly("X^6*U^4 - X^6*U^3", h.ctx)
    assert _chart_terms(tmap, f) == h.terms
    # a negative chart exponent, and a chart that is not unimodular
    for nbar, w, a, b in ((1, -1, 0, 1), (1, 0, -1, 1), (2, 3, 1, 1)):
        with pytest.raises(ValueError):
            TransformMap(src, tgt, nbar, w, a, b, one, Value(1))
    # coefficient reps pass through, so the target must share the source's
    # tower and keep at least its levels
    ext = tower.extend("i", [1, 0])
    for other in (LocalRingCtx(ext, ("x1", "y1")),
                  LocalRingCtx(ResidueTower(QQ), ("x1", "y1"))):
        with pytest.raises(ValueError):
            TransformMap(src, other, 2, 3, 1, 2, one, Value(1))
    low = LocalRingCtx(ext, ("x1", "y1"), ring_levels=0)
    with pytest.raises(ValueError):
        TransformMap(LocalRingCtx(ext), low, 1, 0, 0, 1, ext.one(), Value(1))


# -- the transform's extension map, on what the detector reads --------------------

_DETECT_CELLS = ([(d, b, 1) for d in (1, 2, 3) for b in _BASES]
                 + [(d, b, 2) for d in (1, 2) for b in _BASES])


@pytest.mark.parametrize("cell", _DETECT_CELLS, ids=lambda c: "d%d-%s-%d" % c)
def test_the_transform_extension_forms_its_images_on_first_read(cell,
                                                                monkeypatch):
    g = _chain_cell(*cell)
    tmap, target = free_transform(g)
    calls = []
    to_target = TransformMap.to_target

    def counting(self, f):
        calls.append(f)
        return to_target(self, f)

    monkeypatch.setattr(TransformMap, "to_target", counting)
    ext = tmap.extension()
    fingen_detect(g, target, ext, 6)
    assert calls == []
    monkeypatch.undo()
    # once read, they are the images an eagerly built map holds
    x, y = g.ctx.x(), g.ctx.y()
    eager = ExtensionMap(g.ctx, tmap.to_target(x), tmap.to_target(y),
                         field_degree=1, unique=True)
    assert (ext.u_image, ext.v_image) == (eager.u_image, eager.v_image)
    assert ext.target_ctx is eager.target_ctx is target.ctx
    assert repr(ext) == repr(eager)
    f = g.keys[-1] + x * y - y ** 3
    assert ext.apply(f) == eager.apply(f) == tmap.to_target(f)
    assert (ext.field_degree, ext.unique) == (1, True)


@pytest.mark.parametrize("base", sorted(_BASES))
def test_the_transform_extension_ramifies_without_its_images(base,
                                                              monkeypatch):
    # chain-detect's ramify tasks: the local-degree route reads the chart's
    # monomial form, so no image is formed; the route line is the one
    # monomialize_check gives on the images
    g = _chain_cell(1, base, 1)
    tmap, target = free_transform(g)
    calls = []
    to_target = TransformMap.to_target

    def counting(self, f):
        calls.append(f)
        return to_target(self, f)

    monkeypatch.setattr(TransformMap, "to_target", counting)
    ext = tmap.extension()
    report = ramification_report(g, target, ext, depth=6)
    assert calls == []
    monkeypatch.undo()
    want = monomialize_check(tmap.x_image, tmap.y_image)
    assert not want and not ext.monomial_form()
    assert report.routes["local-degree"] == "not applicable: %s" % want.reason
    assert (report.e, report.f, report.delta) == (1, 1, 0)


def test_a_chart_whose_y_image_is_a_unit_is_refused(monkeypatch):
    # n = 1, w = 0: y = U is a unit, and the map is refused before any image
    # is formed, in the words an eager map uses
    tower = ResidueTower(QQ)
    src, tgt = LocalRingCtx(tower, ("x", "y")), LocalRingCtx(tower, ("x1", "y1"))
    tmap = TransformMap(src, tgt, 1, 0, 0, 1, tower.scalar(2), Value(1))
    words = r"^images must be non-units \(domination\)$"
    calls = []
    to_target = TransformMap.to_target
    monkeypatch.setattr(TransformMap, "to_target",
                        lambda self, f: calls.append(f) or to_target(self, f))
    with pytest.raises(ValueError, match=words):
        tmap.extension()
    assert calls == []
    monkeypatch.undo()
    assert tmap.y_image.is_unit() and not tmap.x_image.is_unit()
    with pytest.raises(ValueError, match=words):
        ExtensionMap(src, tmap.x_image, tmap.y_image, field_degree=1)


class _KeySpy(list):
    """A sequence's keys that record the index of every key read."""

    def __init__(self, keys):
        super().__init__(keys)
        self.read = set()

    def __getitem__(self, i):
        span = range(len(self))
        self.read.update(span[i] if isinstance(i, slice) else [span[i]])
        return super().__getitem__(i)

    def __iter__(self):
        self.read.update(range(len(self)))
        return super().__iter__()


@pytest.mark.parametrize("cell", [(d, b, r) for d in (1, 2, 3, 4)
                                  for b in _BASES for r in (1, 2)],
                         ids=lambda c: "d%d-%s-%d" % c)
def test_the_detect_path_reads_no_source_key_past_y(cell):
    # the gate of keys formed on demand: transforming a chain, detecting
    # against the transform and reporting e, f and delta read no source
    # key P_k with k >= 2
    g = _chain_cell(*cell)
    spy = g.keys = _KeySpy(g.keys)
    tmap, target = free_transform(g)
    ext = tmap.extension()
    fingen_detect(g, target, ext, 6)
    report = ramification_report(g, target, ext, depth=6)
    assert report.e >= 1 and g.top >= 2
    assert {k for k in spy.read if k >= 2} == set(), cell


# -- one transform per sequence -------------------------------------------------

def test_second_free_transform_returns_the_same_pair(v1):
    tmap, target = free_transform(v1)
    again = free_transform(v1)
    assert again[0] is tmap and again[1] is target
    assert iterate_transforms(v1, 1).steps[0].map is tmap


@pytest.mark.parametrize("name", ["def2", "disc"])
def test_extending_a_chain_builds_one_more_target(name, monkeypatch):
    g = _shipped(name).valuations["nu"]
    built = []
    build = blowup._build_transform

    def counting(source):
        built.append(source)
        return build(source)

    monkeypatch.setattr(blowup, "_build_transform", counting)
    two = iterate_transforms(g, 2)
    assert len(two) == 2 and len(built) == 2
    three = iterate_transforms(g, 3)
    assert len(three) == 3 and len(built) == 3
    for old, new in zip(two.steps, three.steps):
        assert new.map is old.map and new.target is old.target


@pytest.mark.parametrize("forged, message", [
    ({"group_jump": None}, "first level has no finite group jump"),
    ({"group_jump": INFINITE}, "first level has no finite group jump"),
    ({"unit_exps": None}, "first level has no unit monomial"),
    ({"unit_exps": (4,)}, "jump 2 and unit exponent 4 are not coprime"),
], ids=["no jump", "rank jump", "no unit monomial", "not coprime"])
def test_a_first_level_with_no_chart_is_refused(monkeypatch, forged, message):
    # no valid sequence reaches these: the first level's data is forged
    g = fixtures.v1()
    for name, value in forged.items():
        monkeypatch.setattr(g.level(1), name, value)
    with pytest.raises(TransformError) as err:
        free_transform(g)
    assert str(err.value) == message


def test_recentering_without_the_first_residue_is_refused():
    g = _v1_declared([(-1, (3,))])  # no residue and no oracle
    with pytest.raises(TransformError) as err:
        free_transform(g)
    assert str(err.value) == "recentering needs the first-level residue"


def test_a_failed_transform_raises_on_every_call():
    target = iterate_transforms(fixtures.corn(), 1).steps[0].target
    messages = []
    for _ in range(2):
        with pytest.raises(TransformError) as err:
            free_transform(target)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "does not normalize" in messages[0]
    assert target._transform is None


# -- value tables against charted key products ----------------------------------

def _value_table_reference(g, tmap, f, level):
    """The rows, with t the X-order of each key monomial's chart image."""
    lam = _chart(tmap, g.keys[level]).x_order()
    rows = []
    for _, exps, value in expand(f, g).terms:
        sign = (value - g.values[level]).sign()
        top_idx = max((i for i, e in enumerate(exps) if e), default=0)
        if sign < 0 or (sign == 0 and top_idx >= level):
            continue
        t = _chart(tmap, g.monomial(exps)).x_order()
        exceptional = (level == 1 and tmap.nbar == tmap.w == 1
                       and tuple(exps) == (1,) + (0,) * (len(exps) - 1))
        rows.append((tuple(exps), t, lam, t > lam or (exceptional and t == lam)))
    return rows


def _value_tables_agree(g, seed):
    """Tables at every level of g against the reference; the row count."""
    tmap, _ = free_transform(g)
    rng = random.Random(seed)
    powers = [4] + [step.power for step in g.steps] + [2]
    rows = 0
    for level in range(g.top + 1):
        for _ in range(3):
            f = g.ctx.zero()
            for _ in range(rng.randint(1, 3)):
                exps = [rng.randrange(n) for n in powers]
                f = f + g.monomial(exps) * g.ctx.const(rng.choice((1, -1, 2)))
            if f.is_zero():
                continue
            got = transform_value_table(g, tmap, f, level)
            assert got == _value_table_reference(g, tmap, f, level), (g, level)
            rows += len(got)
    return rows


_TABLE_CELLS = [(d, base, rank) for d in (1, 2, 3, 4, 5)
                for base in ("Q", "GF2", "GF3") for rank in (1, 2)]


@pytest.mark.parametrize("cell", _TABLE_CELLS,
                         ids=lambda c: "d%d-%s-rank%d" % c)
def test_value_table_matches_charted_key_products(cell):
    g = _chain_cell(*cell)
    assert _value_tables_agree(g, "%r" % (cell,))


@pytest.mark.parametrize("name", _SCENARIOS)
def test_value_table_matches_on_shipped_valuations_and_their_targets(name):
    # the targets of iterate_transforms(g, 2) that have a transform of their
    # own are the sources of steps 2 and 3; a chain cell's target has none
    # (its second key does not normalize), so these are def2's and disc's
    rows = targets = 0
    for g in _shipped(name).valuations.values():
        rows += _value_tables_agree(g, name)
        for k, step in enumerate(iterate_transforms(g, 3).steps[1:], start=1):
            rows += _value_tables_agree(step.source, "%s target %d" % (name, k))
            targets += 1
    assert rows and targets == {"def2": 4, "disc": 3}.get(name, 0)


def test_value_table_matches_on_v1_and_the_degenerate_chart(v1):
    tower = ResidueTower(QQ)
    ctx = LocalRingCtx(tower, ("x", "y"))
    g = GenSeq(ctx, [Value(1), Value(1), Value(2)],
               steps=[KeyStep(1, 1, [TailTerm(tower.scalar(-1), (1, 0))],
                              Value(2))],
               residues={1: tower.one(), 2: tower.one()})
    assert _value_tables_agree(v1, "v1") and _value_tables_agree(g, "jump 1")
    tmap, _ = free_transform(g)
    x = ctx.x()
    assert transform_value_table(g, tmap, x, 1) == \
        _value_table_reference(g, tmap, x, 1) == [((1, 0, 0), 1, 1, True)]


def test_value_table_refuses_another_sequences_map(v1):
    f = parse_poly("x^3 + x^2*y", v1.ctx)
    one = v1.ctx.tower.one()
    other = GenSeq(v1.ctx, [Value(1), Value(1), Value(2)],
                   steps=[KeyStep(1, 1, [TailTerm(-1, (1, 0))], Value(2))],
                   residues={1: one, 2: one})
    tmap, _ = free_transform(other)
    with pytest.raises(ValueError, match="own transform"):
        transform_value_table(v1, tmap, f, 1)  # v1 has no transform yet
    free_transform(v1)
    with pytest.raises(ValueError, match="own transform"):
        transform_value_table(v1, tmap, f, 1)


# -- no reference cycles --------------------------------------------------------

def test_the_transform_paths_leave_no_cyclic_garbage():
    def work():
        g = _chain_cell(3, "Q", 1)
        assert validate_sequence(g).ok
        assert evaluate(g.keys[2] ** 2, g) == g.values[2] * 2
        tmap, target = free_transform(g)
        assert len(iterate_transforms(g, 2)) == 1  # the second fails
        assert transform_value_table(g, tmap, g.keys[3] * g.ctx.x(), 1)
        fingen_detect(g, target, tmap.extension(), 6)

    gc.collect()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        work()
        assert gc.collect() == 0, gc.garbage[:10]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        gc.enable()


# -- key images in closed form ----------------------------------------------------

_CLOSED_FORM_CASES = (
    [(d, b, r) for d in range(1, 6) for b in ("Q", "GF2", "GF3") for r in (1, 2)]
    + [(6, "Q", 1), "corn", "v1", "pi2 nu", "pi2 nu1", "pi2 nu2"])


@pytest.mark.parametrize("case", _CLOSED_FORM_CASES, ids=str)
def test_transform_gives_each_key_image_in_closed_form(case):
    # in(img P_k) = alpha^t_k * in(X)^o_k * in(P'_(k-1)) equals the initial
    # form of the expanded image, for every key whose image the target
    # prefix decides; every sigma key's image is decided
    if isinstance(case, tuple):
        g = _chain_cell(*case)
    elif case.startswith("pi2 "):
        g = _shipped("pi2").valuations[case[4:]]
    else:
        g = getattr(fixtures, case)()
    tmap, target = free_transform(g)
    ext = tmap.extension()
    sigma = set(sigma_indices(g))
    decided = 0
    for k in range(g.top + 1):
        closed = ext.initial_image(g, k, target)
        try:
            expanded = initial_form(ext.apply(g.keys[k]), target)
        except InsufficientGeneratingData:
            assert k not in sigma, (case, k)
            continue
        assert closed == expanded, (case, k)
        assert repr(closed) == repr(expanded), (case, k)
        decided += 1
    assert decided >= len(sigma)


def test_closed_form_needs_the_transforms_own_pair(monkeypatch):
    import valtool.genseq as genseq
    g = _chain_cell(3, "Q", 1)
    tmap, target = free_transform(g)
    ext = tmap.extension()
    # the same keys built again are another target, and another source
    twin = _read_back(target.ctx, target.values, target.keys,
                      [step.power for step in target.steps],
                      residues=target.declared_residues)
    source = _chain_cell(3, "Q", 1)
    for g_r, g_s in ((g, twin), (source, target)):
        assert all(ext.initial_image(g_r, k, g_s) is None
                   for k in range(g.top + 1))
    assert ExtensionMap(g.ctx, tmap.x_image, tmap.y_image, 1).initial_image(
        g, 0, target) is None
    real, calls = genseq.expand, []

    def counting_expand(f, h):
        calls.append(f)
        return real(f, h)

    monkeypatch.setattr(genseq, "expand", counting_expand)
    st = fingen_detect(g, twin, ext, 6)
    sigma = sigma_indices(g)
    assert calls == [ext.apply(g.keys[j]) for j in sigma]
    calls.clear()
    assert repr(fingen_detect(g, target, tmap.extension(), 6)) == repr(st)
    assert calls == []


# -- target steps from the source recursion ----------------------------------------

def _read_back(ctx, values, keys, powers, **kwargs):
    """A sequence on ``keys``, kept as given, each step read off its key's
    tail P_(i+1) - P_i^(n_i) by `step_from_tail`."""
    steps = [step_from_tail(keys, i, n, keys[i + 1] - keys[i] ** n,
                            values[i + 1])
             for i, n in enumerate(powers, start=1)]
    return GenSeq(ctx, values, steps, keys=keys, **kwargs)


def _chart_and_shift(g):
    """Reference transform: chart and recentre each whole source key,
    clear its powers of X and U, and read each target step back from the
    strict transforms with `_read_back`, with the residues and the oracle
    the transform passes on.  Returns the orders and the target, or the
    text of the `TransformError`."""
    if len(g.steps) < 1:
        return ("insufficient keys: the transform re-seeds from the key "
                "after the first level")
    lvl1 = g.level(1)
    if lvl1.group_jump is INFINITE or lvl1.group_jump is None:
        return "first level has no finite group jump"
    if lvl1.unit_exps is None:
        return "first level has no unit monomial"
    if lvl1.residue is None:
        return "recentering needs the first-level residue"
    nbar, w = lvl1.group_jump, lvl1.unit_exps[0]
    a, b = _chart_exponents(nbar, w)
    xn, yn = g.ctx.param_names
    ctx = LocalRingCtx(g.ctx.tower, (xn + "1", yn + "1"),
                       ring_levels=max(g.ctx.ring_levels,
                                       lvl1.residue.levels_used()))
    tmap = TransformMap(g.ctx, ctx, nbar, w, a, b, lvl1.residue,
                        g.values[0] / nbar)
    keys, values = [ctx.x()], [tmap.exceptional_value]
    orders, units = [nbar, w], [a, b]
    expected = w
    for i in range(1, g.top):
        expected *= g.step(i).power
        chart = _chart(tmap, g.keys[i + 1])
        drop = chart.x_order()
        if drop != expected:
            return ("exceptional power of key %d is %d, expected %d"
                    % (i + 1, drop, expected))
        orders.append(drop)
        units.append(min(j for _, j in chart.terms))
        stripped = _strict_reference(tmap, chart)
        deg = expected // (w * g.step(1).power)
        if not monic_of_degree(stripped, deg):
            return ("strict transform of key %d does not normalize to a "
                    "monic key of degree %d: %r" % (i + 1, deg, stripped))
        if i == 1 and stripped != ctx.y():
            return ("strict transform of key 2 is %r, not the recentered "
                    "parameter; the chart change is not polynomial"
                    % stripped)
        keys.append(stripped)
        values.append(g.values[i + 1] - tmap.exceptional_value * drop)
    one = g.ctx.tower.one()
    trivial = all(l.residue is None or l.residue == one for l in g.levels)
    target = _read_back(
        ctx, values, keys, [step.power for step in g.steps[1:]],
        residues={l.index - 1: l.residue for l in g.levels[1:]
                  if trivial and l.residue is not None},
        oracle=blowup._transport_oracle(g, tmap), terminal=g.terminal)
    return tuple(orders), tuple(units), target


def _same_transform(g):
    """free_transform(g) against the reference; the target, or None when
    both refuse g with the same text."""
    want = _chart_and_shift(g)
    try:
        tmap, target = free_transform(g)
    except TransformError as err:
        assert isinstance(want, str), (g, want)
        assert str(err) == want
        return None
    assert not isinstance(want, str), (g, want)
    orders, units, reference = want
    assert (tmap.key_orders, tmap.unit_orders) == (orders, units)
    assert target.values == reference.values
    assert [k.terms for k in target.keys] == [k.terms for k in reference.keys]
    for got, ref in zip(target.steps, reference.steps, strict=True):
        assert (got.index, got.power, got.next_value) == \
            (ref.index, ref.power, ref.next_value)
        assert [(t.coeff, t.exps) for t in got.tail] == \
            [(t.coeff, t.exps) for t in ref.tail], (g, got.index)
        assert repr(got.tail) == repr(ref.tail)
    assert [repr(l) for l in target.levels] == \
        [repr(l) for l in reference.levels]
    assert target.terminal == reference.terminal
    return target


def _reference_case(case):
    if isinstance(case, tuple):
        return _chain_cell(*case)
    if " " in case:
        name, valuation = case.split(" ")
        return _shipped(name).valuations[valuation]
    return _chain(7) if case == "chain7" else getattr(fixtures, case)()


_RECURSION_CASES = list(_CLOSED_FORM_CASES) + [
    "chain7", "def2 nu", "def2 nustar", "disc nu", "disc nustar"]


@pytest.mark.parametrize("case", _RECURSION_CASES, ids=str)
def test_target_steps_match_the_chart_and_shift_reference(case):
    # along the chain of transforms, as far as it goes; the step that
    # stops it must give the reference's text byte for byte
    g, built = _reference_case(case), 0
    while g is not None and built < 4:
        g = _same_transform(g)
        built += g is not None
    assert built >= 1
    if isinstance(case, tuple) and case[0] >= 2 or case in ("corn", "chain7"):
        assert built == 1  # the second key of a chain's target does not normalize


def test_target_steps_match_the_reference_on_perturbed_chains():
    # extra tail terms, powers and residues exercise the rewriting of
    # overflowing key powers and the refusals
    rng = random.Random(26)
    outcomes = set()
    for _ in range(60):
        g = _chain_cell(rng.randint(2, 4), rng.choice(["Q", "GF2", "GF3"]), 1)
        tower = g.ctx.tower
        steps = [g.steps[0]]
        for step in g.steps[1:]:
            tail = list(step.tail)[rng.random() < 0.3:]
            for _ in range(rng.randint(0, 3)):
                tail.append(TailTerm(tower.scalar(rng.randint(-2, 2)),
                                     [rng.randint(3, 14)] + [
                                         rng.randint(0, 2)
                                         for _ in range(step.index)]))
            power = step.power if rng.random() < 0.8 else rng.choice([1, 3])
            steps.append(KeyStep(step.index, power, tail, step.next_value))
        alpha = tower.scalar(rng.choice([1, 1, 2, -1]))
        h = GenSeq(g.ctx, g.values, steps, residues={1: alpha})
        outcomes.add(_same_transform(h) is not None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("cell", [(d, b, 1) for d in (3, 4, 5, 6)
                                  for b in ("Q", "GF2", "GF3")],
                         ids=lambda c: "d%d-%s" % c[:2])
def test_free_transform_charts_and_shifts_no_whole_key(cell, monkeypatch):
    g = _chain_cell(*cell)
    charted, imaged = [], []
    pieces, to_target = TransformMap._pieces, TransformMap.to_target
    monkeypatch.setattr(TransformMap, "_pieces",
                        lambda tmap, f: charted.append(f) or pieces(tmap, f))
    monkeypatch.setattr(TransformMap, "to_target",
                        lambda tmap, f: imaged.append(f) or to_target(tmap, f))
    tmap, target = free_transform(g)
    assert charted == []
    # no power of Z + alpha as high as a whole key's y-degree is formed
    assert len(tmap.unit_powers) <= g.keys[-1].y_degree(), tmap.unit_powers
    # the parameters' images are formed when read, not with the map
    assert imaged == []
    monkeypatch.undo()
    assert (tmap.x_image, tmap.y_image) == (
        tmap.to_target(g.ctx.x()), tmap.to_target(g.ctx.y()))


@pytest.mark.parametrize("cell", [(d, b, 1) for d in (2, 3, 4)
                                  for b in ("Q", "GF2", "GF3")],
                         ids=lambda c: "d%d-%s" % c[:2])
def test_target_steps_see_through_tail_terms_that_cancel(cell):
    # c*x^a*P_2 - c*x^a*y^2 + c*x^(a+3) is zero, so the keys do not change;
    # but those pieces lie below the leading one in X and U, and the sum of
    # the pieces is no longer S_k^n plus the rest
    g = _chain_cell(*cell)
    want = free_transform(g)[1]
    c = g.ctx.tower.scalar(2)
    for a in (0, 1, 2):
        zero = [TailTerm(c, (a, 0, 1)), TailTerm(-c, (a, 2)),
                TailTerm(c, (a + 3,))]
        steps = [g.steps[0]] + [
            KeyStep(s.index, s.power, list(s.tail) + zero, s.next_value)
            for s in g.steps[1:]]
        h = GenSeq(g.ctx, g.values, steps, residues=g.declared_residues)
        assert [k.terms for k in h.keys] == [k.terms for k in g.keys]
        got = _same_transform(h)
        assert [k.terms for k in got.keys] == [k.terms for k in want.keys]
        assert [[(t.coeff, t.exps) for t in s.tail] for s in got.steps] == \
            [[(t.coeff, t.exps) for t in s.tail] for s in want.steps]


@pytest.mark.parametrize(
    "case", [(d, b, 1) for d in range(2, 7) for b in ("Q", "GF2", "GF3")]
    + ["def2 nu", "def2 nustar", "disc nu", "disc nustar"], ids=str)
def test_target_steps_read_every_tail_with_step_from_tail(case, monkeypatch):
    # one reader of tails: each target step is read off its key by
    # step_from_tail, as the scenario parser reads a declared tail
    g, calls = _reference_case(case), []

    def counting(*args):
        calls.append(args[1])
        return step_from_tail(*args)

    monkeypatch.setattr(blowup, "step_from_tail", counting)
    target = free_transform(g)[1]
    assert calls == [step.index for step in target.steps]


@pytest.mark.parametrize("cell", [(d, b, 1) for d in range(2, 7)
                                  for b in ("Q", "GF2", "GF3")],
                         ids=lambda c: "d%d-%s" % c[:2])
def test_free_transform_forms_each_key_power_once(cell, monkeypatch):
    # S_k^n leads the sum of pieces and is taken off the key again for the
    # tail: one power serves both, as does one S_j^e for every piece
    g, formed = _chain_cell(*cell), []
    pow_ = RingElem.__pow__

    def counting(self, n):
        formed.append((self, n))
        return pow_(self, n)

    monkeypatch.setattr(RingElem, "__pow__", counting)
    free_transform(g)
    monkeypatch.undo()
    repeats = [pair for i, pair in enumerate(formed) if pair in formed[:i]]
    assert formed and not repeats, (len(repeats), len(formed))


# -- the transported oracle, formed on the source's integer grid ----------------

def _t_unit_oracle(g, tmap):
    """The reference: the transported oracle formed in t units, with
    Fraction-exponent powers and inverses of the source images."""
    xn, yn = g.ctx.param_names
    gx, gy = g.oracle.images[xn], g.oracle.images[yn]
    x1 = gx ** tmap.b * gy ** -tmap.a
    y1 = gx ** -tmap.w * gy ** tmap.nbar
    tower = x1.tower
    z1 = y1 - TruncSeries(tower, {Fraction(0): tower.lift(tmap.alpha_lift)},
                          y1.trunc)
    Xn, Zn = tmap.target_ctx.param_names
    return SeriesEmbedding(tmap.target_ctx, {Xn: x1, Zn: z1},
                           normalization=(Xn, tmap.exceptional_value))


@pytest.mark.parametrize("r, grid", [(1, 1), (Fraction(3, 4), 4),
                                     (Fraction(5, 3), 3)])
def test_transported_oracle_equals_the_t_unit_formula(r, grid):
    # v1 as shipped, and under t -> t^r, whose source grid is r's denominator
    text = _reparametrised(valtool.scenario_path("v1").read_text(), r)
    g = parse_scenario(text).valuations["nu"]
    assert g.oracle._grid == grid
    tmap, target = free_transform(g)
    want = _t_unit_oracle(g, tmap)
    for got in (target.oracle, blowup._transport_oracle(g, tmap)):
        assert got.images.keys() == want.images.keys()
        for name, s in want.images.items():
            assert (got.images[name].coeffs, got.images[name].trunc) == \
                (s.coeffs, s.trunc), name
        assert (got._grid, got.t_value) == (want._grid, want.t_value)
    assert validate_sequence(target).ok
