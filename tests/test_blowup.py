import gc
import random
from fractions import Fraction

import pytest

from valtool import fixtures
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
from valtool.genseq import GenSeq, InsufficientGeneratingData, KeyStep, TailTerm, evaluate, expand, validate_sequence
from valtool.graded import fingen_detect
from valtool.ring import LocalRingCtx, divmod_y, parse_poly, substitute
from valtool.towers import QQ, BaseField, ResidueTower, TowerElem
from valtool.values import Value

from test_genseq import _SCENARIOS, _chain_cell, _shipped
from test_graded import _chain


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


# -- recentring by a Taylor shift -----------------------------------------------

_QI = ResidueTower(QQ).extend("i", [1, 0])


@pytest.mark.parametrize("tower, alpha, nbar, w", [
    (ResidueTower(QQ), 2, 2, 3),
    (ResidueTower(QQ), Fraction(-1, 3), 3, 2),
    # U-degrees reach 3 and more, so C(3, 1) and C(3, 2) vanish mod 3
    (ResidueTower(BaseField(3)), 2, 2, 3),
    (ResidueTower(BaseField(2)), 1, 3, 1),
    (_QI, _QI.gen("i"), 2, 1),
], ids=["Q-2", "Q-minus-1/3", "GF3-2", "GF2-1", "Qi-i"])
def test_recentring_matches_ring_substitution(tower, alpha, nbar, w):
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
    # the reference recentres by substituting X and Z + alpha into the chart
    chart = LocalRingCtx(tower, ("X", "U"))
    chart_images = {"x": ((nbar, a), chart), "y": ((w, b), chart)}
    recentre = {"X": X, "U": unit}
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
        h = substitute(f, chart_images)
        top_u_degrees.add(h.y_degree())
        assert tmap.to_target(f) == substitute(h, recentre)
        assert tmap.to_target(f) == substitute(f, images)
        stripped = h.shift(-h.x_order(), -min(j for _, j in h.terms))
        assert strict_transform(f, tmap) == \
            substitute(stripped, recentre).leading_unit_normalized()
    assert max(top_u_degrees) >= 3


def test_free_transform_substitutes_only_into_the_chart(monkeypatch):
    """Recentring goes through the Taylor shift: every substitution left in
    free_transform sends the source parameters to chart monomials."""
    import valtool
    calls = []

    def counting(f, images):
        calls.append(images)
        return substitute(f, images)

    for module in vars(valtool).values():
        if getattr(module, "substitute", None) is substitute:
            monkeypatch.setattr(module, "substitute", counting)
    g = _chain_cell(3, "Q", 1)
    free_transform(g)
    # one chart image per transported key: keys 2 .. top
    assert len(calls) == g.top - 1
    assert all(isinstance(img, tuple)
               for images in calls for img in images.values())


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
    from_keys = GenSeq.from_keys.__func__

    def counting(cls, *args, **kwargs):
        built.append(args[0])
        return from_keys(cls, *args, **kwargs)

    monkeypatch.setattr(GenSeq, "from_keys", classmethod(counting))
    two = iterate_transforms(g, 2)
    assert len(two) == 2 and len(built) == 2
    three = iterate_transforms(g, 3)
    assert len(three) == 3 and len(built) == 3
    for old, new in zip(two.steps, three.steps):
        assert new.map is old.map and new.target is old.target


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
    lam = tmap._chart(g.keys[level]).x_order()
    rows = []
    for _, exps, value in expand(f, g).terms:
        sign = (value - g.values[level]).sign()
        top_idx = max((i for i, e in enumerate(exps) if e), default=0)
        if sign < 0 or (sign == 0 and top_idx >= level):
            continue
        t = tmap._chart(g.monomial(exps)).x_order()
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
