import functools
import gc
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from pathlib import Path
from types import SimpleNamespace

import pytest

import valtool
from valtool import fixtures, graded
from valtool.blowup import free_transform
from valtool.extension import (ExtensionMap, InconsistentRamification,
                               ramification_report)
from valtool.genseq import (
    GenSeq,
    InsufficientGeneratingData,
    KeyStep,
    LevelData,
    TailTerm,
    initial_form,
    reduced_representation,
    sigma_indices,
    validate_sequence,
)
from valtool.graded import (
    GradedElem,
    _products_of_value,
    fingen_detect,
    graded_piece_basis,
    graded_presentation,
    key_initial,
    subalgebra_membership,
)
from valtool.ring import LocalRingCtx, parse_poly
from valtool.scenario import parse_scenario
from valtool.towers import (
    QQ,
    BaseField,
    LinearSolver,
    ResidueTower,
    span_closure,
)
from valtool.values import INFINITE, Grid, Value

from subfields import field_index


@pytest.fixture
def v1():
    return fixtures.v1()


def P(g, text):
    return parse_poly(text, g.ctx)


def _graded_one(g):
    """The unit of g's graded ring, built as an element, not as a product."""
    return GradedElem(g, (0, 0), {(0,) * len(g.keys): g.ctx.tower.one()})


def _form(e):
    """What graded elements are equal by: one sequence, one grid point and
    equal coefficients on the reduced basis, where normal forms are unique."""
    return e.genseq, e.point, e.coeffs


def _combination(g, point, terms):
    """The sum of c * e over the (e, c) of ``terms``, all at ``point``."""
    out = {}
    for e, c in terms:
        assert (e.genseq, e.point) == (g, point)
        for exps, a in e.coeffs.items():
            out[exps] = out[exps] + a * c if exps in out else a * c
    return GradedElem(g, point, out)


# -- graded elements -------------------------------------------------------------

def test_graded_product_matches_initial_of_product(v1):
    rng = random.Random(43)
    for _ in range(25):
        f = v1.ctx.zero()
        g = v1.ctx.zero()
        for _ in range(3):
            f = f + v1.ctx.monomial(rng.randint(0, 4), rng.randint(0, 3),
                                    rng.randint(-2, 2))
            g = g + v1.ctx.monomial(rng.randint(0, 4), rng.randint(0, 3),
                                    rng.randint(-2, 2))
        if f.is_zero() or g.is_zero():
            continue
        try:
            a, b, ab = initial_form(f, v1), initial_form(g, v1), \
                initial_form(f * g, v1)
        except InsufficientGeneratingData:
            continue
        assert _form(graded._monomial(v1, [a, b], [1, 1])) == _form(ab)


def test_a_value_off_the_grid_is_refused_naming_the_sequence():
    # the message names the sequence by its repr, terminal or not
    for g, name in [
            (fixtures.v1(), "GenSeq(3 keys, values=[1, 3/2, 7/2])"),
            (fixtures.pi2()[1],
             "GenSeq(3 keys, values=[1, 1, (1, 1)], terminal)")]:
        with pytest.raises(ValueError) as err:
            GradedElem(g, Value(Fraction(1, 3)), {})
        assert str(err.value) == "1/3 is off the value grid of %s" % name


def test_step_relation_rewrites(v1):
    # in(y)^2 rewrites to in(x)^3 through the declared relation
    iy = key_initial(v1, 1)
    sq = graded._monomial(v1, [iy, iy], [1, 1])
    assert list(sq.coeffs) == [(3, 0, 0)]


@pytest.mark.parametrize("make", [fixtures.v1, fixtures.corn],
                         ids=["v1", "corn"])
def test_graded_power_matches_repeated_product(make):
    g = make()
    rng = random.Random(47)
    elems = [key_initial(g, i) for i in range(len(g.keys))]
    while len(elems) < len(g.keys) + 6:
        f = g.ctx.zero()
        for _ in range(3):
            f = f + g.ctx.monomial(rng.randint(0, 4), rng.randint(0, 3),
                                   rng.randint(-2, 2))
        if not f.is_zero():
            try:
                elems.append(initial_form(f, g))
            except InsufficientGeneratingData:
                pass
    for e in elems:
        want = _graded_one(g)
        for n in range(7):
            assert _form(graded._monomial(g, [e], [n])) == _form(want)
            want = graded._monomial(g, [want, e], [1, 1])


_PRODUCT_CASES = (["v1", "corn", "def2 nu", "def2 nustar", "pi2 nu1",
                   "v1-over-Qi"]
                  + ["chain-d%d-%s" % (d, b) for d in (1, 2, 3, 4)
                     for b in ("Q", "GF2", "GF3")])


@functools.cache
def _product_case(name):
    """(sequence, nonzero scalars, reduced bases of two or more monomials)
    of a named case, at the sums of two to four key values.  On pi2's nu1
    every piece has one reduced monomial (in(y) is in(x)), so there the
    bases are all of those pieces."""
    if name.startswith("chain-"):
        _, depth, base = name.split("-")
        g = _chain(int(depth[1:]), {"Q": QQ, "GF2": BaseField(2),
                                    "GF3": BaseField(3)}[base])
    elif name == "v1-over-Qi":
        g = parse_scenario(valtool.scenario_path("qi").read_text()
                           ).valuations["nustar"]
    else:
        make, _, side = name.partition(" ")
        made = getattr(fixtures, make)()
        g = made[0 if side == "nu" else 1] if side else made
    tower = g.ctx.tower
    scalars = [c for c in map(tower.scalar, (1, -1, 2)) if not c.is_zero()]
    if tower.height:
        scalars += [tower.gen("i"), tower.gen("i") - 1]
    sums = {tuple(map(sum, zip(*pts))) for n in (2, 3, 4)
            for pts in combinations_with_replacement(g.grid.points, n)}
    bases = [graded_piece_basis(p, g) for p in sorted(sums)]
    return g, scalars, [b for b in bases if len(b) >= 2] or bases


def _multi_term_element(data, g, scalars, bases, n):
    """A sum of n reduced key monomials of one value (all of them where the
    piece has fewer), so they make its initial form, plus terms of higher
    value."""
    st = pytest.importorskip("hypothesis").strategies
    basis = data.draw(st.sampled_from(
        [b for b in bases if len(b) >= n] or [max(bases, key=len)]))
    n = min(n, len(basis))
    f = g.ctx.zero()
    for e in data.draw(st.lists(st.sampled_from(basis), min_size=n,
                                max_size=n, unique=True)):
        f = f + g.monomial(e) * data.draw(st.sampled_from(scalars))
    for e in data.draw(st.lists(st.sampled_from(basis), max_size=2)):
        f = f + g.keys[0] * g.monomial(e) * data.draw(st.sampled_from(scalars))
    return f


def test_graded_products_and_powers_are_initial_forms_of_ring_ones():
    # an independent reference for graded products: ring multiplication and
    # expansion, on initial forms of two or more terms.  Both elements have
    # n terms: in characteristic 2 an even number of terms of residue 1
    # sums to zero, where the prefix cannot decide the value, so a shared n
    # lets both be odd at once
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data())
    def check(data):
        name = data.draw(st.sampled_from(_PRODUCT_CASES))
        g, scalars, bases = _product_case(name)

        def initial(f):
            try:
                return initial_form(f, g)
            except InsufficientGeneratingData:
                hypothesis.reject()

        n = data.draw(st.integers(2, 4))
        f = _multi_term_element(data, g, scalars, bases, n)
        a, k = initial(f), data.draw(st.integers(0, 4))
        assert len(a.coeffs) >= 2 or name == "pi2 nu1"
        assert _form(graded._monomial(g, [a], [k])) == _form(
            initial(f ** k)), (name, k)
        h = _multi_term_element(data, g, scalars, bases, n)
        b = initial(h)
        assert len(b.coeffs) >= 2 or name == "pi2 nu1"
        assert _form(graded._monomial(g, [a, b], [1, 1])) == _form(
            initial(f * h)), name

    check()


def test_a_negative_graded_power_is_refused_not_a_hang():
    # a negative exponent is refused before any product is formed, also
    # after a positive one; the child's timeout turns a hang into a failure
    root = str(Path(valtool.__file__).resolve().parents[1])
    child = """
from valtool import fixtures, graded
g = fixtures.v1()
gen = graded.key_initial(g, 1)
for exps in ([2, -1], [-1]):
    try:
        graded._monomial(g, [gen] * len(exps), exps)
    except ValueError as err:
        print(err)
"""
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=root))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "negative powers are not graded elements"] * 2


def _v1_shape(c):
    """v1's values and keys with the tail c*x^3 instead of -x^3."""
    tower = ResidueTower(QQ)
    step = KeyStep(1, 2, [TailTerm(tower.scalar(c), (3,))], Value(Fraction(7, 2)))
    return GenSeq(LocalRingCtx(tower, ("x", "y")),
                  [Value(1), Value(Fraction(3, 2)), Value(Fraction(7, 2))],
                  [step])


def _v1_declared(tail, residues=None, keys=None):
    """v1's values with the step tail ``tail``, (coefficient, exponents)
    pairs over Q, and the residues ``residues`` (none by default, and no
    oracle); ``keys`` are key texts, kept as given, else the keys are built
    from the step."""
    tower = ResidueTower(QQ)
    ctx = LocalRingCtx(tower, ("x", "y"))
    step = KeyStep(1, 2, [TailTerm(tower.scalar(c), e) for c, e in tail],
                   Value(Fraction(7, 2)))
    values = [Value(1), Value(Fraction(3, 2)), Value(Fraction(7, 2))]
    return GenSeq(ctx, values, [step],
                  keys=keys and [parse_poly(k, ctx) for k in keys],
                  residues={i: tower.scalar(c)
                            for i, c in (residues or {}).items()})


def test_equal_tails_belong_to_their_sequence():
    a, b = _v1_shape(-1), _v1_shape(-2)
    assert a.equal_tail(1) != b.equal_tail(1)
    sq_a, sq_b = (graded._monomial(g, [key_initial(g, 1)], [2])
                  for g in (a, b))
    assert sq_a.coeffs[(3, 0, 0)] == a.ctx.tower.scalar(1)
    assert sq_b.coeffs[(3, 0, 0)] == b.ctx.tower.scalar(2)
    # sequences made and dropped one after another, so their ids may repeat
    del a, b, sq_a, sq_b
    for c in range(1, 8):
        g = _v1_shape(-c)
        assert graded._monomial(g, [key_initial(g, 1)], [2]).coeffs[
            (3, 0, 0)] == g.ctx.tower.scalar(c)
        del g
        gc.collect()


# -- presentations ---------------------------------------------------------------

def test_v1_presentation(v1):
    p = graded_presentation(v1, 2)
    assert [g.index for g in p.generators] == [0, 1, 2]
    assert len(p.relations) == 1
    rel = p.relations[0]
    assert rel.level == 1 and rel.verified
    assert rel.lead_exps == (0, 2, 0)
    assert [e for _, e in rel.tail] == [(3, 0, 0)]
    # in(P2) is expressible, so the essential presentation is k[X, Y]/(Y^2 - X^3)
    assert [g.index for g in p.essential_generators()] == [0, 1]
    assert not p.is_polynomial_ring()


def test_v1_presentation_depth_zero(v1):
    p = graded_presentation(v1, 0)
    assert [g.index for g in p.generators] == [0]
    assert not p.relations


def test_a_step_with_no_equal_value_tail_has_no_relation():
    # y^2 + x^4: the tail lies above the leading value 3
    g = _v1_declared([(1, (4,))], residues={1: 1, 2: 1})
    assert graded_presentation(g, 2).lines() == [
        "generator in(x), value 1", "generator in(y), value 3/2",
        "generator in(P2), value 7/2  [= 1 * in(x)^2*in(y)]",
        "essential generators: in(x), in(y) (polynomial ring)"]


def test_a_relation_that_does_not_vanish_is_warned():
    # y^2 - x^3 against the declared residue 2 of y^2 / x^3
    g = _v1_declared([(-1, (3,))], residues={1: 2, 2: 1})
    lines = graded_presentation(g, 2).lines()
    assert lines[3:] == [
        "relation (value 3): in(y)^2 + -1*in(x)^3 = 0  "
        "[residue check skipped]",
        "essential generators: in(x), in(y)",
        "warning: relation at level 1 does not vanish in the residue field: "
        "1/2"]


def test_a_relation_with_an_unknown_residue_is_not_verified():
    g = _v1_declared([(-1, (3,))])  # no residue and no oracle
    lines = graded_presentation(g, 2).lines()
    assert lines[3:] == [
        "relation (value 3): in(y)^2 + -1*in(x)^3 = 0  "
        "[residue check skipped]",
        "essential generators: in(x), in(y), in(P2)",
        "warning: relation at level 1 not verifiable: residue at level 1 is "
        "neither declared nor computable"]


def test_def2_presentations_collapse():
    g_r, g_s, _ = fixtures.def2()
    for g in (g_r, g_s):
        p = graded_presentation(g, 4)
        essential = p.essential_generators()
        assert [gen.index for gen in essential] == [0]
        assert p.is_polynomial_ring()


def test_relation_homogeneity_everywhere():
    for g in (fixtures.v1(), fixtures.corn(), fixtures.def2()[0],
              fixtures.def2()[1], fixtures.disc()[0]):
        p = graded_presentation(g, 6)
        assert not p.warnings
        for rel in p.relations:
            assert rel.verified
            for _, exps in rel.tail:
                assert g.value_of(exps) == rel.value


# -- piece bases -------------------------------------------------------------------

def test_piece_bases(v1):
    assert graded_piece_basis(Value(3), v1) == [(3, 0, 0)]
    assert graded_piece_basis(Value(Fraction(7, 2)), v1) == [(0, 0, 1), (2, 1, 0)]
    assert graded_piece_basis(Value(Fraction(1, 3)), v1) == []


def test_piece_basis_respects_depth(v1):
    # the depth-1 prefix of v1: x and y, y unbounded
    prefix = GenSeq(v1.ctx, v1.values[:2], keys=v1.keys[:2])
    assert graded_piece_basis(Value(Fraction(7, 2)), prefix) == [(2, 1)]


# -- membership ---------------------------------------------------------------------

def test_membership_examples(v1):
    ix, iy = key_initial(v1, 0), key_initial(v1, 1)
    sq = initial_form(P(v1, "x^2"), v1)
    res = subalgebra_membership(sq, [ix])
    assert res and res.certificate == [((2,), v1.ctx.tower.one())]
    res2 = subalgebra_membership(key_initial(v1, 2), [ix, iy])
    assert not res2
    outside = initial_form(P(v1, "y"), v1)
    res3 = subalgebra_membership(outside, [ix])
    assert not res3 and "no generator monomial" in res3.detail


def _chain(depth, base=QQ):
    """Chain-shaped sequence: P_{i+1} = P_i^2 - M_i with every residue 1.

    Values 1, 3/2 and beta_{i+1} = 2*beta_i + 1/2^(i+1); M_i is the greedy
    reduced monomial of value 2*beta_i in the keys below P_i.
    """
    tower = ResidueTower(base)
    betas = [Value(1), Value(Fraction(3, 2))]
    for i in range(1, depth + 1):
        betas.append(betas[i] * 2 + Value(Fraction(1, 2 ** (i + 1))))
    grid = Grid(betas)
    steps = []
    for i in range(1, depth + 1):
        tail = reduced_representation(grid, betas[i] * 2, grid.points[:i],
                                      [None] + [2] * (i - 1))
        steps.append(KeyStep(i, 2, [TailTerm(tower.scalar(-1), tail)],
                             betas[i + 1]))
    return GenSeq(LocalRingCtx(tower, ("x", "y")), betas, steps,
                  residues={i: tower.one() for i in range(1, depth + 2)})


def _naive_products(gens, target, g):
    """Reference enumerator: multiply at every node of the walk."""
    out = []

    def rec(idx, remaining, acc, elem):
        if idx == len(gens):
            if remaining.sign() == 0:
                out.append((tuple(acc), elem))
            return
        gen, k, cur = gens[idx], 0, elem
        while (remaining - gen.value * k).sign() >= 0:
            rec(idx + 1, remaining - gen.value * k, acc + [k], cur)
            if gen.value.sign() == 0:
                break
            k, cur = k + 1, graded._monomial(g, [cur, gen], [1, 1])

    rec(0, target, [], _graded_one(g))
    return out


def _walk_cases():
    """(sequence, generators, targets): chains, rank 2 and a value-0 generator."""
    for depth in (1, 2, 3):
        for base in (QQ, BaseField(2)):
            g = _chain(depth, base)
            keys = [key_initial(g, i) for i in range(len(g.keys))]
            mixed = _twice(g, keys[0], keys[1])
            gens = keys + [mixed, _graded_one(g)]
            targets = [g.values[i] * 2 for i in range(len(g.keys) - 1)]
            targets += [g.values[-1] + g.values[1], Value(Fraction(1, 3)),
                        Value(0)]
            yield g, gens, targets
    _, nu1, _, _ = fixtures.pi2()
    keys = [key_initial(nu1, i) for i in range(len(nu1.keys))]
    top = nu1.values[-1]
    yield nu1, [_graded_one(nu1)] + keys, [top + 2, top * 2, top * 2 + 1,
                                          Value(3), top - Value(1)]


def test_products_of_value_match_naive_walk():
    hits = 0
    for g, gens, targets in _walk_cases():
        for target in targets:
            got = list(_products_of_value(gens, target, g))
            want = _naive_products(gens, target, g)
            assert [e for e, _ in got] == [e for e, _ in want], (g, target)
            assert all(_form(a) == _form(b)
                       for (_, a), (_, b) in zip(got, want))
            hits += len(got)
    assert hits > 50


def _reconstruct(cert, gens, like):
    g = like.genseq
    return _combination(g, like.point, [(graded._monomial(g, gens, exps), c)
                                        for exps, c in cert])


def _twice(g, a, b):
    """a^2*b + b*a^2, the two products formed with their factors in either
    order."""
    return _combination(g, graded._monomial(g, [a, b], [2, 1]).point, [
        (graded._monomial(g, [a, b], [2, 1]), g.ctx.tower.one()),
        (graded._monomial(g, [b, a], [1, 2]), g.ctx.tower.one())])


def _membership_cases():
    """(element, generators): sigma key images, a mixed element and a zero
    one over the target's sigma key initial forms, on chain transforms, pi2
    and def2."""
    cases = []
    for depth in (1, 2, 3):
        for base in (QQ, BaseField(2)):
            g = _chain(depth, base)
            tmap, tgt = free_transform(g)
            cases.append((g, tgt, tmap.extension()))
    nu_r, nu1, _, ext = fixtures.pi2()
    cases.append((nu_r, nu1, ext))
    cases.append(fixtures.def2())
    for g_r, g_s, ext in cases:
        gens = [key_initial(g_s, i) for i in sigma_indices(g_s)]
        elems = [_twice(g_s, gens[0], gens[-1])]
        elems.append(GradedElem(g_s, elems[0].value, {}))
        for j in sigma_indices(g_r):
            try:
                elems.append(initial_form(ext.apply(g_r.keys[j]), g_s))
            except InsufficientGeneratingData:
                pass
        for e in elems:
            yield e, gens


def test_membership_certificates_reconstruct():
    found = 0
    for e, gens in _membership_cases():
        res = subalgebra_membership(e, gens)
        if res:
            found += 1
            assert _form(_reconstruct(res.certificate, gens, e)) == _form(e)
    assert found > 10


def _membership_over_all_products(e, gens, limit=None):
    """Reference: one linear system over every generator monomial of e's
    value (or the first ``limit``), on the coordinates in the order the
    products first show them."""
    g = e.genseq
    tower = g.ctx.tower
    field_basis, _ = g.ctx.residue_field()
    products = list(islice(_products_of_value(gens, e.value, g), limit))
    index = {}
    for _, prod in products:
        for exps in prod.coeffs:
            index.setdefault(exps, len(index))
    for exps in e.coeffs:
        index.setdefault(exps, len(index))
    dim = tower.degree()

    def flatten(elem, scalar):
        vec = [tower.base.zero()] * (len(index) * dim)
        for exps, c in elem.coeffs.items():
            for k, s in enumerate((c * scalar).to_vector()):
                vec[index[exps] * dim + k] = s
        return vec

    solver = LinearSolver(tower.base)
    columns = []
    for gexps, prod in products:
        for b in field_basis:
            solver.add(flatten(prod, b))
            columns.append((gexps, b))
    sol = solver.solve(flatten(e, tower.one())) if products else None
    if sol is None:
        return None, len(products)
    combo = {}
    for idx, scal in sol.items():
        gexps, b = columns[idx]
        combo[gexps] = combo.get(gexps, tower.zero()) + b * scal
    return sorted((k, c) for k, c in combo.items() if not c.is_zero()), \
        len(products)


def test_membership_stops_once_the_element_is_spanned(monkeypatch):
    walked = []

    def counting(gens, target, g):
        walked.append(0)
        for hit in _products_of_value(gens, target, g):
            walked[-1] += 1
            yield hit

    monkeypatch.setattr(graded, "_products_of_value", counting)
    cut = 0
    for e, gens in _membership_cases():
        walked.clear()
        res = subalgebra_membership(e, gens)
        taken = walked[0]
        want, products = _membership_over_all_products(e, gens)
        assert res.ok == (want is not None), e
        if res:
            assert res.certificate == want, e
            # and no shorter prefix of the walk already decides
            if taken > 1:
                assert _membership_over_all_products(e, gens, taken - 1)[0] \
                    is None, e
        else:
            assert taken == products  # a failure walks everything
        cut += taken < products
    assert cut > 5
    # a zero generator adds no pivot, and zero is still in the span
    zero = GradedElem(gens[0].genseq, gens[0].value, {})
    res = subalgebra_membership(zero, [zero])
    assert res and res.certificate == []


# -- the detector ----------------------------------------------------------------------

def test_identity_extension_alignment(v1):
    ident = ExtensionMap(v1.ctx, P(v1, "x"), P(v1, "y"), field_degree=1)
    st = fingen_detect(v1, v1, ident, 4)
    assert st.verdict.kind == "consistent"
    assert st.e == 1 and st.f == 1
    assert [l.r for l in st.levels] == [0, 1]


def test_def2_alignment():
    g_r, g_s, ext = fixtures.def2()
    st = fingen_detect(g_r, g_s, ext, 4)
    assert st.verdict.kind == "consistent"
    assert (st.e, st.f) == (1, 1)


def test_pi2_alignment():
    nu_r, nu1, _, ext = fixtures.pi2()
    st = fingen_detect(nu_r, nu1, ext, 4)
    assert st.verdict.kind == "consistent"
    assert (st.e, st.f) == (2, 1)
    # the recorded certificates carry in(u) = in(x)^2 and in(v-u) = 2 in(x) in(y-x),
    # each in the generators of the level that first absorbs it
    cert_u = st.certificates[0].certificate
    assert cert_u == [((2,), nu1.ctx.tower.one())]
    cert_vu = st.certificates[2].certificate
    assert cert_vu == [((1, 1), nu1.ctx.tower.scalar(2))]


def test_detector_expands_each_sigma_image_once(monkeypatch):
    # a transform's own map gives every sigma image in closed form, so its
    # detector expands none; a declared map expands each sigma image once
    import valtool.genseq as genseq
    corn = fixtures.corn()
    tmap, tgt = free_transform(corn)
    g_r, g_s, ext = fixtures.def2()
    sc = parse_scenario(valtool.scenario_path("qi").read_text())
    real, calls = genseq.expand, []

    def counting_expand(f, g):
        calls.append(f)
        return real(f, g)

    monkeypatch.setattr(genseq, "expand", counting_expand)
    fingen_detect(corn, tgt, tmap.extension(), 6)
    assert calls == [] and len(sigma_indices(corn)) == 4
    for g_r, g_s, ext in [(g_r, g_s, ext),
                          (sc.valuations["nu"], sc.valuations["nustar"],
                           sc.extensions["ext"])]:
        calls.clear()
        fingen_detect(g_r, g_s, ext, 6)
        assert calls == [ext.apply(g_r.keys[j]) for j in sigma_indices(g_r)]


def test_detection_runs_once_per_map_pair_and_depth(monkeypatch):
    corn = fixtures.corn()
    tmap, tgt = free_transform(corn)
    g_r, g_s, ext = fixtures.def2()
    detect, runs = graded._detect, []

    def counting(*args):
        runs.append(args)
        return detect(*args)

    monkeypatch.setattr(graded, "_detect", counting)
    for source, target, declared in [(g_r, g_s, ext),
                                     (corn, tgt, tmap.extension())]:
        runs.clear()
        st = fingen_detect(source, target, declared, 4)
        assert ramification_report(source, target, declared, depth=4).e == st.e
        assert fingen_detect(source, target, declared, 4) is st
        assert len(runs) == 1
        # another depth runs again, and agrees with a direct run
        assert repr(fingen_detect(source, target, declared, 5)) == repr(
            detect(source, target, declared, 5))
        assert len(runs) == 2
    # so does the same pair through a fresh map
    assert repr(fingen_detect(corn, tgt, tmap.extension(), 4)) == repr(st)
    assert len(runs) == 3

    # a call that raised is run again, and nothing of it is kept; the forged
    # membership answers at level 0 and raises past it
    member = graded.subalgebra_membership

    def failing(e, gens):
        if len(gens) > 1:
            raise ArithmeticError("forged membership failure")
        return member(e, gens)

    monkeypatch.setattr(graded, "subalgebra_membership", failing)
    refused = tmap.extension()
    for count in (4, 5):
        with pytest.raises(ArithmeticError, match="forged"):
            fingen_detect(corn, tgt, refused, 2)
        assert len(runs) == count and not refused.detections


_IDENTITY_RING = """
[field]
base %s
extend i minpoly 1 0

[ring R]
params x y
levels 0

[valuation nu]
ring R
values 1 1
key n=2 value=5/2 tail=x^2
key n=2 value=21/4 tail=-1*x^4*y
alpha 1 i
alpha 2 1
alpha 3 1
"""


@pytest.mark.parametrize("base", ["Q", "F 3"])
def test_identity_extension_keeps_residue_degree(base):
    # the first residue i is new over the ring's residue field, so a delta
    # that missed it would make chi jump above 1
    g = parse_scenario(_IDENTITY_RING % base).valuations["nu"]
    assert validate_sequence(g).ok
    ident = ExtensionMap(g.ctx, P(g, "x"), P(g, "y"), field_degree=1)
    st = fingen_detect(g, g, ident, 4)
    assert [l.chi for l in st.levels] == [1] * len(st.levels)
    assert len(st.levels) == 4 and st.f == 1


def test_corn_transform_obstruction_all_depths():
    corn = fixtures.corn()
    tmap, tgt = free_transform(corn)
    ext = tmap.extension()
    for depth in range(1, 7):
        st = fingen_detect(corn, tgt, ext, depth)
        assert st.verdict.kind == "obstruction"
        assert st.verdict.level == 1
        assert st.witnesses and st.witnesses[0][0] == 1


def test_lambda_chi_monotone_on_fixtures():
    runs = []
    g_r, g_s, ext = fixtures.def2()
    runs.append(fingen_detect(g_r, g_s, ext, 4))
    nu_r, nu1, _, ext2 = fixtures.pi2()
    runs.append(fingen_detect(nu_r, nu1, ext2, 4))
    corn = fixtures.corn()
    tmap, tgt = free_transform(corn)
    runs.append(fingen_detect(corn, tgt, tmap.extension(), 6))
    for st in runs:
        lams = [l.lam for l in st.levels if l.lam is not None]
        chis = [l.chi for l in st.levels if l.chi is not None]
        assert all(a >= b for a, b in zip(lams, lams[1:]))
        assert all(a >= b for a, b in zip(chis, chis[1:]))
        if st.e is not None and st.f is not None:
            assert st.e * st.f == lams[-1] * chis[-1]


def _chi_reference(tower, eps, deltas):
    """chi from scratch: [Q(eps) : Q(deltas)], None on a missing residue
    or when Q(deltas) does not lie inside Q(eps)."""
    if None in eps or None in deltas:
        return None
    return field_index(tower, eps, [d for d in deltas if d is not INFINITE])


def _counting_solves(monkeypatch):
    """The number of LinearSolver.solve calls made so far, as a list."""
    solves, real = [0], LinearSolver.solve

    def counting(self, *args):
        solves[0] += 1
        return real(self, *args)

    monkeypatch.setattr(LinearSolver, "solve", counting)
    return solves


def test_chi_carries_its_closures_across_levels(monkeypatch):
    # Q(i, sqrt 2) over Q; each call is checked against a from-scratch index
    tower = ResidueTower(QQ).extend("i", [1, 0])
    tower = tower.extend("s", [tower.scalar(-2), tower.zero()])
    i, s2 = tower.gen("i"), tower.gen("s")
    eps = [None, i, tower.scalar(-1), s2, None]  # by tau index
    deltas = [None, tower.scalar(-1), s2, INFINITE, None]  # by sigma index
    ctx = LocalRingCtx(tower, ring_levels=0)
    # the target's residue chain, grown here as GenSeq grows it
    chain = ctx.residue_field()
    ranks = [chain[1].rank]
    for e in eps[1:]:
        if e is not None:
            span_closure(tower, [e], chain)
        ranks.append(chain[1].rank)
    levels = [SimpleNamespace(residue=e) for e in eps]
    g_s = SimpleNamespace(ctx=ctx, level=levels.__getitem__,
                          residue_chain=chain, residue_ranks=ranks)
    # the source ring's chain, read up to its ring field
    g_r = SimpleNamespace(residue_chain=ctx.residue_field(), residue_ranks=[1])
    asked = []

    def delta(si):
        asked.append(si)
        return deltas[si]

    # sqrt 2 lies outside Q(i) at s=1 and 2 and inside from s=3; delta 4
    # and eps 4 are missing, the latter alone in the second run; r never
    # shrinks, so each delta is asked for once.  Containment is solved for
    # the small field Q and again when it grows to Q(sqrt 2), one solve per
    # basis element up to the first outside, until it holds; the rank-jump
    # delta 3 leaves the field as it was, so nothing is solved at (3, 3)
    solves = _counting_solves(monkeypatch)
    for cases, expected, deltas_asked, solved in [
            ([(0, 0), (0, 1), (1, 2), (2, 2), (3, 2), (3, 3), (3, 4), (4, 4)],
             [1, 1, None, None, 2, 2, None, None], [1, 2, 3, 4],
             [1, 0, 2, 2, 2, 0, 0, 0]),
            ([(4, 3), (3, 3)], [None, 2], [1, 2, 3], [0, 2])]:
        chi = graded._Chi(g_r, g_s, range(5), range(5), delta)
        asked.clear()
        got, counts = [], []
        for s, r in cases:
            want = _chi_reference(tower, eps[1:s + 1], deltas[1:r + 1])
            before = solves[0]
            got.append(chi.at(s, r))
            counts.append(solves[0] - before)
            assert got[-1] == want, (s, r)
        assert got == expected and asked == deltas_asked
        assert counts == solved


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_chi_solves_containment_once_on_the_chain_cells(depth, monkeypatch):
    # every residue of a chain is 1, so the small field stays the base
    # field at every level: its one basis element is solved for once per
    # detection, however many levels read chi
    from test_genseq import _chain_cell
    solves, at, calls = _counting_solves(monkeypatch), graded._Chi.at, []

    def counting_at(self, s, r):
        before = solves[0]
        try:
            return at(self, s, r)
        finally:
            calls.append(solves[0] - before)

    monkeypatch.setattr(graded._Chi, "at", counting_at)
    for base in ("Q", "GF2", "GF3"):
        for rank in (1, 2):
            g = _chain_cell(depth, base, rank)
            tmap, target = free_transform(g)
            calls.clear()
            st = fingen_detect(g, target, tmap.extension(), 6)
            assert st.f == 1 and len(calls) == len(st.levels)
            assert sum(calls) == 1 and calls[0] == 1, (base, rank, calls)


def test_detector_proves_each_source_image_once(monkeypatch):
    # membership in k[gens] is exact and the gens grow with s, so each
    # sigma image is proved once, at the first level s whose generators
    # g_0..g_s absorb it, and that certificate is the one kept
    from test_genseq import _chain_cell
    member, witness = graded.subalgebra_membership, graded._new_key_witness
    calls, witnessing = [], []

    def counting(e, gens):
        res = member(e, gens)
        if not witnessing:  # the obstruction witness is not a level's proof
            calls.append((e, len(gens) - 1, res.ok))
        return res

    def witnessed(*args):
        witnessing.append(True)
        try:
            return witness(*args)
        finally:
            witnessing.pop()

    monkeypatch.setattr(graded, "subalgebra_membership", counting)
    monkeypatch.setattr(graded, "_new_key_witness", witnessed)
    nu_r, nu1, _, ext = fixtures.pi2()
    cases = [(nu_r, nu1, ext)]
    for g in (fixtures.corn(), _chain_cell(3, "Q", 1)):
        tmap, tgt = free_transform(g)
        cases.append((g, tgt, tmap.extension()))
    for g_r, g_s, ext in cases:
        calls.clear()
        st = fingen_detect(g_r, g_s, ext, 6)
        sigma = sigma_indices(g_r)
        r = st.levels[-1].r
        assert r >= 1
        # the absorbing level of each image, and the images in sigma order
        first = [next(lvl.s for lvl in st.levels if lvl.r >= pos)
                 for pos in range(r + 1)]
        images = [initial_form(ext.apply(g_r.keys[j]), g_s)
                  for j in sigma[:r + 1]]
        assert [(_form(e), s) for e, s, ok in calls if ok] == [
            (_form(e), s) for e, s in zip(images, first)]
        failed = [s for _, s, ok in calls if not ok]
        assert len(failed) == len(set(failed))
        for j, s in zip(sigma, first):
            assert all(len(gexps) == s + 1
                       for gexps, _ in st.certificates[j].certificate)
        # some image is absorbed before the last level that absorbs one
        assert first[0] < first[-1]


def _paired_level(i, jump=1, degree=1, cap=2):
    lvl = LevelData(i)
    lvl.group_jump, lvl.residue_degree, lvl.cap = jump, degree, cap
    return lvl


def test_match_next_names_the_first_broken_identity():
    # source sigma level 1 against target tau level 1, both of value 3/2
    beta = Value(Fraction(3, 2))
    initials = {0: SimpleNamespace(value=Value(1)),
                1: SimpleNamespace(value=beta)}
    cur = graded.AlignmentLevel(0, 0, 0, 1, 1)
    nxt = graded.AlignmentLevel(1, 1, 1, 1, 1)

    def match(src, tgt, sigma=(0, 1), nxt=nxt):
        g_r = SimpleNamespace(level={1: src}.__getitem__)
        g_s = SimpleNamespace(values=[Value(1), beta],
                              level={1: tgt}.__getitem__)
        return graded._match_next(g_r, g_s, initials, list(sigma), [0, 1],
                                  cur, nxt)

    assert match(_paired_level(1), _paired_level(1)) is None
    # an undetermined side skips its comparison
    assert match(_paired_level(1, jump=None, degree=None, cap=None),
                 _paired_level(1, jump=2, degree=3, cap=4)) is None
    assert match(_paired_level(1, jump=2), _paired_level(1, jump=INFINITE)) \
        == "group jump mismatch at the matched pair: 2 vs Infinite"
    assert match(_paired_level(1, degree=2), _paired_level(1)) \
        == "residue degree mismatch at the matched pair: 2 vs 1"
    assert match(_paired_level(1, cap=2), _paired_level(1, cap=4)) \
        == "recursion power mismatch at the matched pair: 2 vs 4"
    assert match(_paired_level(1), _paired_level(1),
                 nxt=graded.AlignmentLevel(1, 1, 2, 1, 1)) \
        == "absorption did not advance by one level (r went 0 -> 2)"
    assert match(_paired_level(1), _paired_level(1), sigma=(0,)) \
        == "source keys exhausted while target keys continue"
    # the identities are read in order: the first broken one is named
    assert match(_paired_level(1, jump=2, degree=2),
                 _paired_level(1, jump=3, degree=1)) \
        == "group jump mismatch at the matched pair: 2 vs 3"


def test_new_key_witness_is_none_when_the_key_is_absorbed(v1):
    q_initials = [key_initial(v1, i) for i in range(len(v1.keys))]
    tau = sigma_indices(v1)
    # in(y) is the image of y, so it lies in the generated subalgebra
    assert graded._new_key_witness(dict(enumerate(q_initials[:2])),
                                   q_initials, tau, 0) is None
    # from in(x) alone, nothing has value 3/2
    assert graded._new_key_witness({0: q_initials[0]}, q_initials, tau, 0) \
        == "no generator monomial has value 3/2"


@pytest.mark.parametrize("forged, note", [
    ("raise", "lambda at s=0 undefined: forged containment"),
    ("infinite", "lambda infinite at s=0 (rank gap not yet absorbed)")])
def test_lambda_notes(monkeypatch, forged, note):
    # the detector reads lambda from grid points through a RunningIndex
    class Forged:
        def __init__(self, big, small):
            pass

        def at(self, s, r):
            if forged == "raise":
                raise graded.ContainmentError("forged containment")
            return INFINITE

    monkeypatch.setattr(graded, "RunningIndex", Forged)
    g_r, g_s, ext = fixtures.def2()
    st = fingen_detect(g_r, g_s, ext, 4)
    assert st.levels[0].r >= 0
    assert all(lvl.lam is None for lvl in st.levels) and st.e is None
    assert "note: %s" % note in st.lines()
    with pytest.raises(InconsistentRamification,
                       match="alignment did not stabilize"):
        ramification_report(g_r, g_s, ext, depth=4)


def _corn_transform_detection(unit_exps=True):
    """fingen_detect of corn against its free transform: three levels with
    lambda = chi = 1, and an obstruction at level 1.  ``unit_exps`` False
    drops corn's unit monomial at level 1 once the transform is built."""
    corn = fixtures.corn()
    tmap, target = free_transform(corn)
    if not unit_exps:
        corn.level(1).unit_exps = None
    return fingen_detect(corn, target, tmap.extension(), 6)


def _scaled_at(base, level, factor):
    """A subclass of ``base`` whose ``at`` reads ``factor`` times the index
    at s == level."""
    class Forged(base):
        def at(self, s, r):
            return super().at(s, r) * (factor if s == level else 1)

    return Forged


@pytest.mark.parametrize("name", ["RunningIndex", "_Chi"])
def test_a_lambda_or_chi_drop_skips_its_level_pair(monkeypatch, name):
    # lambda (or chi) 2, 1, 1: the pair (0, 1) drops, so the first pair
    # matched is (1, 2), which breaks at level 2 instead of level 1
    assert _corn_transform_detection().verdict.level == 1
    monkeypatch.setattr(graded, name, _scaled_at(getattr(graded, name), 0, 2))
    st = _corn_transform_detection()
    assert [(l.lam, l.chi) for l in st.levels] == (
        [(2, 1), (1, 1), (1, 1)] if name == "RunningIndex"
        else [(1, 2), (1, 1), (1, 1)])
    assert st.verdict.kind == "obstruction" and st.verdict.level == 2
    assert st.lines()[3] == ("ObstructionAt(level=2, value mismatch: source "
                             "key 3 has value 55/8, target key 2 has value "
                             "7/8)")


@pytest.mark.parametrize("name, text", [
    ("RunningIndex", "lambda increased along the chain"),
    ("_Chi", "chi increased along the chain")])
def test_a_lambda_or_chi_rise_is_refused(monkeypatch, name, text):
    monkeypatch.setattr(graded, name, _scaled_at(getattr(graded, name), 1, 2))
    with pytest.raises(AssertionError, match=text):
        _corn_transform_detection()


@pytest.mark.parametrize("forged", ["unit monomial", "zero num", "zero den"])
def test_a_missing_delta_leaves_chi_undefined(monkeypatch, forged):
    # _delta answers None when a source level has no unit monomial, and
    # _residue_ratio when either side of the ratio has no residue
    if forged != "unit monomial":
        ratio = graded._residue_ratio

        def zeroed(num, den):  # num and den have one value
            zero = GradedElem(num.genseq, num.point, {})
            return ratio(num, zero) if forged == "zero den" else ratio(zero, den)

        monkeypatch.setattr(graded, "_residue_ratio", zeroed)
    st = _corn_transform_detection(forged != "unit monomial")
    assert [(l.lam, l.chi) for l in st.levels] == [(1, None)] * 3
    assert st.f is None and st.verdict.level == 1
    assert "e (stabilized lambda) = 1, f (stabilized chi) = None" in st.lines()


def test_lambda_note_names_the_value_outside(monkeypatch):
    # the RunningIndex runs on grid points; the note names the value instead
    class Forged:
        def __init__(self, big, small):
            pass

        def at(self, s, r):
            raise graded.ContainmentError("small[0] is outside", 0)

    monkeypatch.setattr(graded, "RunningIndex", Forged)
    g_r, g_s, ext = fixtures.def2()
    st = fingen_detect(g_r, g_s, ext, 4)
    image = initial_form(ext.apply(g_r.keys[sigma_indices(g_r)[0]]), g_s)
    big = [g_s.values[st.levels[0].tau]]
    assert "note: lambda at s=0 undefined: value %r is not in the group " \
        "generated by %r" % (image.value, big) in st.lines()
