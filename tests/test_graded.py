import gc
import random
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from valtool import fixtures, graded
from valtool.blowup import free_transform
from valtool.extension import ExtensionMap
from valtool.genseq import (
    GenSeq,
    InsufficientGeneratingData,
    KeyStep,
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
    graded_one,
    graded_piece_basis,
    graded_presentation,
    key_initial,
    subalgebra_membership,
)
from valtool.ring import LocalRingCtx, parse_poly
from valtool.scenario import parse_scenario
from valtool.towers import QQ, BaseField, LinearSolver, ResidueTower
from valtool.values import INFINITE, Grid, Value

from subfields import field_index


@pytest.fixture
def v1():
    return fixtures.v1()


def P(g, text):
    return parse_poly(text, g.ctx)


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
        assert a * b == ab


def test_step_relation_rewrites(v1):
    # in(y)^2 rewrites to in(x)^3 through the declared relation
    iy = key_initial(v1, 1)
    sq = iy * iy
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
        want = graded_one(g)
        for n in range(7):
            assert e ** n == want
            want = want * e


def _v1_shape(c):
    """v1's values and keys with the tail c*x^3 instead of -x^3."""
    tower = ResidueTower(QQ)
    step = KeyStep(1, 2, [TailTerm(tower.scalar(c), (3,))], Value(Fraction(7, 2)))
    return GenSeq(LocalRingCtx(tower, ("x", "y")),
                  [Value(1), Value(Fraction(3, 2)), Value(Fraction(7, 2))],
                  [step])


def test_equal_tails_belong_to_their_sequence():
    a, b = _v1_shape(-1), _v1_shape(-2)
    assert a.equal_tail(1) != b.equal_tail(1)
    sq_a, sq_b = key_initial(a, 1) ** 2, key_initial(b, 1) ** 2
    assert sq_a.coeffs[(3, 0, 0)] == a.ctx.tower.scalar(1)
    assert sq_b.coeffs[(3, 0, 0)] == b.ctx.tower.scalar(2)
    # sequences made and dropped one after another, so their ids may repeat
    del a, b, sq_a, sq_b
    for c in range(1, 8):
        g = _v1_shape(-c)
        assert (key_initial(g, 1) ** 2).coeffs[(3, 0, 0)] == \
            g.ctx.tower.scalar(c)
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
    prefix = GenSeq.from_keys(v1.ctx, v1.values[:2], v1.keys[:2], [])
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
            k, cur = k + 1, cur * gen

    rec(0, target, [], graded_one(g))
    return out


def _walk_cases():
    """(sequence, generators, targets): chains, rank 2 and a value-0 generator."""
    for depth in (1, 2, 3):
        for base in (QQ, BaseField(2)):
            g = _chain(depth, base)
            keys = [key_initial(g, i) for i in range(len(g.keys))]
            mixed = keys[0] ** 2 * keys[1] + keys[1] * keys[0] ** 2
            gens = keys + [mixed, graded_one(g)]
            targets = [g.values[i] * 2 for i in range(len(g.keys) - 1)]
            targets += [g.values[-1] + g.values[1], Value(Fraction(1, 3)),
                        Value(0)]
            yield g, gens, targets
    _, nu1, _, _ = fixtures.pi2()
    keys = [key_initial(nu1, i) for i in range(len(nu1.keys))]
    top = nu1.values[-1]
    yield nu1, [graded_one(nu1)] + keys, [top + 2, top * 2, top * 2 + 1,
                                          Value(3), top - Value(1)]


def test_products_of_value_match_naive_walk():
    hits = 0
    for g, gens, targets in _walk_cases():
        for target in targets:
            got = list(_products_of_value(gens, target, g))
            want = _naive_products(gens, target, g)
            assert [e for e, _ in got] == [e for e, _ in want], (g, target)
            assert all(a == b for (_, a), (_, b) in zip(got, want))
            hits += len(got)
    assert hits > 50


def _reconstruct(cert, gens, like):
    total = GradedElem(like.genseq, like.value, {})
    for exps, c in cert:
        prod = graded_one(like.genseq)
        for gen, k in zip(gens, exps):
            prod = prod * gen ** k
        total = total + prod * c
    return total


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
        elems = [gens[0] ** 2 * gens[-1] + gens[-1] * gens[0] ** 2]
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
            assert _reconstruct(res.certificate, gens, e) == e
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
    # the recorded certificates carry in(u) = in(x)^2 and in(v-u) = 2 in(x) in(y-x)
    cert_u = st.certificates[0].certificate
    assert cert_u == [((2, 0), nu1.ctx.tower.one())]
    cert_vu = st.certificates[2].certificate
    assert cert_vu == [((1, 1), nu1.ctx.tower.scalar(2))]


def test_detector_expands_each_sigma_image_once(monkeypatch):
    import valtool.genseq as genseq
    corn = fixtures.corn()
    tmap, tgt = free_transform(corn)
    ext = tmap.extension()
    real, calls = genseq.expand, []

    def counting_expand(f, g):
        calls.append(f)
        return real(f, g)

    monkeypatch.setattr(genseq, "expand", counting_expand)
    fingen_detect(corn, tgt, ext, 6)
    assert len(calls) == len(sigma_indices(corn)) == 4


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


def test_chi_carries_its_closures_across_levels():
    # Q(i, sqrt 2) over Q; each call is checked against a from-scratch index
    tower = ResidueTower(QQ).extend("i", [1, 0])
    tower = tower.extend("s", [tower.scalar(-2), tower.zero()])
    i, s2 = tower.gen("i"), tower.gen("s")
    eps = [None, i, tower.scalar(-1), s2, None]  # by tau index
    deltas = [None, tower.scalar(-1), s2, INFINITE, None]  # by sigma index
    levels = [SimpleNamespace(residue=e) for e in eps]
    ctx = LocalRingCtx(tower, ring_levels=0)
    g_s = SimpleNamespace(ctx=ctx, level=levels.__getitem__)
    asked = []

    def delta(si):
        asked.append(si)
        return deltas[si]

    chi = graded._Chi(SimpleNamespace(ctx=ctx), g_s, range(5), range(5), delta)
    got = []
    # sqrt 2 lies outside Q(i) at s=1 and 2 and inside from s=3; r shrinks
    # from 3 to 1; delta 4 and eps 4 are missing
    for s, r in [(0, 0), (0, 1), (1, 2), (2, 2), (3, 2), (3, 3), (3, 1),
                 (3, 4), (4, 1)]:
        want = _chi_reference(tower, eps[1:s + 1], deltas[1:r + 1])
        got.append(chi.at(s, r))
        assert got[-1] == want, (s, r)
    assert got == [1, 1, None, None, 2, 2, 4, None, None]
    assert set(asked) == {1, 2, 3, 4}
