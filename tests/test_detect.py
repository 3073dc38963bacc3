"""The finite-generation detector and ramification reports, pinned.

Each file under data/detect holds, for one chain cell or shipped scenario,
``repr(fingen_detect(g_r, g_s, ext, 6))`` and the lines of
``ramification_report(g_r, g_s, ext, depth=6)`` (or the error either
raised), for every pair the case names: each valuation against its free
transform, and each ``fingen`` line of a scenario's run section.  The
case ``v1-over-Qi`` is the shipped qi, v1's sequence over Q(i) twice, on a
ring with residue field Q and on one with Q(i), joined by the identity
map: the only pinned pair whose chi is not 1.  Each certificate
line is the membership proof at the first level that absorbs the image,
in the generators g_0..g_s of that level.  A change that alters a verdict
on purpose records them again with

    PYTHONPATH=src python tests/test_detect.py
"""

import itertools
from functools import lru_cache
from pathlib import Path

import pytest

import valtool
from valtool import graded
from valtool.blowup import free_transform
from valtool.extension import ramification_report
from valtool.genseq import initial_form, residue_sum, sigma_indices
from valtool.graded import (GradedElem, fingen_detect, graded_piece_basis,
                            key_initial, subalgebra_membership)
from valtool.scenario import parse_scenario
from valtool.values import INFINITE, RunningIndex

from subfields import value_index
from test_genseq import _chain_cell, semigroup_membership
from test_graded import _combination, _form, _graded_one

DETECT = Path(__file__).resolve().parent / "data" / "detect"
CELLS = ([(d, b, 1) for d in (1, 2, 3) for b in ("Q", "GF2", "GF3")]
         + [(d, b, 2) for d in (1, 2) for b in ("Q", "GF2", "GF3")])
SCENARIOS = ("v1", "pi2", "disc", "def2", "corn")
# v1's sequence over the Q(i) tower, once on a ring with residue field Q
# and once on one with Q(i): chi = [Q(i) : Q] = 2 at every level; the
# shipped qi, pinned as v1-over-Qi
SHIPPED_AS = {"v1-over-Qi": "qi"}
CASES = (["chain-d%d-%s-rank%d" % c for c in CELLS] + list(SCENARIOS)
         + list(SHIPPED_AS))


def _attempt(call):
    try:
        out = call()
    except Exception as err:  # a refusal is part of the pinned answer
        return ["raises %s: %s" % (type(err).__name__, err)]
    return repr(out).splitlines()


def _pair_lines(title, g_r, g_s, ext):
    return (["== %s" % title, "-- fingen_detect"]
            + _attempt(lambda: fingen_detect(g_r, g_s, ext, 6))
            + ["-- ramification_report"]
            + _attempt(lambda: ramification_report(g_r, g_s, ext, depth=6)))


def _pairs(case):
    """Each pair the case names, as (title, g_r, g_s, ext), or as (title,
    err) when a valuation's free transform raises err."""
    if case.startswith("chain-"):
        d, b, r = case.split("-")[1:]
        named = [(case, _chain_cell(int(d[1:]), b, int(r[4:])))]
        runs = []
    else:
        sc = parse_scenario(valtool.scenario_path(
            SHIPPED_AS.get(case, case)).read_text())
        named = [("%s against its transform" % name, g)
                 for name, g in sc.valuations.items()]
        runs = [("fingen %s" % " ".join(args[:3]), sc.valuations[args[1]],
                 sc.valuations[args[2]], sc.extensions[args[0]])
                for _, verb, args in sc.commands if verb == "fingen"]
    for title, g in named:
        try:
            tmap, target = free_transform(g)
        except Exception as err:
            yield title, err
        else:
            yield title, g, target, tmap.extension()
    yield from runs


def dump(case):
    out = []
    for title, *pair in _pairs(case):
        if len(pair) == 1:
            out += ["== %s" % title, "free_transform raises %s: %s"
                    % (type(pair[0]).__name__, pair[0])]
        else:
            out += _pair_lines(title, *pair)
    return out


@pytest.mark.parametrize("case", CASES)
def test_detector_answers_are_unchanged(case):
    pinned = (DETECT / ("%s.txt" % case)).read_text().splitlines()
    assert dump(case) == pinned


@pytest.mark.parametrize("case", CASES)
def test_certificates_multiply_out_to_the_images(case):
    # each kept certificate, multiplied out in g_0..g_s of the level s that
    # first absorbs its image, is the image's initial form, here expanded
    # afresh through the map
    for title, *pair in _pairs(case):
        if len(pair) == 1:
            continue
        g_r, g_s, ext = pair
        st = fingen_detect(g_r, g_s, ext, 6)
        sigma, tau = sigma_indices(g_r), sigma_indices(g_s)
        r = st.levels[-1].r
        assert sorted(st.certificates) == sorted(sigma[:r + 1]), title
        for pos, j in enumerate(sigma[:r + 1]):
            s = next(lvl.s for lvl in st.levels if lvl.r >= pos)
            gens = [key_initial(g_s, tau[t]) for t in range(s + 1)]
            image = initial_form(ext.apply(g_r.keys[j]), g_s)
            terms = []
            for gexps, c in st.certificates[j].certificate:
                assert len(gexps) == s + 1, (title, j)
                terms.append((graded._monomial(g_s, gens, gexps), c))
            total = _combination(g_s, image.point, terms)
            assert _form(total) == _form(image), (title, j)


# -- the detector's single-term products and lambda ------------------------------

GEN_CASES = (["chain-d%d-Q-rank1" % d for d in range(1, 6)]
             + ["chain-d2-GF3-rank2", "corn", "pi2", "def2", "v1-over-Qi"])


@lru_cache(maxsize=None)
def _generator_sets(case):
    """(g_r, g_s, ext, images, gens) for each pair of the case: the sigma
    images as the detector reads them, and those with every target key
    initial, the generators its products are formed from."""
    out = []
    for title, *pair in _pairs(case):
        if len(pair) == 1:
            continue
        g_r, g_s, ext = pair
        images = {}
        for j in sigma_indices(g_r):
            images[j] = ext.initial_image(g_r, j, g_s)
            if images[j] is None:
                images[j] = initial_form(ext.apply(g_r.keys[j]), g_s)
        gens = list(images.values()) + [key_initial(g_s, i)
                                        for i in range(len(g_s.keys))]
        out.append((g_r, g_s, ext, images, gens))
    return out


def _two_term(g, gens):
    """A two-term homogeneous element at the value of a product of two of
    ``gens``, or None when each such piece has one reduced monomial."""
    for a in gens:
        for b in gens:
            point = (a.point[0] + b.point[0], a.point[1] + b.point[1])
            basis = graded_piece_basis(point, g)
            if len(basis) >= 2:
                one = g.ctx.tower.one()
                return GradedElem(g, point, {basis[0]: one, basis[-1]: one})
    return None


def _chained(g, gens, exps):
    """The product one factor at a time, each step reduced on its own."""
    term = _graded_one(g)
    for gen, k in zip(gens, exps):
        power = graded._monomial(g, [gen], [k])
        term = graded._monomial(g, [term, power], [1, 1])
    return term


def test_single_term_monomials_equal_the_chained_products():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data())
    def check(data):
        case = data.draw(st.sampled_from(GEN_CASES))
        sets = _generator_sets(case)
        _, g_s, _, _, gens = sets[data.draw(st.integers(0, len(sets) - 1))]
        # a multi-term factor is multiplied into the single-term product
        extra = _two_term(g_s, gens) if data.draw(st.booleans()) else None
        if extra is not None:
            gens = gens + [extra]
        exps = data.draw(st.lists(st.integers(0, 3), min_size=len(gens),
                                  max_size=len(gens)))
        got = graded._monomial(g_s, gens, exps)
        assert _form(got) == _form(_chained(g_s, gens, exps)), (case, exps)

    check()


@pytest.mark.parametrize("case", GEN_CASES)
def test_single_term_generators_form_no_graded_product(case, monkeypatch):
    # the closed-form images and the key initials are single terms, so a
    # monomial in them is formed in one step: one graded element is built
    built = []
    init = GradedElem.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    for _, g_s, _, _, gens in _generator_sets(case):
        single = [gen for gen in gens if len(gen.coeffs) == 1]
        want = _chained(g_s, single, [2] * len(single))
        built.clear()
        monkeypatch.setattr(GradedElem, "__init__", counting)
        got = graded._monomial(g_s, single, [2] * len(single))
        monkeypatch.undo()
        assert _form(got) == _form(want) and len(built) == 1, case


@pytest.mark.parametrize("case", GEN_CASES)
def test_lambda_from_grid_points_is_the_group_index_of_the_values(case):
    for g_r, g_s, ext, images, _ in _generator_sets(case):
        st = fingen_detect(g_r, g_s, ext, 6)
        sigma, tau = sigma_indices(g_r), sigma_indices(g_s)
        for lvl in st.levels:
            if lvl.r < 0:
                continue
            absorbed = [images[j] for j in sigma[:lvl.r + 1]]
            from_points = RunningIndex(
                [g_s.grid.points[tau[t]] for t in range(lvl.s + 1)],
                [img.point for img in absorbed]).at(lvl.s, lvl.r)
            from_values = value_index(
                [g_s.values[tau[t]] for t in range(lvl.s + 1)],
                [img.value for img in absorbed])
            assert from_points == from_values, (case, lvl)
            assert lvl.lam == (None if from_points is INFINITE
                               else from_points), (case, lvl)



# -- sparse membership and chi's residue ratios, against references ----------------

class _DenseSolver:
    """Gaussian elimination on dense lists, the pivot inverted at every
    reduction: the solver the dense reference below was decided with."""

    def __init__(self, base):
        self.base, self.rows, self.count = base, [], 0

    def _reduce(self, vec, rows):
        b = self.base
        combo, vec = {self.count: b.one()}, list(vec)
        for piv, row, row_combo in rows:
            c = vec[piv]
            if b.is_zero(c):
                continue
            factor = b.mul(c, b.inv(row[piv]))
            vec = [b.sub(x, b.mul(factor, r)) for x, r in zip(vec, row)]
            for k, v in row_combo.items():
                combo[k] = b.sub(combo.get(k, b.zero()), b.mul(factor, v))
        return vec, combo

    def add(self, vec):
        vec, combo = self._reduce(vec, self.rows)
        self.count += 1
        for i, c in enumerate(vec):
            if not self.base.is_zero(c):
                self.rows.append((i, vec, combo))
                return True
        return False

    def solve(self, target):
        vec, combo = self._reduce(target, self.rows)
        if any(not self.base.is_zero(c) for c in vec):
            return None
        del combo[self.count]
        return {k: self.base.neg(v) for k, v in combo.items()
                if not self.base.is_zero(v)}


def _dense_membership(e, gens):
    """(ok, certificate, detail) of e in k[gens] on dense coordinates
    numbered by the reduced monomials of e's piece, then e's own outside
    them: the membership algorithm before its columns went sparse."""
    g = e.genseq
    tower = g.ctx.tower
    dim = tower.degree()
    field = g.residue_chain[0][:g.residue_ranks[0]]
    exp_index = {exps: i for i, exps in
                 enumerate(graded_piece_basis(e.point, g))}
    for exps in e.coeffs:
        exp_index.setdefault(exps, len(exp_index))

    def flatten(elem, scalar):
        vec = [tower.base.zero()] * (len(exp_index) * dim)
        for exps, c in elem.coeffs.items():
            for k, x in enumerate((c * scalar).to_vector()):
                vec[exp_index[exps] * dim + k] = x
        return vec

    solver = _DenseSolver(tower.base)
    target = flatten(e, tower.one())
    columns, products, sol = [], 0, None
    for gexps, prod in graded._products_of_value(gens, e.point, g):
        products += 1
        grew = False
        for b in field:
            grew = solver.add(flatten(prod, b)) or grew
            columns.append((gexps, b))
        if grew:
            sol = solver.solve(target)
            if sol is not None:
                break
    if not products:
        return False, None, "no generator monomial has value %r" % e.value
    if sol is None:
        sol = solver.solve(target)
    if sol is None:
        return (False, None, "rank %d system over %d monomials has no "
                "solution" % (len(solver.rows), products))
    combo = {}
    for idx, scal in sol.items():
        gexps, b = columns[idx]
        combo[gexps] = combo.get(gexps, tower.zero()) + b * scal
    return True, sorted((k, c) for k, c in combo.items()
                        if not c.is_zero()), ""


MEMBERSHIP_CASES = GEN_CASES + ["chain-d2-GF2-rank1", "chain-d3-GF2-rank1",
                                "chain-d3-GF3-rank1", "chain-d2-Q-rank2"]


def test_sparse_membership_matches_the_dense_piece_basis_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data())
    def check(data):
        case = data.draw(st.sampled_from(MEMBERSHIP_CASES))
        sets = _generator_sets(case)
        _, g, _, _, gens = sets[data.draw(st.integers(0, len(sets) - 1))]
        tower = g.ctx.tower
        # e: one or two reduced monomials at the value of a small product
        # of the generators, with coefficients off the base field too
        exps = data.draw(st.lists(st.integers(0, 1), min_size=len(gens),
                                  max_size=len(gens)).filter(any))
        point = graded._monomial(g, gens, exps).point
        basis = graded_piece_basis(point, g)
        scalars = [tower.one(), tower.scalar(-1), tower.scalar(2)] + [
            tower.gen(i) for i in range(tower.height)]
        chosen = data.draw(st.lists(st.sampled_from(basis), min_size=1,
                                    max_size=2, unique=True))
        e = GradedElem(g, point, {m: data.draw(st.sampled_from(scalars))
                                  for m in chosen})
        # against some of the generators, so that some memberships fail
        sub = [gen for gen, keep in zip(gens, data.draw(st.lists(
            st.booleans(), min_size=len(gens), max_size=len(gens)))) if keep]
        res = subalgebra_membership(e, sub or gens[:1])
        assert (res.ok, res.certificate, res.detail) == \
            _dense_membership(e, sub or gens[:1]), (case, e)

    check()


def _qi_nu():
    """qi's nu with its key initials: a ring whose residue field Q is
    smaller than its tower Q(i)."""
    sc = parse_scenario(valtool.scenario_path("qi").read_text())
    nu = sc.valuations["nu"]
    return nu, [key_initial(nu, i) for i in range(len(nu.keys))]


def test_single_term_membership_fails_as_the_unfiltered_system_does():
    # a single-term e is decided by exponent match or by the system on
    # every column walked; a walk that finds products but no solution must
    # report the rank of every column walked, as the dense reference does,
    # also on a ring whose residue field is smaller than its tower
    kinds = set()
    rings = [(case, g, gens) for case in ("v1-over-Qi", "chain-d2-GF2-rank1")
             for _, g, _, _, gens in _generator_sets(case)]
    rings.append(("qi nu", *_qi_nu()))
    for case, g, gens in rings:
        tower = g.ctx.tower
        scalars = [tower.one(), tower.scalar(2)]
        for i in range(tower.height):
            scalars += [tower.gen(i), tower.one() + tower.gen(i)]
        scalars = [c for c in scalars if not c.is_zero()]
        extra = _two_term(g, gens)  # its products have two terms
        for sub in [gens[:3]] + ([[extra] + gens[:2]] if extra else []):
            for exps in itertools.product(range(3), repeat=len(sub)):
                point = graded._monomial(g, sub, exps).point
                for m, c in itertools.product(
                        graded_piece_basis(point, g), scalars):
                    e = GradedElem(g, point, {m: c})
                    res = subalgebra_membership(e, sub)
                    assert (res.ok, res.certificate, res.detail) == \
                        _dense_membership(e, sub), (case, e, exps)
                    if res.ok or not res.detail.startswith("rank"):
                        continue
                    prods = [p for _, p in
                             graded._products_of_value(sub, point, g)]
                    kinds.add("at e" if any(m in p.coeffs for p in prods)
                              else "off e")
                    if any(len(p.coeffs) > 1 for p in prods):
                        kinds.add("two terms")
    assert kinds == {"at e", "off e", "two terms"}


MATCH_CASES = ["chain-d%d-%s-rank%d" % (d, b, r) for d in (1, 2, 3)
               for b in ("Q", "GF2", "GF3") for r in (1, 2)]


def _solvers_built(monkeypatch):
    """A list that gains an entry for each LinearSolver graded builds."""
    built = []

    class Counting(graded.LinearSolver):
        def __init__(self, base):
            built.append(base)
            super().__init__(base)

    monkeypatch.setattr(graded, "LinearSolver", Counting)
    return built


def _matched_before_two_terms(e, gens):
    """Whether the walk meets a single-term product at e's exponent vector
    before any product of two or more terms."""
    (own,) = e.coeffs
    for _, prod in graded._products_of_value(gens, e.point, e.genseq):
        if len(prod.coeffs) > 1:
            return False
        if own in prod.coeffs:
            return True
    return False


def test_exponent_match_decides_as_the_dense_reference(monkeypatch):
    # single-term memberships over height-0 chain cells: a success, a rank
    # failure, an empty walk and a walk handed to the solver at a two-term
    # product all give the dense answer, and only the handover builds a
    # solver
    built = _solvers_built(monkeypatch)
    kinds = set()
    for case in MATCH_CASES:
        for _, g, _, _, gens in _generator_sets(case):
            tower = g.ctx.tower
            assert tower.height == 0, case
            scalars = [c for c in (tower.one(), tower.scalar(-1),
                                   tower.scalar(2)) if not c.is_zero()]
            extra = _two_term(g, gens)  # its products have two terms
            subs = [gens[:3], gens[1:4]] + ([[extra] + gens[:2]]
                                            if extra else [])
            points = {graded._monomial(g, sub, exps).point for sub in subs
                      for exps in itertools.product(range(2),
                                                    repeat=len(sub))}
            for point, sub in itertools.product(points, subs):
                for m, c in itertools.product(graded_piece_basis(point, g),
                                              scalars):
                    e = GradedElem(g, point, {m: c})
                    built.clear()
                    res = subalgebra_membership(e, sub)
                    assert (res.ok, res.certificate, res.detail) == \
                        _dense_membership(e, sub), (case, e, sub)
                    matched = _matched_before_two_terms(e, sub)
                    assert res.ok or not matched, (case, e, sub)
                    handed = not matched and any(
                        len(p.coeffs) > 1 for _, p in
                        graded._products_of_value(sub, point, g))
                    assert bool(built) == handed, (case, e, sub)
                    kinds.add("handover" if handed else
                              "match" if res.ok else res.detail[:4])
    assert kinds == {"match", "rank", "no g", "handover"}


def test_only_rings_below_their_tower_solve_single_term_memberships(
        monkeypatch):
    # exponent match decides wherever the residue field is the whole tower:
    # the chain cells and the Q(i) rings of v1-over-Qi; nu's ring R and its
    # transform have residue field Q below Q(i) and build one solver each
    built = _solvers_built(monkeypatch)
    rings = [(case, g, gens, want)
             for case, wants in (("chain-d2-Q-rank1", [False]),
                                 ("v1-over-Qi", [True, False, False]))
             for (_, g, _, _, gens), want in zip(_generator_sets(case), wants,
                                                 strict=True)]
    rings.append(("qi nu", *_qi_nu(), True))
    for case, g, gens, want in rings:
        assert (g.ctx.ring_levels < g.ctx.tower.height) == want, case
        e = graded._monomial(g, gens, [1, 1] + [0] * (len(gens) - 2))
        assert len(e.coeffs) == 1, case
        built.clear()
        assert subalgebra_membership(e, gens), case
        assert len(built) == want, case


def _reference_ratio(num, den):
    """Residue of num / den against the greedy reduced monomial of their
    value, the reference chi's deltas were once taken against."""
    g = num.genseq
    ref = semigroup_membership(num.value, g)
    assert ref is not None, num
    top, bottom = (residue_sum([(c, e) for e, c in x.coeffs.items()], g, ref)
                   for x in (num, den))
    return None if top.is_zero() or bottom.is_zero() else top / bottom


def test_residue_ratios_match_the_reference_monomial_ratio(monkeypatch):
    # every delta the pinned detections compute: den's first monomial as
    # the reference gives the ratio the greedy monomial gave
    seen = []
    ratio = graded._residue_ratio

    def recording(num, den):
        seen.append((num, den, ratio(num, den)))
        return seen[-1][2]

    monkeypatch.setattr(graded, "_residue_ratio", recording)
    for case in CASES:
        dump(case)
    assert len(seen) > 10
    for num, den, got in seen:
        want = _reference_ratio(num, den)
        assert (got is None) == (want is None) and (got is None
                                                    or got == want), num

if __name__ == "__main__":
    DETECT.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (DETECT / ("%s.txt" % case)).write_text("\n".join(dump(case)) + "\n")
