"""Acceptance suite: one test per criterion, printed pass/fail lines.

Every expected constant here was either computed by an independent oracle
(truncated series, lattice determinants) or cross-checked by hand before
being frozen; tolerances are exact equality throughout, plus the stated
wall-clock budgets.
"""

import random
import time
from fractions import Fraction

import valtool
from valtool import fixtures
from valtool.blowup import free_transform, shift_table, strict_transform
from valtool.extension import ramification_report, splitting_report
from valtool.genseq import InsufficientGeneratingData, evaluate, validate_sequence
from valtool.graded import fingen_detect, graded_presentation
from valtool.ring import INSUFFICIENT_PRECISION, parse_poly, series_value
from valtool.scenario import parse_scenario
from valtool.values import Value

from subfields import value_index


def _disc_sides():
    """The discrete fixture's downstairs and upstairs sequences (nustar
    is oracle branch1) and its extension map, from one parse."""
    sc = parse_scenario(valtool.scenario_path("disc").read_text())
    return sc.valuations["nu"], sc.valuations["nustar"], sc.extensions["ext"]


def _report(number, label, elapsed, budget):
    print("ACCEPTANCE %d: PASS  %s  (%.3fs < %ss)"
          % (number, label, elapsed, budget))
    assert elapsed < budget, "criterion %d exceeded its %ss budget" % (
        number, budget)


def _sample_poly(ctx, rng):
    f = ctx.zero()
    for _ in range(rng.randint(3, 7)):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        f = f + ctx.monomial(rng.randint(0, 6), rng.randint(0, 4), c)
    return f


def test_criterion_1_def2_defect_and_graded_collapse():
    start = time.perf_counter()
    g_r, g_s, ext = fixtures.def2()
    rep = ramification_report(g_r, g_s, ext, depth=4)
    assert (rep.e, rep.f, rep.delta) == (1, 1, 1)
    assert rep.routes["ostrowski"] == 1
    assert rep.routes["local-degree"] == 1
    assert rep.consistent
    for g in (g_r, g_s):
        pres = graded_presentation(g, 4)
        essential = pres.essential_generators()
        assert [gen.index for gen in essential] == [0]
        assert pres.is_polynomial_ring()
    _report(1, "defect fixture: e=1, f=1, delta=1 on both routes; "
               "graded rings collapse to one generator",
            time.perf_counter() - start, 1)


def test_criterion_2_pi2_splitting_and_fingen():
    start = time.perf_counter()
    nu_r, nu1, nu2, ext = fixtures.pi2()
    pi = nu_r.values[2].tau
    # exact rank-2 values, recomputed by evaluation upstairs
    v_u = evaluate(ext.apply(nu_r.keys[0]), nu1)
    v_vu = evaluate(ext.apply(nu_r.keys[2]), nu1)
    assert v_u == Value(2, 0, pi)
    assert v_vu == Value(2, 1, pi)
    assert value_index([Value(1, 0, pi), Value(1, 1, pi)],
                       [v_u, v_vu]) == 2
    sp = splitting_report([nu1, nu2], ext, nu_r, seed=3)
    assert sp.witnessed and len(sp.distinct_pairs) >= 1
    st = fingen_detect(nu_r, nu1, ext, 4)
    assert st.verdict.kind == "consistent"
    assert (st.e, st.f) == (2, 1)
    # generator pattern in(x), in(y-x) upstairs; relation in(x)^2 = in(u)
    pres = graded_presentation(nu1, 2)
    assert [g.index for g in pres.essential_generators()] == [0, 2]
    # in(u) is absorbed at level 0, so it is proved in in(x) alone
    assert st.certificates[0].certificate == [((2,), nu1.ctx.tower.one())]
    _report(2, "rank-2 fixture: values (2,0), (2,1); e=2; splitting "
               "witnessed; consistent-with-finite-generation",
            time.perf_counter() - start, 1)


def test_criterion_3_disc_splitting():
    start = time.perf_counter()
    g_r, nu1, nu2, ext = fixtures.disc()
    sp = splitting_report([nu1, nu2], ext, g_r,
                          probes=[parse_poly("y - x", nu1.ctx)], seed=3)
    assert sp.witnessed
    assert all(c.restricts for c in sp.candidates)
    d_r, g_s, d_ext = _disc_sides()
    st = fingen_detect(d_r, g_s, d_ext, 4)
    # one generator at level 0, so the certificate reads in(u) = in(x)^2
    assert st.certificates[0].certificate == [((2,), g_s.ctx.tower.one())]
    assert st.verdict.kind == "consistent"
    _report(3, "discrete fixture: splitting via both truncated branches; "
               "in(u) = in(x)^2 reproduced",
            time.perf_counter() - start, 1)


def test_criterion_4_oracle_equivalence_200():
    start = time.perf_counter()
    v1 = fixtures.v1()
    rng = random.Random(2024)
    decided = undecided = 0
    disagreements = []
    produced = 0
    while produced < 200:
        f = _sample_poly(v1.ctx, rng)
        if f.is_zero():
            continue
        produced += 1
        oracle = series_value(f, v1.oracle)
        try:
            symbolic = evaluate(f, v1)
        except InsufficientGeneratingData:
            undecided += 1
            continue
        if oracle is INSUFFICIENT_PRECISION:
            undecided += 1
            continue
        decided += 1
        if symbolic != oracle:
            disagreements.append((f, symbolic, oracle))
    assert not disagreements, disagreements
    assert decided + undecided == 200
    elapsed = time.perf_counter() - start
    print("ACCEPTANCE 4: PASS  oracle equivalence on 200 samples: "
          "%d decided, %d undecided (rate %.1f%%), 0 disagreements  "
          "(%.3fs < 10s)" % (decided, undecided, 100.0 * undecided / 200,
                             elapsed))
    assert elapsed < 10


def test_criterion_5_valuation_axioms():
    start = time.perf_counter()
    v1 = fixtures.v1()
    rng = random.Random(2024)
    pairs = 0
    while pairs < 100:
        f, g = _sample_poly(v1.ctx, rng), _sample_poly(v1.ctx, rng)
        if f.is_zero() or g.is_zero():
            continue
        pairs += 1
        try:
            vf, vg = evaluate(f, v1), evaluate(g, v1)
        except InsufficientGeneratingData:
            continue
        # products never lose decidability: the graded ring is a domain
        vfg = evaluate(f * g, v1)
        assert vfg == vf + vg
        s = f + g
        if s.is_zero():
            continue
        try:
            vs = evaluate(s, v1)
        except InsufficientGeneratingData:
            # undecided means the value exceeds every decided bound, which
            # still certifies  nu(f+g) >= min
            assert vf == vg
            continue
        assert vs >= min(vf, vg)
        if vf != vg:
            assert vs == min(vf, vg)
    elapsed = time.perf_counter() - start
    print("ACCEPTANCE 5: PASS  valuation axioms on the shared sample: "
          "0 violations  (%.3fs < 10s)" % elapsed)
    assert elapsed < 10


def test_criterion_6_transform_invariants():
    start = time.perf_counter()
    v1 = fixtures.v1()
    tmap, tgt = free_transform(v1)
    # chart x1 = x^2 y^-1, y1 = x^-3 y^2  <=>  x = x1^2 y1, y = x1^3 y1^2
    assert (tmap.nbar, tmap.w, tmap.a, tmap.b) == (2, 3, 1, 2)
    unit = tgt.ctx.y() + tgt.ctx.one()
    ext = tmap.extension()
    assert ext.u_image == tgt.ctx.x() ** 2 * unit
    assert ext.v_image == tgt.ctx.x() ** 3 * unit ** 2
    assert tmap.exceptional_value == Value(Fraction(1, 2))
    st = strict_transform(parse_poly("y^2 - x^3", v1.ctx), tmap)
    assert st == tgt.ctx.y()          # y1 - 1 in the recentered chart
    rows = shift_table(v1, tgt)
    assert rows and all(r.ok for r in rows)
    assert all(r.jump[0] == r.jump[1] for r in rows)
    assert validate_sequence(tgt).ok
    _report(6, "one transform on the rank-1 fixture: chart, exceptional "
               "value 1/2, strict transform, and shift table all exact",
            time.perf_counter() - start, 1)


def test_criterion_7_obstruction_witness():
    start = time.perf_counter()
    corn = fixtures.corn()
    tmap, tgt = free_transform(corn)
    ext = tmap.extension()
    for depth in range(1, 7):
        st = fingen_detect(corn, tgt, ext, depth)
        assert st.verdict.kind == "obstruction", depth
        assert st.witnesses, depth
        for _, witness in st.witnesses:
            assert witness  # each new target initial form failed membership
    _report(7, "three-key non-discrete fixture: obstruction witnessed at "
               "every depth 1..6 after one transform",
            time.perf_counter() - start, 5)


def test_criterion_9_monotonicity_and_index_identity():
    start = time.perf_counter()
    runs = []
    g_r, g_s, ext = fixtures.def2()
    runs.append(("def2", fingen_detect(g_r, g_s, ext, 4)))
    nu_r, nu1, nu2, ext2 = fixtures.pi2()
    runs.append(("pi2", fingen_detect(nu_r, nu1, ext2, 4)))
    runs.append(("disc", fingen_detect(*_disc_sides(), 4)))
    v1 = fixtures.v1()
    from valtool.extension import ExtensionMap
    ident = ExtensionMap(v1.ctx, parse_poly("x", v1.ctx),
                         parse_poly("y", v1.ctx), field_degree=1)
    runs.append(("v1-identity", fingen_detect(v1, v1, ident, 4)))
    corn = fixtures.corn()
    tmap, tgt = free_transform(corn)
    runs.append(("corn-transform", fingen_detect(corn, tgt,
                                                 tmap.extension(), 6)))
    for name, st in runs:
        lams = [l.lam for l in st.levels if l.lam is not None]
        chis = [l.chi for l in st.levels if l.chi is not None]
        assert all(a >= b for a, b in zip(lams, lams[1:])), name
        assert all(a >= b for a, b in zip(chis, chis[1:])), name
        assert st.e is not None and st.f is not None, name
        assert st.e * st.f == lams[-1] * chis[-1], name
    _report(9, "lambda and chi non-increasing on every fixture run; "
               "lambda*chi = e*f on all verdicts",
            time.perf_counter() - start, 10)
