import functools
import gc
import io
import itertools
import random
import weakref
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import valtool
from valtool import fixtures, genseq, ring
from valtool.blowup import free_transform, iterate_transforms
from valtool.cli import main
from valtool.genseq import (
    GenSeq,
    InsufficientGeneratingData,
    KeyStep,
    MissingResidueData,
    NonMonicKey,
    PreconditionError,
    TailTerm,
    evaluate,
    expand,
    initial_form,
    next_key,
    reduced_representation,
    residue_of_monomial,
    sigma_indices,
    step_from_tail,
    validate_sequence,
)
from valtool.ring import INSUFFICIENT_PRECISION, LocalRingCtx, parse_poly, series_value
from valtool.scenario import parse_scenario
from valtool.towers import QQ, BaseField, ResidueTower, span_closure
from valtool.values import INFINITE, Value, pi_descriptor

from subfields import field_index, order_modulo
from test_graded import _IDENTITY_RING, _chain, _v1_declared


@pytest.fixture
def v1():
    return fixtures.v1()


def P(g, text):
    return parse_poly(text, g.ctx)


# -- derivation and validation ------------------------------------------------

def test_v1_derived_invariants(v1):
    lvl1, lvl2 = v1.level(1), v1.level(2)
    assert lvl1.group_jump == 2
    assert lvl1.unit_exps == (3,)          # x^3
    assert lvl1.residue == v1.ctx.tower.one()
    assert lvl1.residue_degree == 1
    assert lvl1.cap == 2                   # n_1
    assert lvl2.group_jump == 1
    assert lvl2.unit_exps == (2, 1)        # x^2 y
    assert lvl2.residue == v1.ctx.tower.scalar(2)
    assert lvl2.residue_degree == 1
    assert lvl2.cap == 1


def test_v1_validates(v1):
    report = validate_sequence(v1)
    assert report.ok, report


def test_v1_bad_next_value_fails():
    g = fixtures.v1()
    bad = GenSeq(g.ctx, [Value(1), Value(Fraction(3, 2)), Value(3)],
                 steps=[KeyStep(1, 2, [TailTerm(g.ctx.tower.scalar(-1), (3, 0))],
                                Value(3))],
                 residues={1: g.ctx.tower.one()})
    report = validate_sequence(bad)
    assert not report.ok
    assert any("next value exceeds" in name for name, _ in report.failures())


def test_step_next_value_must_be_its_key_value():
    tower = ResidueTower(QQ)
    ctx = LocalRingCtx(tower, ("x", "y"))
    with pytest.raises(ValueError, match="next value 100 but key 2 has"):
        GenSeq(ctx, [1, Fraction(3, 2), Fraction(7, 2)],
               [KeyStep(1, 2, [TailTerm(-1, (3, 0))], Value(100))])
    g = GenSeq(ctx, [1, Fraction(3, 2), Fraction(7, 2)],
               [KeyStep(1, 2, [TailTerm(-1, (3, 0))], Fraction(7, 2))],
               residues={1: tower.one()})
    report = validate_sequence(g)
    assert report.ok
    assert ("PASS next value exceeds the leading form at step 1: 7/2 vs 3"
            in report.lines())


def test_v1_bad_tail_value_fails():
    tower = ResidueTower(QQ)
    ctx = LocalRingCtx(tower, ("x", "y"))
    bad = GenSeq(ctx, [Value(1), Value(Fraction(3, 2)), Value(Fraction(7, 2))],
                 steps=[KeyStep(1, 2, [TailTerm(tower.scalar(-1), (2, 0))],
                                Value(Fraction(7, 2)))],
                 residues={1: tower.one()})
    report = validate_sequence(bad)
    assert not report.ok
    assert any("tail values" in name or "equal-value" in name
               for name, _ in report.failures())


def test_terminal_rank_jump_sequence():
    _, nu1, _, _ = fixtures.pi2()
    assert nu1.terminal
    assert nu1.level(2).group_jump is INFINITE
    assert validate_sequence(nu1).ok


# -- expansion -----------------------------------------------------------------

def test_expand_examples(v1):
    e = expand(P(v1, "y^2 + x^3"), v1)
    got = {exps: c for c, exps, _ in e.terms}
    assert got == {(0, 0, 1): v1.ctx.tower.one(),
                   (3, 0, 0): v1.ctx.tower.scalar(2)}
    single = expand(P(v1, "x"), v1)
    assert [t[1] for t in single.terms] == [(1, 0, 0)]
    mono = expand(P(v1, "x^2*y"), v1)
    assert [t[1] for t in mono.terms] == [(2, 1, 0)]
    assert mono.terms[0][2] == Value(Fraction(7, 2))


def test_expand_reconstructs_exactly(v1):
    rng = random.Random(17)
    for _ in range(40):
        f = v1.ctx.zero()
        for _ in range(5):
            f = f + v1.ctx.monomial(rng.randint(0, 6), rng.randint(0, 4),
                                    rng.randint(-3, 3))
        if f.is_zero():
            continue
        e = expand(f, v1)
        assert e.reconstruct() == f
        # inner exponents stay below the recursion powers
        for _, exps, _ in e.terms:
            assert exps[1] < 2


def test_expansion_is_deterministic(v1):
    f = P(v1, "y^3 - 2*x*y + x^5")
    t1 = [(t[1], t[2]) for t in expand(f, v1).terms]
    t2 = [(t[1], t[2]) for t in expand(f, v1).terms]
    assert t1 == t2


def _grid_cases():
    """Chains of rank 1 and 2, their transforms, and the pi2 rank-2 fixture."""
    for cell in [(3, "Q", 1), (3, "GF3", 1), (2, "GF2", 2), (3, "Q", 2)]:
        g = _chain_cell(*cell)
        yield g
        yield free_transform(g)[1]
    yield fixtures.pi2()[1]


def test_values_on_the_grid_are_value_sums():
    rng = random.Random(23)
    for g in _grid_cases():
        for _ in range(20):
            exps = [rng.randint(-1, 3) for _ in g.keys]
            want = sum((v * a for v, a in zip(g.values, exps)), Value(0))
            assert g.value_of(exps) == want, (g, exps)


def test_expansion_terms_come_in_value_order():
    rng = random.Random(29)
    irrational = 0
    for g in _grid_cases():
        for _ in range(10):
            f = g.ctx.zero()
            for _ in range(5):
                exps = [rng.randint(0, 3) for _ in g.keys]
                f = f + g.monomial(exps) * g.ctx.tower.scalar(rng.randint(1, 5))
            if f.is_zero():
                continue
            terms = [(e, v) for _, e, v in expand(f, g).terms]
            assert terms == sorted(terms, key=lambda t: (t[1], t[0])), g
            irrational += len({v.q1 for _, v in terms}) > 1
    assert irrational > 5


# -- evaluation ----------------------------------------------------------------

def test_evaluate_examples(v1):
    assert evaluate(P(v1, "y^2 + x^3"), v1) == Value(3)
    assert evaluate(P(v1, "y^2 - x^3"), v1) == Value(Fraction(7, 2))
    assert evaluate(P(v1, "x"), v1) == Value(1)


def test_evaluate_residue_tie_decided(v1):
    # (y^2 - x^3)^2 - x^7: residue sum alpha_2^2 - 1 = 3 is nonzero, value 7
    f = P(v1, "(y^2 - x^3)^2 - x^7")
    assert evaluate(f, v1) == Value(7)


def test_evaluate_insufficient_prefix(v1):
    # y^2 - x^3 - 2 x^2 y kills the level-2 residue sum; the prefix cannot
    # decide (the oracle knows the value is 4, the declared data does not)
    f = P(v1, "y^2 - x^3 - 2*x^2*y")
    with pytest.raises(InsufficientGeneratingData):
        evaluate(f, v1)
    assert series_value(f, v1.oracle) == Value(4)


def test_evaluate_zero_rejected(v1):
    with pytest.raises(PreconditionError):
        evaluate(v1.ctx.zero(), v1)


def test_oracle_equivalence_randomized(v1):
    rng = random.Random(29)
    disagreements = 0
    undecided = 0
    checked = 0
    for _ in range(120):
        f = v1.ctx.zero()
        for _ in range(4):
            f = f + v1.ctx.monomial(rng.randint(0, 6), rng.randint(0, 4),
                                    rng.randint(-3, 3))
        if f.is_zero():
            continue
        try:
            symbolic = evaluate(f, v1)
        except InsufficientGeneratingData:
            undecided += 1
            continue
        oracle = series_value(f, v1.oracle)
        if oracle is INSUFFICIENT_PRECISION:
            undecided += 1
            continue
        checked += 1
        if symbolic != oracle:
            disagreements += 1
    assert disagreements == 0
    assert checked > 60


def test_valuation_axioms_symbolic(v1):
    rng = random.Random(31)
    for _ in range(40):
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
            vf, vg = evaluate(f, v1), evaluate(g, v1)
            assert evaluate(f * g, v1) == vf + vg
            s = f + g
            if not s.is_zero():
                vs = evaluate(s, v1)
                assert vs >= min(vf, vg)
                if vf != vg:
                    assert vs == min(vf, vg)
        except InsufficientGeneratingData:
            continue


# -- residues ------------------------------------------------------------------

def test_residue_of_monomial(v1):
    one = v1.ctx.tower.one()
    # y^2 / x^3 has value 0 and residue alpha_1 = 1
    assert residue_of_monomial((-3, 2, 0), v1) == one
    assert residue_of_monomial((0, 0, 0), v1) == one
    assert residue_of_monomial((-6, 4, 0), v1) == one  # multiplicativity
    # P_2 / (x^2 y) has residue alpha_2 = 2
    assert residue_of_monomial((-2, -1, 1), v1) == v1.ctx.tower.scalar(2)
    with pytest.raises(PreconditionError):
        residue_of_monomial((1, 0, 0), v1)


# -- initial forms ---------------------------------------------------------------

def test_initial_form_examples(v1):
    two = v1.ctx.tower.scalar(2)
    f = initial_form(P(v1, "y^2 + x^3"), v1)
    assert f.coeffs == {(3, 0, 0): two}
    g = initial_form(P(v1, "x"), v1)
    assert list(g.coeffs) == [(1, 0, 0)]
    h = initial_form(P(v1, "y^2 - x^3"), v1)
    assert list(h.coeffs) == [(0, 0, 1)]


# -- sigma indices and semigroup -------------------------------------------------

def test_sigma_indices(v1):
    assert sigma_indices(v1) == [0, 1]
    g_r, g_s, _ = fixtures.def2()
    assert sigma_indices(g_r) == [0]
    assert sigma_indices(g_s) == [0]
    nu_r, nu1, _, _ = fixtures.pi2()
    assert sigma_indices(nu1) == [0, 2]
    assert sigma_indices(nu_r) == [0, 2]
    assert sigma_indices(fixtures.corn()) == [0, 1, 2, 3]


def semigroup_membership(gamma, g):
    """Reduced representation of gamma on every key of g: each level is
    capped by its recursion power, none at a rank jump."""
    caps = [None] + [None if lvl.cap is INFINITE else lvl.cap
                     for lvl in g.levels]
    return reduced_representation(g.grid, gamma, g.grid.points, caps)


def test_semigroup_membership(v1):
    assert semigroup_membership(Value(Fraction(7, 2)), v1) == (2, 1, 0)
    assert semigroup_membership(Value(0), v1) == (0, 0, 0)
    assert semigroup_membership(Value(Fraction(1, 3)), v1) is None
    got = semigroup_membership(Value(3), v1)
    assert got == (3, 0, 0)


def test_semigroup_consistent_with_evaluate(v1):
    rng = random.Random(37)
    for _ in range(30):
        f = v1.ctx.zero()
        for _ in range(4):
            f = f + v1.ctx.monomial(rng.randint(0, 5), rng.randint(0, 3),
                                    rng.randint(-2, 2))
        if f.is_zero():
            continue
        try:
            v = evaluate(f, v1)
        except InsufficientGeneratingData:
            continue
        rep = semigroup_membership(v, v1)
        assert rep is not None
        assert v1.value_of(rep) == v


# -- fixture sequences validate ---------------------------------------------------

@pytest.mark.parametrize("edit, line", [
    (("truncate 40", "truncate 4"),
     "FAIL level 2 derivation: oracle precision exhausted for residue at "
     "level 2"),
    (("oracle series", "alpha 1 3\noracle series"),
     "FAIL level 1 derivation: declared residue 3 disagrees with oracle "
     "residue 1 at level 1")])
def test_oracle_residue_failures_are_reported(edit, line):
    # at truncation 4 the image of y^2 - x^3 vanishes; a declared residue
    # of 3 at level 1 contradicts the oracle's y^2 / x^3 -> 1
    text = valtool.scenario_path("v1").read_text().replace(*edit)
    lines = validate_sequence(parse_scenario(text).valuations["nu"]).lines()
    assert line in lines
    # with an oracle a missing residue is that FAIL, not an unknown one
    assert not any("residue unknown" in text for text in lines)


def test_a_residue_neither_declared_nor_computable_is_warned():
    g = _chain(2)
    lines = validate_sequence(GenSeq(g.ctx, g.values, g.steps)).lines()
    assert "WARN level 1 residue unknown (no oracle, none declared)" in lines


def _not_passed(g):
    return [line for line in validate_sequence(g).lines()
            if not line.startswith("PASS")]


@pytest.mark.parametrize("term", [(-1, 3), (0, 0, 1), (1, 2)],
                         ids=["negative", "key above i", "at its bound"])
def test_a_tail_exponent_out_of_bounds_fails_validation(term):
    # x^-1*y^3, P2 and x*y^2 in P2's own tail, each above the value 3
    g = _v1_declared([(-1, (3,)), (1, term)], residues={1: 1, 2: 1},
                     keys=["x", "y", "y^2 - x^3"])
    assert _not_passed(g) == ["FAIL tail exponent bounds at step 1"]


def test_a_tail_term_past_the_residue_degree_fails_validation():
    # y^2 has the leading value: top multiplicity 1 where f_1 has degree 1
    g = _v1_declared([(-1, (3,)), (1, (0, 2))], residues={1: 1, 2: 1},
                     keys=["x", "y", "y^2 - x^3"])
    assert _not_passed(g) == [
        "FAIL tail exponent bounds at step 1",
        "FAIL tail exponent within minimal-polynomial range at step 1: "
        "term (0, 2) has top multiplicity 1 >= d=1"]


def test_a_minimal_polynomial_coefficient_not_computable_is_warned(
        monkeypatch):
    g = _v1_declared([(-1, (3,))], residues={1: 1, 2: 1})

    def missing(exps, g):
        raise MissingResidueData("forged")

    monkeypatch.setattr(genseq, "residue_of_monomial", missing)
    assert _not_passed(g) == [
        "WARN minimal-polynomial coefficient at step 1 not computable: forged"]


def test_a_rank_jump_before_the_last_level_is_refused():
    tower = ResidueTower(QQ)
    ctx = LocalRingCtx(tower, ("x", "y"))
    pi = Value(0, 1, pi_descriptor())
    values = [Value(1), pi, pi * 2 + Value(1)]
    with pytest.raises(ValueError, match="^rational-rank jump at level 1 "
                                         "must end the sequence$"):
        GenSeq(ctx, values, [KeyStep(1, 2, [], values[2])])


def test_a_top_level_of_unknown_residue_is_reduced_below_its_jump():
    # with no residue and no oracle the top level's cap is unknown: only
    # exponents below its group jump count as reduced, and sigma keeps it
    g = _v1_declared([(-1, (3,))])
    top = g.level(2)
    assert (top.cap, top.group_jump, top.residue_degree) == (None, 1, None)
    assert genseq._is_reduced((5, 1, 0), g)
    assert not genseq._is_reduced((0, 1, 1), g)
    assert sigma_indices(g) == [0, 1, 2]
    chain = _chain(1)  # the top jump is 2
    h = GenSeq(chain.ctx, chain.values, chain.steps)
    assert (h.level(2).cap, h.level(2).group_jump) == (None, 2)
    assert genseq._is_reduced((0, 1, 1), h)
    assert not genseq._is_reduced((0, 0, 2), h)
    assert sigma_indices(h) == [0, 1, 2]


def test_all_fixture_sequences_validate():
    g_r, g_s, _ = fixtures.def2()
    assert validate_sequence(g_r).ok
    assert validate_sequence(g_s).ok
    nu_r, nu1, nu2, _ = fixtures.pi2()
    for g in (nu_r, nu1, nu2):
        assert validate_sequence(g).ok
    assert validate_sequence(fixtures.corn()).ok
    d_r = fixtures.disc()[0]
    assert validate_sequence(d_r).ok
    disc = parse_scenario(valtool.scenario_path("disc").read_text())
    assert validate_sequence(disc.valuations["nustar"]).ok


def test_oracle_equivalence_char2():
    # same oracle-vs-symbolic guarantee over the finite-field fixture
    _, g_s, _ = fixtures.def2()
    rng = random.Random(53)
    checked = 0
    for _ in range(80):
        f = g_s.ctx.zero()
        for _ in range(4):
            f = f + g_s.ctx.monomial(rng.randint(0, 5), rng.randint(0, 3), 1)
        if f.is_zero():
            continue
        try:
            symbolic = evaluate(f, g_s)
        except InsufficientGeneratingData:
            continue
        oracle = series_value(f, g_s.oracle)
        if oracle is INSUFFICIENT_PRECISION:
            continue
        assert symbolic == oracle
        checked += 1
    assert checked > 40


def test_rank_two_evaluation():
    _, nu1, nu2, _ = fixtures.pi2()
    pi = nu1.values[2].tau
    f = parse_poly("y^2 - x^2", nu1.ctx)
    assert evaluate(f, nu1) == Value(2, 1, pi)
    assert evaluate(f, nu2) == Value(2, 1, pi)
    g = parse_poly("y - x", nu1.ctx)
    assert evaluate(g, nu1) == Value(1, 1, pi)
    assert evaluate(g, nu2) == Value(1)


def test_answers_expand_once(v1, monkeypatch):
    import valtool.genseq as genseq
    calls = []

    def counting_expand(f, g):
        calls.append(f)
        return expand(f, g)

    monkeypatch.setattr(genseq, "expand", counting_expand)
    f = parse_poly("y^2 + x^3", v1.ctx)
    for answer in (genseq.evaluate, genseq.initial_form):
        calls.clear()
        answer(f, v1)
        assert len(calls) == 1, answer.__name__


# -- keys built once ------------------------------------------------------------

_SCENARIOS = ("v1", "def2", "pi2", "disc", "corn")
_CELLS = [(d, base, rank) for d in (1, 2, 3, 4) for base in ("Q", "GF2", "GF3")
          for rank in (1, 2)]


def _shipped(name):
    return parse_scenario(valtool.scenario_path(name).read_text())


def _chain_cell(depth, base, rank):
    """The test chain over Q, GF(2) or GF(3); rank 2 ends it at 2*beta_d + pi - 3."""
    g = _chain(depth, {"Q": QQ, "GF2": BaseField(2), "GF3": BaseField(3)}[base])
    if rank == 1:
        return g
    top = g.values[depth] * 2 + Value(-3, 1, pi_descriptor())
    steps = g.steps[:-1] + [KeyStep(depth, 2, g.steps[-1].tail, top)]
    return GenSeq(g.ctx, g.values[:-1] + [top], steps,
                  residues=g.declared_residues, terminal=True)


def _rebuilt_steps(g):
    """Check each key against the rebuild from its step; count the steps."""
    for i in range(1, g.top):
        assert next_key(g.keys[:i + 1], g.step(i)) == g.keys[i + 1], (g, i)
    return g.top - 1


def _rebuilt_steps_with_targets(g):
    record = iterate_transforms(g, 3)
    return _rebuilt_steps(g) + sum(_rebuilt_steps(step.target)
                                   for step in record.steps)


@pytest.mark.parametrize("name", _SCENARIOS)
def test_steps_rebuild_the_keys_of_shipped_valuations(name):
    valuations = _shipped(name).valuations.values()
    assert sum(_rebuilt_steps_with_targets(g) for g in valuations) > 0


@pytest.mark.parametrize("cell", _CELLS, ids=lambda c: "d%d-%s-rank%d" % c)
def test_steps_rebuild_the_keys_of_chain_transforms(cell):
    _rebuilt_steps_with_targets(_chain_cell(*cell))


def test_step_from_tail_reads_back_the_steps_of_kept_keys():
    def terms(step):  # declared tails may omit the trailing zero exponents
        return [(t.coeff, t.exps + (0,) * (step.index + 1 - len(t.exps)))
                for t in step.tail]

    g = _chain(4)
    steps = [step_from_tail(g.keys, s.index, s.power,
                            g.keys[s.index + 1] - g.keys[s.index] ** s.power,
                            s.next_value) for s in g.steps]
    h = GenSeq(g.ctx, g.values, steps, residues=g.declared_residues,
               keys=g.keys)
    assert all(a is b for a, b in zip(h.keys, g.keys, strict=True))
    for s, t in zip(g.steps, h.steps, strict=True):
        assert terms(s) == terms(t)
        assert (s.index, s.power, s.next_value) == (t.index, t.power,
                                                   t.next_value)
    assert [repr(l) for l in h.levels] == [repr(l) for l in g.levels]
    with pytest.raises(ValueError, match="need one value per key$"):
        GenSeq(g.ctx, g.values[:-1], steps[:-1], keys=g.keys)
    extra = KeyStep(len(steps) + 1, 2, [], g.values[-1] * 3)
    with pytest.raises(ValueError, match="2 [+] number of steps"):
        GenSeq(g.ctx, g.values, steps + [extra], keys=g.keys)
    # a tail over a key that is not monic in y cannot be expanded
    keys = [g.ctx.x(), g.ctx.y(), P(g, "y^2 - x^3 + x*y^3")]
    with pytest.raises(NonMonicKey) as err:
        step_from_tail(keys, 2, 2, P(g, "y^3"), Value(8))
    assert err.value.index == 2


def test_steps_with_their_keys_keep_the_keys():
    g = _chain(4)
    h = GenSeq(g.ctx, g.values, g.steps, residues=g.declared_residues,
               keys=g.keys)
    assert all(a is b for a, b in zip(h.keys, g.keys, strict=True))
    assert h.steps == g.steps
    assert [repr(l) for l in h.levels] == [repr(l) for l in g.levels]
    with pytest.raises(ValueError):
        GenSeq(g.ctx, g.values, g.steps, keys=g.keys[:-1])


def _eager_keys(g):
    """The keys as every sequence once formed them, in its constructor."""
    keys = [g.ctx.x(), g.ctx.y()]
    for step in g.steps:
        keys.append(next_key(keys, step))
    return keys


def _spy_next_key(monkeypatch):
    """The steps of every key formed from here on."""
    formed, real = [], genseq.next_key
    monkeypatch.setattr(genseq, "next_key",
                        lambda keys, step: formed.append(step)
                        or real(keys, step))
    return formed


# each first read goes through one of the readers that need the keys
_FIRST_READERS = [
    lambda g: g.keys,
    lambda g: g.monomial((0,) * g.top + (1,)),
    lambda g: expand(g.ctx.x() + g.ctx.y() ** 3, g),
    lambda g: evaluate(g.ctx.y() ** 2, g),
    validate_sequence,
]


@pytest.mark.parametrize("cell", [(d, b, r) for d in range(1, 7)
                                  for b in ("Q", "GF2", "GF3")
                                  for r in (1, 2)],
                         ids=lambda c: "d%d-%s-rank%d" % c)
def test_keys_formed_on_first_read_equal_the_eager_keys(cell, monkeypatch):
    g = _chain_cell(*cell)
    formed = _spy_next_key(monkeypatch)
    _FIRST_READERS[cell[0] % len(_FIRST_READERS)](g)
    assert formed == g.steps  # each key once, in order
    # the reference calls the unpatched next_key it imported
    assert g.keys == _eager_keys(g) and g.keys is g.keys
    assert formed == g.steps  # later reads form nothing


def test_given_keys_are_kept_and_form_no_key(monkeypatch):
    g = _chain(4)
    keys = g.keys
    formed = _spy_next_key(monkeypatch)
    h = GenSeq(g.ctx, g.values, g.steps, residues=g.declared_residues,
               keys=keys)
    assert all(a is b for a, b in zip(h.keys, keys, strict=True))
    assert validate_sequence(h).ok
    assert evaluate(keys[-1] * keys[2] - g.ctx.x(), h) == evaluate(
        keys[-1] * keys[2] - g.ctx.x(), g)
    assert formed == []


def test_repr_and_top_form_no_key(monkeypatch):
    formed = _spy_next_key(monkeypatch)
    g = _chain(3)
    assert repr(g) == "GenSeq(5 keys, values=[1, 3/2, 13/4, 53/8, 213/16])"
    assert g.top == 4 and formed == []
    assert len(g.keys) == 5 and len(formed) == 3


def test_transforms_and_parsing_build_no_key_twice(monkeypatch):
    sources = [_chain(4), fixtures.v1(), fixtures.corn()]
    calls = _spy_next_key(monkeypatch)
    for g in sources:
        free_transform(g)
    for name in _SCENARIOS:
        _shipped(name)
    assert calls == []


def test_parsing_forms_each_key_power_once(monkeypatch):
    """The parser forms P_i^(n_i) + tail once and reads the step off the
    tail; it never raises a key to its power again to read it back, and
    an oracle residue reads the key images without forming a power."""
    real, formed = ring.RingElem.__pow__, {}

    def counting(base, n):
        formed.setdefault((id(base), n), []).append(base)
        return real(base, n)

    monkeypatch.setattr(ring.RingElem, "__pow__", counting)
    for name in _SCENARIOS:
        formed.clear()
        _shipped(name)
        twice = [(bases[0], n) for (_, n), bases in formed.items()
                 if len(bases) > 1]
        assert twice == [], name


# -- level data against from-scratch references ---------------------------------

def _reference_levels(g):
    """(group jump, residue degree) per level, each level solved on its own."""
    out, prior = [], []
    for lvl in g.levels:
        i = lvl.index
        jump = order_modulo(g.values[i], g.values[:i])
        if jump is INFINITE:
            degree = 1
        elif lvl.residue is None:
            degree = None
        else:
            field = list(g.ctx.residue_field()[0]) + prior
            degree = field_index(g.ctx.tower, field + [lvl.residue], field)
        if lvl.residue is not None:
            prior.append(lvl.residue)
        out.append((jump, degree))
    return out


def _level_cases():
    for name in _SCENARIOS:
        yield from _shipped(name).valuations.values()
    for depth in range(1, 6):
        for base in ("Q", "GF2", "GF3"):
            for rank in (1, 2):
                yield _chain_cell(depth, base, rank)
    for base in ("Q", "F 3"):
        yield parse_scenario(_IDENTITY_RING % base).valuations["nu"]


def test_level_data_matches_from_scratch_references():
    seen = degree_two = 0
    for g in _level_cases():
        for h in [g] + [s.target for s in iterate_transforms(g, 3).steps]:
            got = [(l.group_jump, l.residue_degree) for l in h.levels]
            assert got == _reference_levels(h), h
            seen += len(got)
            degree_two += got[:1] == [(1, 2)]
    assert seen > 200 and degree_two >= 2


def test_group_jumps_are_orders_modulo_the_values_below():
    """Each level's group jump is the order of its value modulo the group
    of the values below, solved over the rationals: on random value lists
    of rank 1 and 2, and on the chain cells."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ctx = LocalRingCtx(ResidueTower(QQ), ("x", "y"))
    pi = pi_descriptor()
    ratio = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))
    pair = st.tuples(ratio, st.integers(0, 5))

    def check(g):
        for lvl in g.levels:
            i = lvl.index
            assert lvl.group_jump == order_modulo(g.values[i],
                                                  g.values[:i]), (g, i)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(rank=st.sampled_from((1, 2)), direction=pair,
                      ratios=st.lists(ratio, min_size=1, max_size=6),
                      last=pair)
    def random_values(rank, direction, ratios, last):
        # every value but the last on one ray, so a rank jump can only end
        # the list; at rank 2 the ray and the last value are a + b*pi
        if rank == 1:
            values = [Value(r) for r in ratios] + [Value(last[0])]
        else:
            w = Value(*direction, pi)
            values = [w * r for r in ratios] + [Value(*last, pi)]
        steps = [KeyStep(i, 1, [], values[i + 1])
                 for i in range(1, len(values) - 1)]
        check(GenSeq(ctx, values, steps))

    random_values()
    for cell in _CELLS:
        check(_chain_cell(*cell))


def test_residue_chain_matches_fresh_closures(monkeypatch):
    calls = []  # (step index, vector, rank, solution) per coefficient solve
    check = genseq._check_minimal_polynomial

    def checking(g, step, *args):
        solve = g.residue_chain[1].solve

        def recording(vec, rank=None):
            calls.append((step.index, vec, rank, solve(vec, rank)))
            return calls[-1][3]

        g.residue_chain[1].solve = recording
        try:
            check(g, step, *args)
        finally:
            del g.residue_chain[1].solve

    monkeypatch.setattr(genseq, "_check_minimal_polynomial", checking)
    coefficients = grown = 0
    for g in _level_cases():
        tower = g.ctx.tower
        solver, ranks = g.residue_chain[1], g.residue_ranks
        grown += ranks[-1] > ranks[0]
        gens = [tower.gen(k) for k in range(g.ctx.ring_levels)]
        fresh = []  # K_i spanned from scratch
        for i in range(g.top + 1):
            res = g.level(i).residue if i else None
            if res is not None:
                gens.append(res)
                # the residue lies in K_i, and in K_{i-1} iff it adds nothing
                vec = res.to_vector()
                assert solver.solve(vec, ranks[i]) is not None
                assert ((solver.solve(vec, ranks[i - 1]) is None)
                        == (ranks[i] > ranks[i - 1]))
            fresh.append(span_closure(tower, gens)[1])
            assert ranks[i] == fresh[i].rank, (g, i)
        # each minimal-polynomial coefficient at step i is tested against
        # K_{i-1}, and a fresh K_{i-1} gives the same answer
        calls.clear()
        validate_sequence(g)
        for i, vec, rank, got in calls:
            assert rank == ranks[i - 1], (g, i)
            assert (got is None) == (fresh[i - 1].solve(vec) is None), (g, i)
            coefficients += got is not None
    # the Q(i) and GF(9) sequences grow their chain past the ring's field
    assert coefficients > 50 and grown == 2


def test_validation_grows_one_residue_closure(monkeypatch):
    # the sequence grows its residue chain once; validation only reads it
    calls = []
    closure = genseq.span_closure

    def counting(*args):
        calls.append(args)
        return closure(*args)

    # over Q(i) with ring field Q: f_2 = u + i (from the tail term -x^5 and
    # the residue -i of x/y) has its coefficient in Q(alpha_1) = Q(i), not Q
    tower = ResidueTower(QQ).extend("i", [1, 0])
    i = tower.gen("i")
    beyond = GenSeq(
        LocalRingCtx(tower, ("x", "y"), ring_levels=0),
        [Value(1), Value(1), Value(Fraction(5, 2)), Value(Fraction(21, 4))],
        [KeyStep(1, 2, [TailTerm(tower.one(), (2, 0))], Value(Fraction(5, 2))),
         KeyStep(2, 2, [TailTerm(tower.scalar(-1), (5, 0, 0))],
                 Value(Fraction(21, 4)))],
        residues={1: i, 2: -i, 3: tower.one()})
    cases = [_chain_cell(5, "Q", 1), _chain_cell(5, "GF3", 2), beyond]
    cases += [parse_scenario(_IDENTITY_RING % base).valuations["nu"]
              for base in ("Q", "F 3")]
    # the sequences are built first: only validation must not close fields,
    # neither fresh (LocalRingCtx.residue_field) nor extended (genseq)
    monkeypatch.setattr(genseq, "span_closure", counting)
    monkeypatch.setattr(ring, "span_closure", counting)
    for g in cases:
        report = validate_sequence(g)
        assert report.ok and not calls, g
        below = [ok for name, ok, _ in report.checks
                 if name.startswith("minimal-polynomial coefficients live")]
        assert below and all(below)


# -- expansion on y-rows ----------------------------------------------------------

def _expand_by_divmod(f, keys, top):
    """The reference expansion: a loop of divmod_y calls on ring elements."""
    if top == 1:
        return {(i, j): f.ctx.coeff(c) for (i, j), c in f.terms.items()}
    out, h, e = {}, f, 0
    while not h.is_zero():
        q, r = f.ctx.zero(), h
        if h.y_degree() >= keys[top].y_degree():
            try:
                q, r = ring.divmod_y(h, keys[top])
            except ValueError as err:
                raise NonMonicKey(top) from err
        if not r.is_zero():
            for sub, c in _expand_by_divmod(r, keys, top - 1).items():
                out[sub + (e,)] = c
        h, e = q, e + 1
    return out


def _qi_keys():
    """corn's key shapes over Q(i), with i in their tails."""
    tower = ResidueTower(QQ).extend("i", [1, 0])
    ctx = LocalRingCtx(tower, ("x", "y"))
    consts = {"i": tower.gen("i")}
    p2 = parse_poly("y^2 - i*x^3", ctx, consts=consts)
    p3 = p2 ** 2 - parse_poly("(1 + i)*x^5*y + x^8", ctx, consts=consts)
    return [ctx.x(), ctx.y(), p2, p3]


_EXPANSION_CELLS = {"d%d-%s-rank%d" % c: c for c in _CELLS if c[0] in (2, 3)}
_EXPANSION_CELLS.update(corn=None, qi=None)


@functools.cache
def _expansion_case(name):
    """(keys, sequence or None, scalars) of a named cell, built once."""
    if name == "qi":
        keys, g = _qi_keys(), None
    else:
        g = fixtures.corn() if name == "corn" else _chain_cell(
            *_EXPANSION_CELLS[name])
        keys = g.keys
    tower = keys[0].ctx.tower
    scalars = [tower.scalar(c) for c in (1, -1, 2, Fraction(1, 2))
               if tower.base.p != 2 or c in (1, -1)]
    if tower.height:
        scalars += [tower.gen("i"), tower.gen("i") - 3]
    return keys, g, scalars


def _random_element(data, keys, scalars):
    """A sum of monomials reaching past the top key's y-degree, plus a
    multiple of a product of two keys."""
    st = pytest.importorskip("hypothesis").strategies
    ctx, top_degree = keys[0].ctx, keys[-1].y_degree()
    f = ctx.zero()
    for c, i, j in data.draw(st.lists(st.tuples(
            st.sampled_from(scalars), st.integers(0, 6),
            st.integers(0, 2 * top_degree + 1)), min_size=1, max_size=6)):
        f = f + ctx.monomial(i, j, c)
    a, b = data.draw(st.tuples(st.integers(0, len(keys) - 1),
                               st.integers(0, len(keys) - 1)))
    return f + keys[a] * keys[b] * data.draw(st.sampled_from(scalars))


def test_row_expansion_matches_the_divmod_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data())
    def check(data):
        keys, g, scalars = _expansion_case(
            data.draw(st.sampled_from(sorted(_EXPANSION_CELLS))))
        f = _random_element(data, keys, scalars)
        hypothesis.assume(not f.is_zero())
        top = len(keys) - 1
        got = genseq._expand_raw(f, keys, top)
        assert got == _expand_by_divmod(f, keys, top)
        assert sum((genseq._key_monomial(keys, e) * c for e, c in got.items()),
                   f.ctx.zero()) == f
        if g is not None:  # through the sequence's kept plans
            exp = expand(f, g)
            assert {e: c for c, e, _ in exp.grid_terms} == got
            assert exp.reconstruct() == f

    check()


def test_a_key_not_monic_stops_both_expansions_at_the_same_key():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def outcome(expansion, *args):
        try:
            return expansion(*args)
        except NonMonicKey as err:
            return "key %d is not monic" % err.index

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data())
    def check(data):
        keys, _, scalars = _expansion_case(
            data.draw(st.sampled_from(sorted(_EXPANSION_CELLS))))
        k = data.draw(st.integers(2, len(keys) - 1))
        ctx = keys[0].ctx
        keys = list(keys)  # key k gets the y-leading coefficient 1 + x
        keys[k] = keys[k] + ctx.x() * ctx.y() ** keys[k].y_degree()
        f = _random_element(data, keys, scalars)
        hypothesis.assume(not f.is_zero())
        top = len(keys) - 1
        assert (outcome(genseq._expand_raw, f, keys, top)
                == outcome(_expand_by_divmod, f, keys, top))

    check()
    keys, _, _ = _expansion_case("corn")
    keys = keys[:3] + [keys[3] + keys[0] * keys[1] ** 4]
    with pytest.raises(NonMonicKey) as err:
        genseq._expand_raw(keys[1] ** 5, keys, 3)
    assert err.value.index == 3


def test_a_sequence_forms_each_key_plan_once_and_keeps_it_alone(monkeypatch):
    # a plan is formed at the first division by its key and kept on the key
    # alone: counted at every call that finds none kept yet
    formed = []

    def counting(plan):
        def wrapper(key):
            if key.plan is None:
                formed.append(key)
            return plan(key)
        return wrapper

    monkeypatch.setattr(genseq, "division_plan",
                        counting(genseq.division_plan))
    monkeypatch.setattr(ring, "division_plan", counting(ring.division_plan))
    g = _chain(4)
    elements = [g.keys[i] ** 2 for i in range(1, g.top + 1)]
    elements += [g.keys[-1] * g.keys[2] + g.ctx.monomial(i, j, 3)
                 for i in range(4) for j in range(9)]
    for _ in range(2):
        for f in elements:
            evaluate(f, g)
            initial_form(f, g)
    assert sorted(map(id, formed)) == sorted(map(id, g.keys[2:]))
    # a sequence on the same keys divides by their kept plans, and nothing
    # keeps the sequence once it is dropped
    formed.clear()
    h = GenSeq(g.ctx, g.values, g.steps, residues=g.declared_residues,
               keys=g.keys)
    for f in elements:
        evaluate(f, h)
    assert formed == []
    dropped = weakref.ref(h)
    del h
    gc.collect()
    assert dropped() is None
    # the parser, the sequences on its keys and a transform's target steps
    # form each distinct key's plan once: 6 keys for def2, 4 for disc
    for name, distinct in (("def2", 6), ("disc", 4)):
        formed.clear()
        with redirect_stdout(io.StringIO()):
            assert main(["run", str(valtool.scenario_path(name))]) == 0
        assert len(formed) == distinct, name
        assert not any(a == b for a, b in itertools.combinations(formed, 2))
    formed.clear()
    for name in _SCENARIOS:
        _shipped(name)
    free_transform(_chain(4))
    assert formed and not any(
        a == b for a, b in itertools.combinations(formed, 2))
