import random
from fractions import Fraction

import pytest

import valtool
from valtool import fixtures, genseq
from valtool.blowup import free_transform, iterate_transforms
from valtool.genseq import (
    GenSeq,
    InsufficientGeneratingData,
    KeyStep,
    PreconditionError,
    TailTerm,
    evaluate,
    expand,
    initial_form,
    next_key,
    residue_of_monomial,
    semigroup_membership,
    sigma_indices,
    validate_sequence,
)
from valtool.ring import INSUFFICIENT_PRECISION, LocalRingCtx, parse_poly, series_value
from valtool.scenario import parse_scenario
from valtool.towers import QQ, BaseField, ResidueTower
from valtool.values import INFINITE, Value, pi_descriptor

from test_graded import _chain


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
    assert validate_sequence(fixtures.disc_s_side()).ok


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


def test_from_keys_keeps_the_keys_and_reads_back_the_steps():
    def terms(step):  # declared tails may omit the trailing zero exponents
        return [(t.coeff, t.exps + (0,) * (step.index + 1 - len(t.exps)))
                for t in step.tail]

    g = _chain(4)
    powers = [step.power for step in g.steps]
    h = GenSeq.from_keys(g.ctx, g.values, g.keys, powers,
                         residues=g.declared_residues)
    assert all(a is b for a, b in zip(h.keys, g.keys, strict=True))
    for s, t in zip(g.steps, h.steps, strict=True):
        assert terms(s) == terms(t)
        assert (s.index, s.power, s.next_value) == (t.index, t.power,
                                                   t.next_value)
    assert [repr(l) for l in h.levels] == [repr(l) for l in g.levels]
    with pytest.raises(ValueError):
        GenSeq.from_keys(g.ctx, g.values[:-1], g.keys, powers)
    with pytest.raises(ValueError):
        GenSeq.from_keys(g.ctx, g.values, g.keys, powers + [2])


def test_transforms_and_parsing_build_no_key_twice(monkeypatch):
    sources = [_chain(4), fixtures.v1(), fixtures.corn()]
    calls = []
    real = genseq.next_key
    monkeypatch.setattr(genseq, "next_key",
                        lambda keys, step: calls.append(step) or real(keys, step))
    for g in sources:
        free_transform(g)
    for name in _SCENARIOS:
        _shipped(name)
    assert calls == []
