"""Known answers for benchmark tasks, derived without valtool.

Every expected answer here comes from the chain family's declaration data
(``chain.py``), from the theory the tool implements, or from the facts the
README states about the shipped scenarios.  The checks only read plain
attributes of what valtool returns (``q0``/``q1`` of a value, verdict
fields, report text), so a wrong answer cannot also be the expected one.

A check raises :class:`Mismatch` for a wrong answer and :class:`Undecided`
for an "undecided" answer where a certified one is known.
"""

from __future__ import annotations

from fractions import Fraction

from chain import vadd, vless, vscale


class Mismatch(Exception):
    """The tool's answer contradicts the known one."""


class Undecided(Exception):
    """The tool answered "undecided" where a certified answer is known."""


def expected_min(spec, terms):
    """Value of a sum of key monomials whose values are pairwise distinct.

    ``terms`` is a list of (coefficient, exponents); the strict triangle
    inequality gives the minimum of the monomial values.
    """
    values = [spec.value_of(exps) for _, exps in terms]
    if len(set(values)) != len(values):
        raise ValueError("monomial values must be pairwise distinct")
    best = values[0]
    for v in values[1:]:
        if vless(v, best):
            best = v
    return best


def square_value(spec, i):
    """P_i^2 has value 2*beta_i (the valuation is multiplicative)."""
    return vscale(spec.values[i], 2)


def check_value(got, expected, what):
    pair = (Fraction(got.q0), Fraction(got.q1))
    if pair != tuple(expected):
        raise Mismatch("%s: value %r, expected %r" % (what, pair, expected))


def check_valid(report, what):
    if not report.ok:
        raise Mismatch("%s: declared chain failed validation: %s"
                       % (what, report.failures()[:3]))


def chart(spec):
    """Chart data of the first composite transform of a chain.

    beta_1 = 3/2 gives the group jump nbar = 2 and the unit exponent w = 3,
    so x = X^2 * unit and y = X^3 * unit, and X has value beta_0 / nbar.
    """
    b1 = spec.values[1][0]
    nbar, w = b1.denominator, b1.numerator
    return nbar, w, spec.values[0][0] / nbar


def transformed_values(spec):
    """Values of the transported chain after one composite transform.

    Key P_{i+1} (i >= 1) acquires the exceptional factor X^(w * 2^i), so its
    transported value is beta_{i+1} - w * 2^i * value(X); the new first
    parameter is X itself.
    """
    nbar, w, x_value = chart(spec)
    out = [(x_value, Fraction(0))]
    for i in range(1, spec.depth + 1):
        drop = w * 2 ** i
        out.append(vadd(spec.values[i + 1], (-x_value * drop, Fraction(0))))
    return out


def check_transform(tmap, target, spec, what):
    nbar, w, _ = chart(spec)
    if (tmap.nbar, tmap.w) != (nbar, w):
        raise Mismatch("%s: chart (jump %r, w %r), expected (%d, %d)"
                       % (what, tmap.nbar, tmap.w, nbar, w))
    want = transformed_values(spec)
    if len(target.values) != len(want):
        raise Mismatch("%s: transported chain has %d keys, expected %d"
                       % (what, len(target.values), len(want)))
    for k, (got, exp) in enumerate(zip(target.values, want)):
        check_value(got, exp, "%s transported key %d" % (what, k))


def check_chain_record(record, what):
    """Every step of an iterated transform chain recomputes consistently."""
    if len(record.steps) < 1:
        raise Mismatch("%s: no transform step completed (%s)"
                       % (what, record.truncated_reason))
    for k, step in enumerate(record.steps, start=1):
        if not step.ok():
            raise Mismatch("%s: chain step %d has a mismatched row" % (what, k))


def _drops(spec):
    """Exceptional exponent of each key's image: x -> X^2, y -> X^3, ..."""
    nbar, w, _ = chart(spec)
    return [nbar, w] + [w * 2 ** (j - 1) for j in range(2, spec.nkeys)]


def expected_value_table(spec, terms, level):
    """Rows (exps, t, lambda, ok) that transform_value_table must give.

    The terms are reduced, so they are their own expansion.  A term above
    the level's key value (or equal to it with top index below the level)
    gets a row; its exceptional exponent t is the sum of its keys' drops,
    and lambda is the key's own drop (the group jump at level 0).
    """
    drops = _drops(spec)
    lam = 2 if level == 0 else drops[level]
    rows = []
    for _, exps in terms:
        diff = vadd(spec.value_of(exps), vscale(spec.values[level], -1))
        sign = 0 if diff == (0, 0) else (-1 if vless(diff, (0, 0)) else 1)
        top = max((j for j, e in enumerate(exps) if e), default=0)
        if sign < 0 or (sign == 0 and top >= level):
            continue
        t = sum(a * d for a, d in zip(exps, drops))
        rows.append((tuple(exps), t, lam, t > lam))
    return sorted(rows)


def check_value_table(rows, expected, what):
    got = sorted((tuple(e), t, lam, bool(ok)) for e, t, lam, ok in rows)
    if got != expected:
        raise Mismatch("%s: value table %r, expected %r"
                       % (what, got, expected))
    for exps, t, lam, ok in got:
        if not ok:
            raise Mismatch("%s: row %r has t=%r against %r"
                           % (what, exps, t, lam))


def check_strict(strict, what):
    """A strict transform is nonzero and not divisible by the exceptional X."""
    if strict.is_zero() or min(i for i, _ in strict.terms) != 0:
        raise Mismatch("%s: strict transform %r keeps an exceptional factor"
                       % (what, strict))


def check_detect(state, what):
    """The transformed chain: obstruction at level 1, e = f = 1.

    The source key P_2 has value 13/4 while the first new target key has
    value 1/4, so the first new keys cannot pair up; the transform is
    birational, so both indices are 1.
    """
    verdict = state.verdict
    if verdict.kind != "obstruction" or verdict.level != 1:
        raise Mismatch("%s: verdict %r, expected obstruction at level 1"
                       % (what, verdict))
    if not state.witnesses or state.witnesses[0][0] != 1:
        raise Mismatch("%s: no membership witness at level 1" % what)
    if (state.e, state.f) != (1, 1):
        raise Mismatch("%s: e, f = %r, %r, expected 1, 1"
                       % (what, state.e, state.f))


def check_ramification(report, what):
    """A birational extension has e = f = 1 and defect 0."""
    if (report.e, report.f, report.delta) != (1, 1, 0):
        raise Mismatch("%s: e, f, delta = %r, %r, %r, expected 1, 1, 0"
                       % (what, report.e, report.f, report.delta))
    if not report.consistent:
        raise Mismatch("%s: ramification routes disagree" % what)


# Facts the README states about the shipped scenarios, as report lines.
SCENARIO_FACTS = {
    ("def2", "text"): ["e = 1, f = 1, delta = 1",
                       "  route local-degree -> 1",
                       "  route ostrowski    -> 1",
                       "essential generators: in(u) (polynomial ring)",
                       "essential generators: in(x) (polynomial ring)"],
    ("def2", "csv"): ["local-degree,1,1,1,1", "ostrowski,1,1,1,1"],
    ("pi2", "text"): ["e = 2, f = 1, delta = 0",
                      "splitting witnessed: True",
                      "ConsistentWithFinGen(depth=1)"],
    ("pi2", "csv"): ["splitting witnessed: True"],
    ("disc", "text"): ["splitting witnessed: True"],
    ("v1", "text"): ["value 7/2", "oracle 7/2"],
}


def check_scenario(name, fmt, code, out, recorded, what):
    """Exit code 0, the README facts present, and the recorded bytes."""
    if code != 0:
        raise Mismatch("%s: exit code %r" % (what, code))
    lines = set(out.splitlines())
    for fact in SCENARIO_FACTS.get((name, fmt), ()):
        if fact not in lines:
            raise Mismatch("%s: report lacks %r" % (what, fact))
    if out != recorded:
        raise Mismatch("%s: report differs from the recorded one" % what)


def check_chain_scenario(spec, key, code, out, what):
    """A chain scenario validates, values P_key^2 at 2*beta_key, transforms."""
    lines = out.splitlines()
    expected = "value %s" % square_value(spec, key)[0]
    if code != 0:
        raise Mismatch("%s: exit code %r" % (what, code))
    if any(l.startswith("FAIL") or "MISMATCH" in l for l in lines):
        raise Mismatch("%s: a check failed in the report" % what)
    if expected not in lines:
        raise Mismatch("%s: report lacks %r" % (what, expected))
    if not any(l.startswith("step 1: ") for l in lines):
        raise Mismatch("%s: no transform step in the report" % what)
