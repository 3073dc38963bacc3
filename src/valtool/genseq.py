"""Generating sequences: key-polynomial recursions as the valuation's data.

A sequence is declared, not discovered: keys P_0 = x, P_1 = y and each
further key given by the recursion

    P_{i+1} = P_i^{n_i} + sum_k c_k P_0^{e_0(k)} ... P_i^{e_i(k)}

together with an assigned value for every key.  The declared prefix is the
specification of the valuation; validation recomputes every derived
quantity (group jumps, unit monomials, residues and their degrees) and
checks the recursion's constraints against them.

Tail terms of value equal to n_i * value(P_i) carry the cancellation that
pushes the next key's value up; terms of higher value are tolerated in the
tail (transported sequences produce them) and contribute nothing to
residue data.
"""

from __future__ import annotations

from functools import cmp_to_key

from .ring import _rows, division_plan, divmod_rows, series_value
from .towers import span_closure
from .values import INFINITE, INSUFFICIENT_PRECISION, Grid, RunningIndex, Value


class PreconditionError(Exception):
    """An operation was called outside its stated preconditions."""


class MissingResidueData(Exception):
    """A residue (alpha) is needed but neither declared nor computable."""


class InsufficientGeneratingData(Exception):
    """A residue tie requires a key beyond the declared prefix.

    Assigning a value past the prefix is a semantic choice only the caller
    can make, so the tool refuses to guess.  ``value`` is the minimal value
    whose form cancelled (the true value lies above it), when known.
    """

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class InternalInconsistency(Exception):
    """A lattice solve that the theory guarantees has failed."""


class NonMonicKey(ValueError):
    """A key that an expansion divides by is not monic in y."""

    def __init__(self, index):
        super().__init__("key %d is not monic in y" % index)
        self.index = index


class TailTerm:
    __slots__ = ("coeff", "exps")

    def __init__(self, coeff, exps):
        self.coeff = coeff
        self.exps = tuple(map(int, exps))

    def __repr__(self):
        return "TailTerm(%r, %r)" % (self.coeff, self.exps)


class KeyStep:
    """Recursion data producing P_{index+1} from the keys at or below index."""

    __slots__ = ("index", "power", "tail", "next_value")

    def __init__(self, index, power, tail, next_value):
        self.index = index
        self.power = int(power)
        self.tail = list(tail)
        self.next_value = next_value

    def __repr__(self):
        return "KeyStep(i=%d, n=%d, %d tail terms, next=%r)" % (
            self.index, self.power, len(self.tail), self.next_value)


class LevelData:
    """Derived invariants of one key: group jump, unit monomial, residue."""

    __slots__ = ("index", "group_jump", "unit_exps", "residue",
                 "residue_degree", "cap", "issues")

    def __init__(self, index):
        self.index = index
        self.group_jump = None   # [G(values <= i) : G(values < i)]
        self.unit_exps = None    # exponents of the equal-value unit monomial
        self.residue = None      # class of P_i^jump / unit monomial
        self.residue_degree = None
        self.cap = None          # n_i; None when not determinable
        self.issues = []

    def __repr__(self):
        return ("Level(%d: jump=%r, d=%r, cap=%r, alpha=%r, U=%r)"
                % (self.index, self.group_jump, self.residue_degree,
                   self.cap, self.residue, self.unit_exps))


class GenSeq:
    """A declared finite prefix of a generating sequence."""

    def __init__(self, ctx, values, steps=(), residues=None, oracle=None,
                 terminal=False, keys=None):
        """``keys``, when given, are the keys x, y, P_2, ... that the steps
        build, formed by the caller and kept as given; :func:`step_from_tail`
        reads a step off a key's tail."""
        steps = list(steps)
        if len(values) != len(steps) + 2:
            raise ValueError("need one value per key: 2 + number of steps")
        for i, step in enumerate(steps, start=1):
            if step.index != i:
                raise ValueError("steps must be consecutive from index 1")
        if keys is None:
            keys = [ctx.x(), ctx.y()]
            for step in steps:
                keys.append(next_key(keys, step))
        elif len(keys) != len(values):
            raise ValueError("need one value per key")
        self.ctx = ctx
        self.values = [v if isinstance(v, Value) else Value(v) for v in values]
        for step in steps:
            if self.values[step.index + 1] != step.next_value:
                raise ValueError(
                    "step %d gives next value %r but key %d has value %r"
                    % (step.index, step.next_value, step.index + 1,
                       self.values[step.index + 1]))
        self.grid = Grid(self.values)
        self.keys = list(keys)
        self.steps = steps
        self.declared_residues = dict(residues or {})
        self.oracle = oracle
        self._equal_tails = {}  # by step
        self._transform = None  # (map, target), built by blowup.free_transform
        # one pass: a running index of the values gives the group jumps; K_i,
        # the ring's field with the residues at levels 1..i, is spanned by the
        # first residue_ranks[i] basis elements (and solver rows) of the chain
        self.residue_chain = ctx.residue_field()
        solver = self.residue_chain[1]
        self.residue_ranks = [solver.rank]
        jumps = RunningIndex(self.grid.points, self.grid.points)
        self.levels = []
        for i in range(1, self.top + 1):
            self.levels.append(self._derive_level(i, jumps.at(i, i - 1)))
            self.residue_ranks.append(solver.rank)
        last_jump = self.levels[-1].group_jump if self.levels else None
        self.terminal = bool(terminal) or last_jump is INFINITE
        for lvl in self.levels[:-1]:
            if lvl.group_jump is INFINITE:
                raise ValueError(
                    "rational-rank jump at level %d must end the sequence"
                    % lvl.index)

    # -- structure -----------------------------------------------------------

    @property
    def top(self):
        return len(self.keys) - 1

    def level(self, i):
        return self.levels[i - 1]

    def step(self, i):
        return self.steps[i - 1]

    def equal_tail(self, i):
        """Tail terms of step i with its leading value, as (coeff, exps).

        Only these terms survive in the graded ring.  Coefficients are tower
        constants and exponents are padded to every key; computed once per
        sequence and step.
        """
        tail = self._equal_tails.get(i)
        if tail is None:
            step = self.step(i)
            lead = self.point((0,) * i + (step.power,))
            pad = (0,) * len(self.keys)
            tail = tuple((self.ctx.const(t.coeff).constant_term(),
                          t.exps + pad[len(t.exps):])
                         for t in step.tail if self.point(t.exps) == lead)
            self._equal_tails[i] = tail
        return tail

    def point(self, exps):
        """Value of the key monomial with these exponents, on :attr:`grid`."""
        s0 = s1 = 0
        for a, (b0, b1) in zip(exps, self.grid.points):
            if a:
                s0 += a * b0
                s1 += a * b1
        return s0, s1

    def value_of(self, exps):
        return self.grid.value(self.point(exps))

    def monomial(self, exps):
        return _key_monomial(self.keys, exps, 1)

    def _derive_level(self, i, jump):
        """Level i from its group jump; :attr:`residue_chain` (the residues
        below i) is extended by this level's residue."""
        lvl = LevelData(i)
        lvl.group_jump = jump
        if jump is INFINITE:
            # rank jump ends the sequence; by convention the residue is 1
            lvl.residue = self.ctx.tower.one()
            lvl.residue_degree = 1
            lvl.cap = INFINITE
            return lvl
        target = self.point((0,) * i + (lvl.group_jump,))
        rep = reduced_representation(
            self.grid, target, self.grid.points[:i],
            [None] + [self.steps[j - 1].power for j in range(1, i)])
        if rep is None:
            lvl.issues.append(
                "no reduced unit monomial of value %r among keys below %d"
                % (self.grid.value(target), i))
        else:
            lvl.unit_exps = rep
        lvl.residue = self._residue_at(i, lvl)
        if lvl.residue is not None:
            solver = self.residue_chain[1]
            before = solver.rank
            if not lvl.residue.is_rational():  # the base field is in K_0
                span_closure(self.ctx.tower, [lvl.residue], self.residue_chain)
            if solver.rank % before:
                lvl.issues.append("residue degree at level %d: tower law "
                                  "violated in relative dimension" % i)
            else:
                lvl.residue_degree = solver.rank // before
        if i < len(self.steps) + 1:
            lvl.cap = self.steps[i - 1].power
        elif lvl.residue_degree is not None:
            lvl.cap = lvl.group_jump * lvl.residue_degree
        return lvl

    def _residue_at(self, i, lvl):
        declared = self.declared_residues.get(i)
        if self.oracle is not None and lvl.unit_exps is not None:
            try:
                res = self.oracle.residue_of_ratio(
                    self.keys, (0,) * i + (lvl.group_jump,), lvl.unit_exps)
            except ValueError as err:
                lvl.issues.append("oracle residue at level %d: %s" % (i, err))
                return declared
            if res is INSUFFICIENT_PRECISION:
                lvl.issues.append(
                    "oracle precision exhausted for residue at level %d" % i)
                return declared
            res = self.ctx.tower.lift(res)
            if declared is not None and not (res == declared):
                lvl.issues.append(
                    "declared residue %r disagrees with oracle residue %r "
                    "at level %d" % (declared, res, i))
            return res
        return declared

    def __repr__(self):
        return "GenSeq(%d keys, values=%r%s)" % (
            len(self.keys), self.values, ", terminal" if self.terminal else "")


def step_from_tail(keys, i, power, tail, next_value):
    """The step P_(i+1) = P_i^power + tail, its tail expanded on P_0 .. P_i
    and sorted by exponents; raises :class:`NonMonicKey` when a key the
    expansion divides by is not monic."""
    raw = _expand_raw(tail, keys, i)
    return KeyStep(i, power, [TailTerm(c, e) for e, c in sorted(raw.items())],
                   next_value)


def next_key(keys, step):
    """P_{i+1} = P_i^{n_i} + tail, from the keys P_0 .. P_i built so far."""
    out = keys[step.index] ** step.power
    for term in step.tail:
        out = out + _key_monomial(keys, term.exps, term.coeff)
    return out


def monic_of_degree(key, deg):
    """True when key has y-degree deg and y-leading coefficient 1."""
    lead = [c for (_, j), c in key.terms.items() if j >= deg]
    return lead == [key.terms.get((0, deg))] and key.ctx.coeff(lead[0]) == 1


def _key_monomial(keys, exps, coeff):
    out = None
    for key, e in zip(keys, exps):
        if e:
            out = key ** e if out is None else out * key ** e
    if out is None or coeff != 1:
        const = keys[0].ctx.const(coeff)
        out = const if out is None else out * const
    return out


def reduced_representation(grid, target, points, caps):
    """Reduced exponent vector with sum a_i * points[i] == target, or None.

    ``points`` lie on ``grid`` (see :meth:`Grid.sums` for ``target``);
    ``caps[i]`` bounds a_i (None = unbounded).  Of all such vectors this is
    the lexicographically greatest read from the top key down, which is the
    greedy top-down answer.
    """
    rep = max(grid.sums(points[::-1], target, caps[::-1]), default=None)
    return None if rep is None else rep[::-1]


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

class PAdicExpansion:
    """Exact expansion of a ring element over the keys of a sequence.

    ``grid_terms`` are (coefficient, exponents, grid point of the value),
    sorted by value (int keys at rank 1, :meth:`Grid.cmp` at rank 2) then
    exponents; :attr:`terms` reads the values as :class:`Value`.  Only the
    last key's exponent can reach its recursion power, and it is flagged.
    """

    __slots__ = ("genseq", "grid_terms")

    def __init__(self, genseq, terms):
        self.genseq = genseq
        cmp = genseq.grid.cmp
        key = (cmp_to_key(lambda s, t: cmp(s[2], t[2])
                          or (s[1] > t[1]) - (s[1] < t[1]))
               if genseq.grid.tau else lambda t: (t[2][0], t[1]))
        self.grid_terms = sorted(terms, key=key)

    @property
    def terms(self):
        value = self.genseq.grid.value
        return [(c, e, value(p)) for c, e, p in self.grid_terms]

    def min_value(self):
        return self.genseq.grid.value(self.grid_terms[0][2])

    def min_terms(self):
        p = self.grid_terms[0][2]
        return [t for t in self.grid_terms if t[2] == p]

    def top_exponent_overflow(self):
        """True when some term's last-key exponent reaches the derived bound."""
        cap = self.genseq.levels[-1].cap if self.genseq.levels else None
        if cap is None or cap is INFINITE:
            return False
        return any(e[-1] >= cap for _, e, _ in self.grid_terms)

    def reconstruct(self):
        out = self.genseq.ctx.zero()
        for c, e, _ in self.grid_terms:
            out = out + self.genseq.monomial(e) * c
        return out

    def __repr__(self):
        return "PAdicExpansion(%d terms, min=%r)" % (
            len(self.grid_terms), self.min_value())


def expand(f, g):
    """Expansion of f by repeated monic division against the keys of g."""
    if f.is_zero():
        raise PreconditionError("cannot expand zero")
    raw = _expand_raw(f, g.keys, g.top)
    return PAdicExpansion(g, [(c, e, g.point(e)) for e, c in raw.items()])


def _expand_raw(f, keys, top):
    """{exponents: coefficient} of f on keys[:top + 1], by division on y-rows.

    Each quotient is the next dividend and each remainder, reduced once,
    goes straight to the key below, against the key's kept
    :func:`~valtool.ring.division_plan`.
    """
    out, coeff, tower = {}, f.ctx.coeff, f.ctx.tower
    todo = [(_rows(f.terms), top, ())]  # (dividend, key, exponents above)
    while todo:
        rows, top, above = todo.pop()
        if top == 1:
            for j, row in rows.items():
                for i, c in row.items():
                    out[(i, j) + above] = coeff(c)
            continue
        plan = division_plan(keys[top])
        parts, e = [], 0  # the remainders, expanded in order (depth first)
        while rows:
            if plan[1] is None and max(rows) >= plan[0]:
                raise NonMonicKey(top)
            rows, r = divmod_rows(rows, plan, tower)
            if r:
                parts.append((r, top - 1, (e,) + above))
            e += 1
        todo += reversed(parts)
    return out


# ---------------------------------------------------------------------------
# residues of value-zero Laurent monomials
# ---------------------------------------------------------------------------

def residue_of_monomial(exps, g):
    """Residue class of a value-zero Laurent monomial in the keys.

    Solved as a product of powers of the per-level residues by descending
    through the triangular lattice relation of the unit monomials.
    """
    exps = list(exps) + [0] * (len(g.keys) - len(exps))
    if g.point(exps) != (0, 0):
        raise PreconditionError("monomial %r has nonzero value" % (exps,))
    result = g.ctx.tower.one()
    for j in range(g.top, 0, -1):
        e = exps[j]
        if e == 0:
            continue
        lvl = g.level(j)
        jump = lvl.group_jump
        if jump is INFINITE:
            raise InternalInconsistency(
                "value-zero monomial with nonzero exponent at a rank-jump level")
        if jump is None or e % jump != 0:
            raise InternalInconsistency(
                "lattice solve failed at level %d (exponent %d, jump %r)"
                % (j, e, jump))
        s = e // jump
        if lvl.residue is None:
            raise MissingResidueData(
                "residue at level %d is neither declared nor computable" % j)
        if lvl.unit_exps is None:
            raise MissingResidueData("unit monomial missing at level %d" % j)
        result = result * lvl.residue ** s
        exps[j] = 0
        for t, w in enumerate(lvl.unit_exps):
            exps[t] += s * w
    if exps[0] != 0:
        raise InternalInconsistency("value-zero monomial left an x-exponent")
    return result


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _is_reduced(exps, g):
    for i in range(1, len(exps)):
        cap = g.level(i).cap
        if cap is INFINITE:
            continue
        if cap is not None:
            if exps[i] >= cap:
                return False
        else:
            # bound not determinable: certify only below the group jump
            jump = g.level(i).group_jump
            if jump is None or exps[i] >= jump:
                return False
    return True


def evaluate(f, g):
    """Value of f against the declared sequence.

    A unique minimal term or an all-reduced minimal group decides directly;
    otherwise the residue sum of the minimal group decides, and a vanishing
    sum means the declared prefix cannot see the true value.
    """
    return g.grid.value(_minimal_group(f, g)[0][2])


def _minimal_group(f, g):
    """Grid terms of f's one expansion at its certified minimal value."""
    if f.is_zero():
        raise PreconditionError("value of zero")
    exp = expand(f, g)
    mins = exp.min_terms()
    if (len(mins) == 1 or all(_is_reduced(e, g) for _, e, _ in mins)
            or not residue_sum(mins, g).is_zero()):
        return mins
    gamma = exp.min_value()
    raise InsufficientGeneratingData(
        "the minimal form of value %r cancels in the residue field; "
        "deciding the value needs a key beyond the declared prefix" % gamma,
        gamma)


def residue_sum(terms, g, ref=None):
    """Sum of c_k * [M_k / M_ref] over equal-value terms (c_k, M_k, ...).

    M_ref is the first term's monomial unless ``ref`` is given.
    """
    if ref is None:
        ref = terms[0][1]
    total = g.ctx.tower.zero()
    for c, e, *_ in terms:
        ratio = [a - b for a, b in zip(list(e) + [0] * len(ref),
                                       list(ref) + [0] * len(e))]
        total = total + c * residue_of_monomial(ratio, g)
    return total


def initial_form(f, g):
    """Initial form of f in the graded ring of the declared prefix."""
    from .graded import GradedElem
    mins = _minimal_group(f, g)
    return GradedElem(g, mins[0][2], {e: c for c, e, _ in mins})


# ---------------------------------------------------------------------------
# sigma indices
# ---------------------------------------------------------------------------

def sigma_indices(g):
    """0 followed by the levels where the recursion power exceeds 1.

    The top level is included when its effective power is above 1 or not
    determinable from the declared data.
    """
    out = [0]
    for lvl in g.levels:
        cap = lvl.cap
        if cap is INFINITE:
            out.append(lvl.index)
        elif cap is None:
            jump = lvl.group_jump
            if jump is None or jump is INFINITE or jump > 1:
                out.append(lvl.index)
            elif lvl.residue_degree is None:
                out.append(lvl.index)  # undeterminable: keep conservatively
        elif cap > 1:
            out.append(lvl.index)
    return out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class ValidationReport:
    def __init__(self):
        # (name, ok, (detail, arguments)): a detail is formatted only when
        # lines() or failures() renders it, as most reports are read for ok
        self.checks = []
        self.warnings = []

    def add(self, name, ok, detail="", *args):
        self.checks.append((name, bool(ok), (detail, args)))

    def warn(self, text):
        self.warnings.append(text)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(n, _detail(*d)) for n, ok, d in self.checks if not ok]

    def lines(self):
        return (["%s %s%s" % ("PASS" if ok else "FAIL", name,
                              ": %s" % _detail(*d) if d[0] else "")
                 for name, ok, d in self.checks]
                + ["WARN %s" % w for w in self.warnings])

    def __repr__(self):
        return "\n".join(self.lines())


def _detail(text, args):
    return text % args if args else text


def validate_sequence(g):
    """Check every declared and derived invariant of the sequence.

    The report lists each check with pass/fail; nothing raises.
    """
    report = ValidationReport()
    report.add("positive key values",
               all(v.sign() > 0 for v in g.values), "values %r", g.values)

    deg = 1
    for i in range(2, len(g.keys)):
        deg *= g.step(i - 1).power
        report.add("key %d monic in %s of degree %d"
                   % (i, g.ctx.param_names[1], deg),
                   monic_of_degree(g.keys[i], deg), "%r", g.keys[i])

    for lvl in g.levels:
        i = lvl.index
        for issue in lvl.issues:
            report.add("level %d derivation" % i, False, issue)
        if lvl.group_jump is INFINITE:
            report.add("level %d ends the sequence (group rank jump)" % i,
                       i == g.top)
            continue
        if lvl.unit_exps is not None:
            ok = g.value_of(lvl.unit_exps) == g.values[i] * lvl.group_jump
            report.add("unit monomial value at level %d" % i, ok,
                       "U exponents %r", lvl.unit_exps)
        if lvl.residue is None and g.oracle is None:
            report.warn("level %d residue unknown (no oracle, none declared)" % i)
        if lvl.cap is not None and lvl.group_jump is not None \
                and lvl.residue_degree is not None and lvl.cap is not INFINITE:
            report.add(
                "power factorization at level %d" % i,
                lvl.cap == lvl.group_jump * lvl.residue_degree,
                "n=%r, jump=%r, d=%r", lvl.cap, lvl.group_jump,
                lvl.residue_degree)

    for step in g.steps:
        i = step.index
        lvl = g.level(i)
        lead_value = g.values[i] * step.power
        lead = g.point((0,) * i + (step.power,))
        equal = g.equal_tail(i)  # padded (coeff, exps) pairs
        lower = sum(g.grid.cmp(g.point(t.exps), lead) < 0 for t in step.tail)
        report.add("tail values at step %d" % i, not lower,
                   "" if not lower else "%d terms below the leading value"
                   % lower)
        report.add("equal-value tail at step %d nonempty" % i, bool(equal))
        report.add("next value exceeds the leading form at step %d" % i,
                   g.values[i + 1] > lead_value,
                   "%r vs %r", g.values[i + 1], lead_value)
        def _bounds_ok(term):
            if any(e < 0 for e in term.exps):
                return False
            for s, e in enumerate(term.exps):
                if s == 0 or e == 0:
                    continue
                if s > i:
                    return False  # tail may only involve keys up to i
                bound = step.power if s == i else g.step(s).power
                if e >= bound:
                    return False
            return True

        report.add("tail exponent bounds at step %d" % i,
                   all(_bounds_ok(term) for term in step.tail))
        if lvl.group_jump not in (None, INFINITE):
            div_ok = all(exps[i] % lvl.group_jump == 0 for _, exps in equal)
            report.add("group jump divides top exponents at step %d" % i, div_ok)
        _check_minimal_polynomial(g, step, equal, report)

    if g.oracle is not None:
        for i, key in enumerate(g.keys):
            sv = series_value(key, g.oracle)
            if sv is INSUFFICIENT_PRECISION:
                report.warn("oracle cannot confirm the value of key %d" % i)
            else:
                report.add("oracle confirms value of key %d" % i,
                           sv == g.values[i], "%r vs %r", sv, g.values[i])

    unverified = g.ctx.tower.unverified_levels()
    if unverified:
        report.warn("irreducibility assumed for tower levels: %s"
                    % ", ".join(unverified))
    return report


def _check_minimal_polynomial(g, step, equal_tail, report):
    """f_i built from the tail must annihilate the residue at level i, and
    its coefficients must lie in K_{i-1} (see :attr:`GenSeq.residue_ranks`).
    """
    i = step.index
    lvl = g.level(i)
    if (lvl.residue is None or lvl.residue_degree is None
            or lvl.group_jump in (None, INFINITE) or lvl.unit_exps is None):
        return
    d = lvl.residue_degree
    coeffs = [g.ctx.tower.zero() for _ in range(d)]
    ok = True
    for coeff, exps in equal_tail:
        t = exps[i] // lvl.group_jump
        if t >= d:
            report.add("tail exponent within minimal-polynomial range "
                       "at step %d" % i, False,
                       "term %r has top multiplicity %d >= d=%d",
                       exps[:i + 1], t, d)
            ok = False
            continue
        ratio = [e - (d - t) * u for e, u in zip(exps[:i], lvl.unit_exps)]
        try:
            contrib = coeff * residue_of_monomial(ratio + [0], g)
        except (MissingResidueData, InternalInconsistency) as err:
            report.warn("minimal-polynomial coefficient at step %d "
                        "not computable: %s" % (i, err))
            return
        coeffs[t] = coeffs[t] + contrib
    if not ok:
        return
    value = lvl.residue ** d
    for t, b in enumerate(coeffs):
        value = value + b * lvl.residue ** t
    report.add("residue satisfies its minimal polynomial at level %d" % i,
               value.is_zero(), "f(alpha) = %r", value)
    solver, rank = g.residue_chain[1], g.residue_ranks[i - 1]
    in_field = all(solver.solve(b.to_vector(), rank) is not None
                   for b in coeffs)
    report.add("minimal-polynomial coefficients live below level %d" % i,
               in_field)
