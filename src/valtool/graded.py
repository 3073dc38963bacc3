"""Associated graded rings along a valuation, over a declared prefix.

Graded elements are written on the reduced key-monomial basis: exponents of
every inner key stay below its recursion power (the step relations rewrite
anything larger), while the last declared key is a free generator of the
prefix model.  Homogeneous pieces are finite dimensional because all key
values are positive, so subalgebra membership is a finite enumeration plus
exact linear algebra.

The finite-generation detector compares two sequences through an extension
map.  Its verdicts are evidence at the declared depth: "consistent with
finite generation" or "obstruction witnessed", never a theorem.
"""

from __future__ import annotations

from itertools import chain

from .genseq import initial_form, residue_sum, sigma_indices
from .towers import LinearSolver, TowerElem, span_closure
from .values import INFINITE, ContainmentError, RunningIndex


class GradedElem:
    """Homogeneous element of the prefix graded ring, on the reduced basis.

    It keeps the grid point of ``value`` (a :class:`Value` or a point).
    Products are formed by :func:`_monomial`; an element has no operators.
    """

    __slots__ = ("genseq", "point", "coeffs")

    def __init__(self, genseq, value, coeffs):
        self.genseq = genseq
        self.point = genseq.grid.point(value)
        if self.point is None:
            raise ValueError("%r is off the value grid of %r" % (value, genseq))
        self.coeffs = _normalize(genseq, dict(coeffs))

    @property
    def value(self):
        return self.genseq.grid.value(self.point)

    def __repr__(self):
        if not self.coeffs:
            return "0 (value %r)" % self.value
        parts = []
        for e, c in sorted(self.coeffs.items()):
            mono = _monomial_str(self.genseq, e)
            cs = repr(c)
            parts.append(mono if cs == "1" and mono else
                         ("%s*%s" % (cs, mono) if mono else cs))
        return " + ".join(parts)


def _key_name(g, i):
    return g.ctx.param_names[i] if i < 2 else "P%d" % i


def _monomial_str(g, exps):
    return "*".join("in(%s)%s" % (_key_name(g, i), "^%d" % e if e > 1 else "")
                    for i, e in enumerate(exps) if e > 0)


def key_initial(g, i):
    """in(P_i) as a graded element (a free basis vector)."""
    e = [0] * (g.top + 1)
    e[i] = 1
    return GradedElem(g, g.grid.points[i], {tuple(e): g.ctx.tower.one()})


def _normalize(g, coeffs):
    """Rewrite inner-key exponents below the recursion powers.

    Uses the homogeneous step relations (leading power = minus the
    equal-value tail); the top key is never rewritten.  Terminates because
    each rewrite lowers (a_{top-1}, ..., a_1) lexicographically and the
    fixed total value bounds every exponent.
    """
    work = {e: c for e, c in coeffs.items() if not c.is_zero()}
    while True:
        for e in sorted(work, reverse=True):
            i = _violating_slot(g, e)
            if i is not None:
                break
        else:
            return work  # no inner exponent reaches its power
        c = work.pop(e)
        base = list(e)
        base[i] -= g.step(i).power
        # higher-value tail terms vanish in the graded ring
        for coeff, exps in g.equal_tail(i):
            ne = tuple(b + t for b, t in zip(base, exps))
            add = -(coeff * c)
            prev = work.get(ne)
            total = add if prev is None else prev + add
            if total.is_zero():
                work.pop(ne, None)
            else:
                work[ne] = total


def _violating_slot(g, exps):
    for i in range(len(exps) - 2, 0, -1):  # inner keys only, top stays free
        if i <= len(g.steps) and exps[i] >= g.step(i).power:
            return i
    return None


# ---------------------------------------------------------------------------
# presentations and piece bases
# ---------------------------------------------------------------------------

class GradedGenerator:
    __slots__ = ("index", "value", "redundant", "expression")

    def __init__(self, index, value, redundant, expression):
        self.index = index
        self.value = value
        self.redundant = redundant
        self.expression = expression  # textual witness when redundant


class GradedRelation:
    __slots__ = ("level", "lead_exps", "tail", "value", "verified")

    def __init__(self, level, lead_exps, tail, value, verified):
        self.level = level
        self.lead_exps = lead_exps
        self.tail = tail          # list of (coeff, exps)
        self.value = value
        self.verified = verified  # residue substitution vanished


class GradedPresentation:
    """Generators in(P_0..depth) with the homogeneous step relations."""

    def __init__(self, genseq, depth, generators, relations, warnings):
        self.genseq = genseq
        self.depth = depth
        self.generators = generators
        self.relations = relations
        self.warnings = list(warnings)

    def essential_generators(self):
        return [g for g in self.generators if not g.redundant]

    def is_polynomial_ring(self):
        """True when the pruned presentation has no surviving relation."""
        essential = {g.index for g in self.essential_generators()}
        for rel in self.relations:
            involved = {rel.level}
            for _, exps in rel.tail:
                involved.update(i for i, e in enumerate(exps) if e and i > 0)
            if involved <= essential:
                return False
        return True

    def lines(self):
        g = self.genseq
        out = []
        for gen in self.generators:
            tag = "  [= %s]" % gen.expression if gen.redundant else ""
            out.append("generator in(%s), value %r%s"
                       % (_key_name(g, gen.index), gen.value, tag))
        for rel in self.relations:
            lead = _monomial_str(g, rel.lead_exps)
            tail = " + ".join(
                "%r*%s" % (c, _monomial_str(g, e)) for c, e in rel.tail)
            out.append("relation (value %r): %s + %s = 0%s"
                       % (rel.value, lead, tail,
                          "" if rel.verified else "  [residue check skipped]"))
        ess = [_key_name(g, gen.index) for gen in self.essential_generators()]
        out.append("essential generators: %s%s"
                   % (", ".join("in(%s)" % n for n in ess),
                      " (polynomial ring)" if self.is_polynomial_ring() else ""))
        out.extend("warning: %s" % w for w in self.warnings)
        return out


def graded_presentation(g, depth):
    """Presentation of the prefix graded ring using keys up to ``depth``."""
    depth = min(depth, g.top)
    warnings = []
    generators = []
    for i in range(depth + 1):
        redundant = False
        expression = ""
        if i >= 1:
            lvl = g.level(i)
            if (lvl.group_jump == 1 and lvl.residue_degree == 1
                    and lvl.residue is not None and lvl.unit_exps is not None):
                redundant = True
                expression = "%r * %s" % (
                    lvl.residue, _monomial_str(
                        g, tuple(lvl.unit_exps) + (0,) * (g.top + 1
                                                          - len(lvl.unit_exps))))
        generators.append(GradedGenerator(i, g.values[i], redundant, expression))
    relations = []
    for step in g.steps:
        i = step.index
        if i > depth - 1:
            break
        lead_value = g.values[i] * step.power
        equal = list(g.equal_tail(i))
        if not equal:
            continue
        lead = [0] * (g.top + 1)
        lead[i] = step.power
        verified = True
        try:
            terms = [(g.ctx.tower.one(), tuple(lead))] + list(equal)
            total = residue_sum([(c, e) for c, e in terms], g)
            if not total.is_zero():
                warnings.append(
                    "relation at level %d does not vanish in the residue "
                    "field: %r" % (i, total))
                verified = False
        except Exception as err:
            warnings.append("relation at level %d not verifiable: %s" % (i, err))
            verified = False
        relations.append(GradedRelation(i, tuple(lead), equal, lead_value,
                                        verified))
    return GradedPresentation(g, depth, generators, relations, warnings)


def graded_piece_basis(gamma, g):
    """All reduced key-monomials of a given value, as exponent tuples.

    ``gamma`` is a :class:`Value` or a point of g's grid.  Inner exponents
    run below the recursion powers; the last declared key is unbounded.
    Empty result means the value is outside the piece's support.
    """
    # walk from the top key down so that x, unbounded, is solved by division
    levels = range(g.top, -1, -1)
    caps = [g.step(i).power if 1 <= i <= len(g.steps) else None
            for i in levels]
    return sorted(e[::-1] for e in g.grid.sums(
        [g.grid.points[i] for i in levels], gamma, caps))


# ---------------------------------------------------------------------------
# subalgebra membership
# ---------------------------------------------------------------------------

class MembershipResult:
    __slots__ = ("ok", "certificate", "detail")

    def __init__(self, ok, certificate=None, detail=""):
        self.ok = ok
        self.certificate = certificate  # list of (gen exponents, coefficient)
        self.detail = detail

    def __bool__(self):
        return self.ok


def subalgebra_membership(e, gens):
    """Decide e in k[gens] for homogeneous e and gens, with a certificate.

    The scalars k are the residue field K_0 of e's ring.  Monomials in the
    generators with e's value are enumerated (finitely many, by positivity)
    and walked in one order, in one of two regimes.

    A single-term e whose residue field K_0 is the whole tower is decided
    by exponent match: every coefficient ratio lies in K_0, so e is a
    multiple of a single-term product exactly when their exponent vectors
    agree, and the first such product gives the certificate with the ratio
    of the two coefficients.  No linear system is formed.  At the first
    product of two or more terms the walk so far, and the rest of it, go to
    the solver below.

    Every other membership is decided by one exact linear system over the
    base field, on sparse columns keyed by (key exponents, base coordinate)
    for every monomial walked: no basis of e's piece is numbered.  The walk
    stops at the first monomial whose columns put e in their span.

    A failure reports the rank of the system on every column walked.  Under
    exponent match each nonzero coefficient spans K_0 times its monomial,
    so that rank is [K_0 : base] times the distinct exponent vectors walked.
    """
    g = e.genseq
    tower = g.ctx.tower
    field = g.residue_chain[0][:g.residue_ranks[0]]  # the ring's residue field
    walk, walked = _products_of_value(gens, e.point, g), []
    if len(e.coeffs) == 1 and g.ctx.ring_levels == tower.height:
        (own, c), = e.coeffs.items()
        for gexps, prod in walk:
            walked.append((gexps, prod))
            if len(prod.coeffs) > 1:
                break  # the solver takes the walk over from here
            d = prod.coeffs.get(own)
            if d is not None:
                return MembershipResult(True, certificate=[(gexps, c / d)])
        else:
            return _failure(e, len(walked), len(field) * len(
                {exps for _, prod in walked for exps in prod.coeffs}))

    def flatten(elem, scalar):
        # a nonzero scalar multiple of a reduced element stays reduced
        return {(exps, k): s for exps, c in elem.coeffs.items()
                for k, s in enumerate((c * scalar).to_vector()) if s}

    target = flatten(e, tower.one())
    solver, columns, sol = LinearSolver(tower.base), [], None
    for gexps, prod in chain(walked, walk):
        grew = False
        for b in field:
            grew = solver.add(flatten(prod, b)) or grew
            columns.append((gexps, b))
        # once e is in the span, its expression on the independent columns
        # so far is unique, and later independent columns keep it: the
        # certificate is the one the whole walk would give
        if grew:
            sol = solver.solve(target)
            if sol is not None:
                break
    if sol is None and columns:
        sol = solver.solve(target)  # a zero e needs no pivot
    if sol is None:
        return _failure(e, len(columns) // len(field), solver.rank)
    combo = {}
    for idx, scal in sol.items():
        gexps, b = columns[idx]
        prev = combo.get(gexps, tower.zero())
        combo[gexps] = prev + b * scal
    certificate = sorted((gexps, c) for gexps, c in combo.items()
                         if not c.is_zero())
    return MembershipResult(True, certificate=certificate)


def _failure(e, walked, rank):
    """Why e is not a member, after walking ``walked`` monomials to a
    system of rank ``rank``."""
    if not walked:
        return MembershipResult(False, detail="no generator monomial has "
                                               "value %r" % e.value)
    return MembershipResult(False, detail="rank %d system over %d monomials "
                            "has no solution" % (rank, walked))


def _products_of_value(gens, target, g):
    """Monomials in ``gens`` of the exact target value, with products.

    ``target`` is a :class:`Value` or a point of g's grid, where ``gens``
    lie.  The exponent vectors come lazily from one integer walk on the
    grid; a product is formed only for an exact hit, by :func:`_monomial`.
    """
    for exps in g.grid.sums([gen.point for gen in gens], target):
        yield exps, _monomial(g, gens, exps)


def _monomial(g, gens, exps):
    """The product of gens[i] ** exps[i] in g's graded ring.

    Every graded product is formed here.  The single-term factors make one
    term: its exponent vector and point are the sums of theirs and its
    coefficient the product of theirs, formed on raw tower reps past the
    coefficients equal to one.  Each multi-term factor is then multiplied
    into the terms so far, which are reduced after each, so they stay
    within the piece's reduced basis.  The reduced basis makes normal forms
    unique, so this is the chained product.  A negative exponent raises
    ValueError.
    """
    tower = g.ctx.tower
    one, mul = tower.one_rep, tower.mul
    out, p0, p1, rep, unit, multi = [0] * (g.top + 1), 0, 0, None, None, []
    for gen, k in zip(gens, exps):
        if k < 0:
            raise ValueError("negative powers are not graded elements")
        if not k:
            continue
        p0 += k * gen.point[0]
        p1 += k * gen.point[1]
        if len(gen.coeffs) != 1:
            multi += [gen.coeffs] * k
            continue
        (e, c), = gen.coeffs.items()
        for slot, a in enumerate(e):
            if a:
                out[slot] += k * a
        if c.rep == one:
            unit = c
            continue
        for _ in range(k):
            rep = c.rep if rep is None else mul(rep, c.rep)
    if rep is not None:
        unit = TowerElem(tower, rep)
    elif unit is None:
        unit = tower.one()
    terms = {tuple(out): unit}
    for factor in multi:
        prod = {}
        for e1, c1 in terms.items():
            for e2, c2 in factor.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = c1 * c2
                s = prod.get(e)
                prod[e] = p if s is None else s + p
        terms = _normalize(g, prod)
    return GradedElem(g, (p0, p1), terms)


# ---------------------------------------------------------------------------
# the finite-generation / alignment detector
# ---------------------------------------------------------------------------

class AlignmentLevel:
    __slots__ = ("s", "tau", "r", "lam", "chi")

    def __init__(self, s, tau, r, lam, chi):
        self.s, self.tau, self.r, self.lam, self.chi = s, tau, r, lam, chi

    def __repr__(self):
        return ("level s=%d (tau=%d): r=%d, lambda=%r, chi=%r"
                % (self.s, self.tau, self.r, self.lam, self.chi))


class Verdict:
    __slots__ = ("kind", "level", "detail")

    def __init__(self, kind, level, detail=""):
        self.kind = kind      # "consistent" | "obstruction"
        self.level = level
        self.detail = detail

    def __repr__(self):
        if self.kind == "consistent":
            return "ConsistentWithFinGen(depth=%d)" % self.level
        return "ObstructionAt(level=%d, %s)" % (self.level, self.detail)


class AlignmentState:
    def __init__(self, levels, verdict, e, f, matched, certificates,
                 witnesses, notes, caveats):
        self.levels = levels
        self.verdict = verdict
        self.e = e
        self.f = f
        self.matched = matched          # list of (sigma index, tau index)
        self.certificates = certificates
        self.witnesses = witnesses      # obstruction membership failures
        self.notes = list(notes)
        self.caveats = list(caveats)    # limits of the verdict, for reports

    def lines(self):
        out = [repr(l) for l in self.levels]
        out.append(repr(self.verdict))
        out.append("e (stabilized lambda) = %r, f (stabilized chi) = %r"
                   % (self.e, self.f))
        if self.matched:
            out.append("matched levels (source sigma, target tau): %r"
                       % (self.matched,))
        for j, cert in sorted(self.certificates.items()):
            out.append("  image of source key %d in the target subalgebra: %s"
                       % (j, _cert_str(cert)))
        for lvl, witness in self.witnesses:
            out.append("  new target initial form at level %d fails "
                       "membership: %s" % (lvl, witness))
        out.extend("note: %s" % n for n in self.notes)
        return out

    def __repr__(self):
        return "\n".join(self.lines())


def _cert_str(cert):
    parts = []
    for gexps, c in cert.certificate or ():
        mono = "*".join("g%d^%d" % (i, e) for i, e in enumerate(gexps) if e)
        parts.append("%r*%s" % (c, mono or "1"))
    return " + ".join(parts) or "0"


def fingen_detect(g_r, g_s, ext, depth):
    """Alignment of two sequences through an extension, to a given depth.

    Computes the per-level quantities (the largest absorbed source level,
    the group-index and residue-degree gaps) and matches consecutive new
    keys on both sides.  Each source image's certificate is the one proved
    at the first level that absorbs it, in the generators of that level.
    A terminal target sequence is finitely generated outright; otherwise a
    persistent mismatch at stable gaps is reported as an obstruction with
    a membership witness.  The map keeps each state it returns, shared by
    every later caller, so a pair is detected once per depth; a raised
    error is not kept.
    """
    key = (g_r, g_s, depth)
    state = ext.detections.get(key)
    if state is None:
        state = ext.detections[key] = _detect(g_r, g_s, ext, depth)
    return state


def _detect(g_r, g_s, ext, depth):
    if not (g_r.ctx.tower == g_s.ctx.tower
            or g_r.ctx.tower.is_prefix_of(g_s.ctx.tower)):
        raise ValueError("source tower must embed in the target tower")
    # a walk below would refuse a negative point by its place in that
    # walk; name the side and the key instead
    for side, g in (("source", g_r), ("target", g_s)):
        for i, p in enumerate(g.grid.points):
            if g.grid.cmp(p, (0, 0)) < 0:
                raise ValueError("%s key %d has negative value %r"
                                 % (side, i, g.values[i]))
    notes = []
    sigma = sigma_indices(g_r)
    tau = sigma_indices(g_s)
    s_max = min(depth, len(tau) - 1)

    # only sigma-level images are ever needed, and deeper images may not
    # even be decidable within the target prefix; each is read in closed
    # form when the map knows it, else from one expansion
    initials = {}
    for j in sigma:
        initials[j] = ext.initial_image(g_r, j, g_s)
        if initials[j] is None:
            initials[j] = initial_form(ext.apply(g_r.keys[j]), g_s)
    q_initials = [key_initial(g_s, i) for i in range(g_s.top + 1)]

    chi_at = _Chi(g_r, g_s, sigma, tau, lambda si: _delta(g_r, si, initials))
    # lambda's lattices grow with s and r, so their echelon rows are kept
    lam_at = RunningIndex([g_s.grid.points[t] for t in tau[:s_max + 1]],
                          [initials[j].point for j in sigma])
    levels = []
    certificates = {}
    r_s, lam, chi = -1, None, None  # e and f are the last level's lam, chi
    for s in range(s_max + 1):
        a_gens = [q_initials[tau[t]] for t in range(s + 1)]
        # membership in k[gens] is exact and the gens grow with s, so a
        # level starts past what the one before absorbed: each image is
        # proved once, in g_0..g_s of the first level s that absorbs it
        for j in range(r_s + 1, len(sigma)):
            res = subalgebra_membership(initials[sigma[j]], a_gens)
            if not res:
                break
            certificates[sigma[j]] = res
            r_s = j
        lam = chi = None
        if r_s >= 0:
            try:
                lam = lam_at.at(s, r_s)
            except ContainmentError as err:
                if err.index is not None:  # name the value, not its point
                    err = ContainmentError.of_value(
                        initials[sigma[err.index]].value,
                        [g_s.values[tau[t]] for t in range(s + 1)])
                notes.append("lambda at s=%d undefined: %s" % (s, err))
            if lam is INFINITE:
                notes.append("lambda infinite at s=%d (rank gap not yet "
                             "absorbed)" % s)
                lam = None
            chi = chi_at.at(s, r_s)
        if levels:
            prev = levels[-1]
            if lam is not None and prev.lam is not None and lam > prev.lam:
                raise AssertionError("lambda increased along the chain")
            if chi is not None and prev.chi is not None and chi > prev.chi:
                raise AssertionError("chi increased along the chain")
        levels.append(AlignmentLevel(s, tau[s], r_s, lam, chi))

    matched, witnesses = [], []
    verdict = Verdict("consistent", s_max)
    if g_s.terminal:
        notes.append("target sequence is terminal: its graded ring is "
                     "finitely generated outright")
        matched = [(sigma[j], tau[min(s_max, j)]) for j in range(r_s + 1)]
    else:
        for cur, nxt in zip(levels, levels[1:]):
            if cur.lam is None or nxt.lam is None or nxt.lam < cur.lam:
                continue  # the proof allows finitely many strict drops
            if cur.chi is not None and nxt.chi is not None and nxt.chi < cur.chi:
                continue
            kind = _match_next(g_r, g_s, initials, sigma, tau, cur, nxt)
            if kind is None:
                matched.append((sigma[cur.r + 1], tau[nxt.s]))
                continue
            witness = _new_key_witness(initials, q_initials, tau, cur.s)
            if witness is not None:
                witnesses.append((nxt.s, witness))
            verdict = Verdict("obstruction", nxt.s, kind)
            break

    return AlignmentState(levels, verdict, lam, chi, matched, certificates,
                          witnesses, notes,
                          ["verdict certified only to depth %d" % s_max])


def _match_next(g_r, g_s, initials, sigma, tau, cur, nxt):
    """None when the next levels pair up; otherwise the first broken identity."""
    j = cur.r + 1
    if j >= len(sigma):
        return "source keys exhausted while target keys continue"
    si, ti = sigma[j], tau[nxt.s]
    beta = initials[si].value
    gamma = g_s.values[ti]
    if beta != gamma:
        return ("value mismatch: source key %d has value %r, target key %d "
                "has value %r" % (si, beta, ti, gamma))
    jr = g_r.level(si).group_jump
    js = g_s.level(ti).group_jump
    if jr is not None and js is not None and jr != js:
        return "group jump mismatch at the matched pair: %r vs %r" % (jr, js)
    dr = g_r.level(si).residue_degree
    ds = g_s.level(ti).residue_degree
    if dr is not None and ds is not None and dr != ds:
        return "residue degree mismatch at the matched pair: %d vs %d" % (dr, ds)
    cr = g_r.level(si).cap
    cs = g_s.level(ti).cap
    if cr is not None and cs is not None and cr != cs:
        return "recursion power mismatch at the matched pair: %r vs %r" % (cr, cs)
    if nxt.r != cur.r + 1:
        return ("absorption did not advance by one level (r went %d -> %d)"
                % (cur.r, nxt.r))
    return None


def _new_key_witness(initials, q_initials, tau, s):
    """Membership failure of the next target initial form, if it fails."""
    b_gens = list(initials.values())
    b_gens.extend(q_initials[tau[t]] for t in range(s + 1))
    res = subalgebra_membership(q_initials[tau[s + 1]], b_gens)
    if res:
        return None
    return res.detail


class _Chi:
    """Residue-field index between the absorbed prefixes, level by level.

    The big field is the target's residue-field chain read at tau[s] (see
    :attr:`GenSeq.residue_ranks`).  The small one is the source ring's
    residue field with the residues ``delta`` gives (see :func:`_delta`)
    at sigma[1..r], closed in the target's tower; the detector's r only
    grows, so it is carried across the levels and each delta is asked for
    once.
    """

    def __init__(self, g_r, g_s, sigma, tau, delta):
        self.g_s = g_s
        self.sigma, self.tau, self.delta = sigma, tau, delta
        # the source ring's residue field, a closed basis already, re-homed
        # in the target's tower
        tower = g_s.ctx.tower
        basis = [tower.lift(b)
                 for b in g_r.residue_chain[0][:g_r.residue_ranks[0]]]
        solver = LinearSolver(tower.base)
        for b in basis:
            solver.add(b.to_vector())
        self.small = basis, solver
        self.r = 0  # sigma levels absorbed; None once a delta is missing
        # (small rank, big rank) of the last containment that held: both
        # fields only grow, so it holds again while the small field stays
        self.contained = None

    def at(self, s, r):
        """chi at level s with sigma[0..r] absorbed, or None when a residue
        is missing, the small field is not inside the big one or the tower
        law fails."""
        if any(self.g_s.level(self.tau[t]).residue is None
               for t in range(1, s + 1)):
            return None
        while self.r is not None and self.r < r:
            d = self.delta(self.sigma[self.r + 1])
            # the base field is in K_0, so a rational delta adds nothing
            if d is not None and d is not INFINITE and not d.is_rational():
                span_closure(self.g_s.ctx.tower, [d], self.small)
            self.r = None if d is None else self.r + 1
        if self.r is None:
            return None
        solver = self.g_s.residue_chain[1]
        big = self.g_s.residue_ranks[self.tau[s]]
        small = self.small[1].rank
        held = self.contained
        if held is None or held[0] != small or held[1] > big:
            if any(solver.solve(b.to_vector(), big) is None
                   for b in self.small[0]):
                return None
            self.contained = small, big
        return None if big % small else big // small


def _delta(g_r, si, initials):
    """Residue of the image of P_si^jump over its unit monomial's image.

    Both are monomials in the image initial forms ``initials`` (by sigma
    index), formed by :func:`_monomial`.  INFINITE at a rank jump (by
    convention that residue is 1); None when the source level lacks its
    data or a residue vanishes at the target prefix.
    """
    lvl = g_r.level(si)
    if lvl.group_jump is INFINITE:
        return INFINITE
    if lvl.group_jump is None or lvl.unit_exps is None:
        return None
    g = initials[si].genseq
    num = _monomial(g, [initials[si]], [lvl.group_jump])
    # a unit monomial has exponent 0 at every key whose step power is 1, so
    # the sigma initial forms are enough (the others stand in as None)
    den = _monomial(g, [initials.get(k) for k in range(len(lvl.unit_exps))],
                    lvl.unit_exps)
    return _residue_ratio(num, den)


def _residue_ratio(num, den):
    """Residue of num / den for graded elements of one value, or None.

    Both residues are taken against den's first monomial: another monomial
    of that value scales both by one nonzero residue.  None when den is
    zero or either residue sum vanishes.
    """
    if not den.coeffs:
        return None
    g = num.genseq
    ref = next(iter(den.coeffs))
    top, bottom = (residue_sum([(c, e) for e, c in x.coeffs.items()], g, ref)
                   for x in (num, den))
    if top.is_zero() or bottom.is_zero():
        return None
    return top / bottom

