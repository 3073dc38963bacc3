"""Ramification invariants of finite extensions: e, f and the defect.

Two routes read the defect off one index identity, n = e * f * p^delta
(:func:`index_defect`), with p the characteristic of the residue tower:
n = [K*:K] when the upstairs valuation is the unique extension, and the
local degree n = a * d * [S1/m : R1/m] read off a monomial form of the
extension.  Reports cross-check whichever routes apply.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, tee

from .genseq import InsufficientGeneratingData, evaluate
from .graded import fingen_detect
from .ring import (MonomialForm, SeriesEmbedding, monomialize_check,
                   series_value, substitute)
from .values import INSUFFICIENT_PRECISION, UNDETERMINED, value_ratio


class InconsistentRamification(Exception):
    """Declared ramification data contradicts the index formula."""


class ExtensionMap:
    """A finite extension R -> S given by the images of R's parameters."""

    __slots__ = ("source_ctx", "u_image", "v_image", "field_degree",
                 "unique", "detections")

    def __init__(self, source_ctx, u_image, v_image, field_degree,
                 unique=None):
        if u_image.ctx is not v_image.ctx:
            raise ValueError("images live in different target contexts")
        if u_image.is_unit() or v_image.is_unit():
            raise ValueError("images must be non-units (domination)")
        if field_degree is not None and field_degree < 1:
            raise ValueError("field degree must be at least 1")
        self.source_ctx = source_ctx
        self.u_image = u_image
        self.v_image = v_image
        self.field_degree = field_degree  # [K*:K], or None: undeclared
        self.unique = unique
        # fingen_detect's states by (g_r, g_s, depth), one run per key
        self.detections = {}

    @property
    def target_ctx(self):
        return self.u_image.ctx

    def apply(self, f):
        """Image in S of an element of R."""
        if f.ctx is not self.source_ctx:
            raise ValueError("element is not from the source ring")
        return substitute(f, {self.source_ctx.param_names[0]: self.u_image,
                              self.source_ctx.param_names[1]: self.v_image})

    def initial_image(self, g_r, k, g_s):
        """in(image of g_r's key k) in g_s's graded ring when the map knows
        it in closed form; None, and the detector expands the image."""
        return None

    def monomial_form(self):
        """The images' :class:`MonomialForm`, or :class:`NotMonomial`."""
        return monomialize_check(self.u_image, self.v_image)

    def __repr__(self):
        return "ExtensionMap(%s -> %r, %s -> %r; degree %s)" % (
            self.source_ctx.param_names[0], self.u_image,
            self.source_ctx.param_names[1], self.v_image, self.field_degree)


# each route's degree, as running text and as the formula it stands for
_DEGREE_NAMES = {"ostrowski": ("[K*:K]", "[K*:K]"),
                 "local-degree": ("local degree", "a*d*resDeg")}


def index_defect(degree, e, f, p, name):
    """delta with degree = e*f*p^delta, the index identity of Theorem 4.

    ``name`` is the route, "ostrowski" or "local-degree", and words the
    errors; raises :class:`InconsistentRamification` when no delta fits.
    """
    if degree < 1 or e < 1 or f < 1:
        raise ValueError("degree, e and f must be positive")
    noun, formula = _DEGREE_NAMES[name]
    quotient, rest = divmod(degree, e * f)
    if rest:
        raise InconsistentRamification(
            "%s %d is not divisible by e*f = %d" % (noun, degree, e * f))
    if p == 0:
        if quotient != 1:
            raise InconsistentRamification(
                "characteristic zero requires %s = e*f, got %d vs %d"
                % (formula, degree, e * f))
        return 0
    delta, left = 0, quotient
    while left % p == 0:
        left //= p
        delta += 1
    if left != 1:
        raise InconsistentRamification(
            "%s quotient %d is not a power of p = %d" % (noun, quotient, p))
    return delta


class RamificationReport:
    """e, f, delta with the routes that produced and cross-checked them."""

    def __init__(self, e, f, delta, routes, consistent, caveats):
        self.e = e
        self.f = f
        self.delta = delta
        self.routes = routes          # route name -> delta or UNDETERMINED/error str
        self.consistent = consistent
        self.caveats = list(caveats)

    def csv_rows(self):
        return [(route, self.e, self.f, self.routes[route],
                 int(self.consistent)) for route in sorted(self.routes)]

    def lines(self):
        out = ["e = %d, f = %d, delta = %r" % (self.e, self.f, self.delta)]
        for route in sorted(self.routes):
            out.append("  route %-12s -> %r" % (route, self.routes[route]))
        out.append("  routes consistent: %s" % self.consistent)
        for c in self.caveats:
            out.append("  caveat: %s" % c)
        return out

    def __repr__(self):
        return "\n".join(self.lines())


def ramification_report(g_r, g_s, ext, depth=4, monomial_ext=None):
    """Full report: e, f from the alignment detector, delta from both routes.

    The headline delta is the routes' common delta when they are consistent
    and one gives a number, and Undetermined otherwise.

    ``monomial_ext`` optionally supplies a blown-up parameter pair whose
    images have the monomial shape; by design the formula is applied at the
    user-selected level, never searched for.
    """
    state = fingen_detect(g_r, g_s, ext, depth)
    e, f = state.e, state.f
    if e is None or f is None:
        raise InconsistentRamification(
            "alignment did not stabilize; cannot read e and f at depth %d"
            % depth)
    p = ext.source_ctx.tower.base.p
    caveats = list(state.caveats)
    # each route's degree n, or its outcome when it has none
    degrees = {"ostrowski": (ext.unique and ext.field_degree) or UNDETERMINED}
    mf_source = monomial_ext if monomial_ext is not None else ext
    mf = mf_source.monomial_form()
    if isinstance(mf, MonomialForm):
        big = mf_source.target_ctx.residue_rank()
        small = mf_source.source_ctx.residue_rank()
        if big % small:
            raise ArithmeticError("alleged subfield is not contained")
        degrees["local-degree"] = mf.a * mf.d * (big // small)
        caveats.append("local-degree formula applied at the user-selected "
                       "ring pair, not at a stabilized level")
        caveats.append("the upstairs residue field is assumed algebraic "
                       "over the ring's (scenario assumption)")
    else:
        degrees["local-degree"] = "not applicable: %s" % mf.reason

    routes = {}
    for name, degree in degrees.items():
        try:
            routes[name] = (index_defect(degree, e, f, p, name)
                            if isinstance(degree, int) else degree)
        except InconsistentRamification as err:
            routes[name] = "inconsistent: %s" % err
    deltas = {d for d in routes.values() if isinstance(d, int)}
    consistent = len(deltas) <= 1 and not any(
        isinstance(d, str) and d.startswith("inconsistent")
        for d in routes.values())
    delta = deltas.pop() if consistent and deltas else UNDETERMINED
    routes["alignment"] = ("lambda*chi = %d agrees with e*f" % (e * f))
    return RamificationReport(e, f, delta, routes, consistent, caveats)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

class CandidateReport:
    __slots__ = ("name", "dominates", "restricts", "scale", "tested",
                 "skipped", "diagnosis")

    def __init__(self, name):
        self.name = name
        self.dominates = None
        self.restricts = None
        self.scale = None
        self.tested = 0
        self.skipped = 0
        self.diagnosis = ""


class SplittingReport:
    def __init__(self, candidates, distinct_pairs):
        self.candidates = candidates
        self.distinct_pairs = distinct_pairs

    witnessed = property(lambda self: bool(self.distinct_pairs))

    def lines(self):
        out = []
        for c in self.candidates:
            out.append(
                "candidate %-8s dominates=%s restricts=%s scale=%r "
                "tested=%d skipped=%d %s"
                % (c.name, c.dominates, c.restricts, c.scale,
                   c.tested, c.skipped, c.diagnosis))
        out.append("distinct restricting pairs: %r" % (self.distinct_pairs,))
        out.append("splitting witnessed: %s" % self.witnessed)
        return out


def _candidate_value(cand, f):
    """Value of an S-element under a candidate valuation, or undecided."""
    if isinstance(cand, SeriesEmbedding):
        return series_value(f, cand)
    try:
        return evaluate(f, cand)
    except InsufficientGeneratingData:
        return INSUFFICIENT_PRECISION


def splitting_report(candidates, ext, g_r, probes=(), seed=0):
    """Compare candidate upstairs valuations against the downstairs one.

    Each candidate (a generating sequence or a series oracle over S) is
    checked to dominate S and to restrict, up to the forced value-group
    scaling, to the declared downstairs valuation on the key images.  Two
    restricting candidates witness splitting when they differ on a probe:
    the given ones, the candidates' keys past y, then 24 random samples,
    drawn from ``random.Random(seed)`` only as far as they are read.
    """
    test_elems = [ext.apply(k) for k in g_r.keys]
    test_values = list(g_r.values)

    reports = []
    for idx, cand in enumerate(candidates, start=1):
        rep = CandidateReport("nu%d" % idx)
        ctx = cand.ctx
        xs = [ctx.x(), ctx.y()]
        doms = [_candidate_value(cand, el) for el in xs]
        rep.dominates = all(v is not INSUFFICIENT_PRECISION and v.sign() > 0
                            for v in doms)
        if not rep.dominates:
            rep.restricts = False
            rep.diagnosis = "candidate does not dominate the upstairs ring"
            reports.append(rep)
            continue
        scale = None
        ok = True
        for el, want in zip(test_elems, test_values):
            got = _candidate_value(cand, el)
            if got is INSUFFICIENT_PRECISION:
                rep.skipped += 1
                continue
            rep.tested += 1
            if scale is None:
                ratio = value_ratio(got, want)
                if ratio is None or ratio <= 0:
                    ok = False
                    rep.diagnosis = ("image value %r is not a rational "
                                     "multiple of %r" % (got, want))
                    break
                scale = ratio
            if got != want * scale:
                ok = False
                rep.diagnosis = ("restriction mismatch on a key image: "
                                 "%r vs %r (scale %r)" % (got, want * scale,
                                                          scale))
                break
        rep.scale = scale
        rep.restricts = ok and scale is not None
        reports.append(rep)

    # pairwise distinctness on probes, each candidate's own viewpoint
    probe_elems = list(probes)
    for cand in candidates:
        if not isinstance(cand, SeriesEmbedding):
            probe_elems.extend(cand.keys[2:])
    # drawn as far as a pair reads them; tee keeps them for the next pair
    samples = _random_samples(ext.target_ctx, seed)
    restricting = [(r, c) for r, c in zip(reports, candidates) if r.restricts]
    distinct_pairs = []
    for (ra, ca), (rb, cb) in combinations(restricting, 2):
        samples, read = tee(samples)
        if _distinct_on(ca, cb, chain(probe_elems, read)):
            distinct_pairs.append((ra.name, rb.name))
    return SplittingReport(reports, distinct_pairs)


def _random_samples(ctx, seed):
    """splitting_report's random samples: 24 sums of 3 monomials, 0 dropped."""
    rng = random.Random(seed)
    for _ in range(24):
        f = ctx.zero()
        for _ in range(3):
            f = f + ctx.monomial(rng.randint(0, 3), rng.randint(0, 3),
                                 rng.randint(-2, 2))
        if not f.is_zero():
            yield f


def _distinct_on(cand_a, cand_b, elems):
    """Distinctness as valuations, normalized on the first parameter."""
    ctx_a = cand_a.ctx
    if ctx_a is not cand_b.ctx:
        return False  # incomparable representations; no witness
    va0 = _candidate_value(cand_a, ctx_a.x())
    vb0 = _candidate_value(cand_b, ctx_a.x())
    if INSUFFICIENT_PRECISION in (va0, vb0):
        return False
    scale = value_ratio(vb0, va0)
    if scale is None or scale <= 0:
        return True
    for el in elems:
        if el.is_zero() or el.ctx is not ctx_a:
            continue
        va = _candidate_value(cand_a, el)
        vb = _candidate_value(cand_b, el)
        if INSUFFICIENT_PRECISION in (va, vb):
            continue
        if vb != va * scale:
            return True
    return False
