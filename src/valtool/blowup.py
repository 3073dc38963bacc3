"""Quadratic transforms along a valuation and transported sequences.

The atomic operation is the composite transform determined by the first
level of the sequence: with jump n and unit exponent w (coprime), pick
a, b with n*b - w*a = 1 and pass to the chart

    x = X^n * U^a,   y = X^w * U^b,

where U has value zero and residue alpha.  The chart is
:class:`TransformMap`'s own map, x^i y^j to X^(n*i + w*j) U^(a*i + b*j),
not a ring substitution; the map checks its preconditions when built.
Recentering Z = U - alpha gives regular parameters (X, Z) of the target
ring; it is a Taylor shift, each X^i U^j spread over X^i Z^k by binomials,
with no ring product.  Keys transport by clearing the exceptional power of
X and the power of U and stay the target's keys, one level down; every
shifted invariant is recomputed on the target and compared against the
source as a consistency table.  The chart has determinant 1, so distinct
terms of f land on distinct monomials X^i U^j and nothing cancels: both
powers, and so the strict transform, are read off the chart exponents,
with no division.
"""

from __future__ import annotations

from fractions import Fraction

from .extension import ExtensionMap
from .genseq import GenSeq, expand, monic_of_degree
from .graded import GradedElem
from .ring import (LocalRingCtx, RingElem, SeriesEmbedding, TruncSeries,
                   shift_y)
from .values import INFINITE


class TransformError(Exception):
    """The transform cannot be built from the declared data."""


class TransformMap:
    """One composite transform: chart data, recentering, and images."""

    __slots__ = ("source_ctx", "target_ctx", "nbar", "w", "a", "b",
                 "alpha_lift", "x_image", "y_image", "exceptional_value",
                 "key_orders", "unit_orders", "chart_ctx")

    def __init__(self, source_ctx, target_ctx, nbar, w, a, b, alpha_lift,
                 exceptional_value):
        if (target_ctx.tower is not source_ctx.tower
                or target_ctx.ring_levels < source_ctx.ring_levels):
            raise ValueError("the target needs the source's tower and levels")
        if nbar * b - w * a != 1 or min(nbar, w, a, b) < 0:
            raise ValueError("chart exponents (%d, %d, %d, %d) are not "
                             "unimodular and nonnegative" % (nbar, w, a, b))
        self.source_ctx = source_ctx
        self.target_ctx = target_ctx
        self.nbar, self.w = nbar, w
        self.a, self.b = a, b  # the chart exponents
        self.alpha_lift = alpha_lift
        self.exceptional_value = exceptional_value  # value of X
        # X- and U-orders of each source key's chart image (o_k and t_k);
        # free_transform fills them
        self.key_orders = (nbar, w)
        self.unit_orders = (a, b)
        # the chart (X, U) with U = Z + alpha, a ring of its own on the tower
        chart = self.chart_ctx = LocalRingCtx(
            target_ctx.tower, ("X", "U"), ring_levels=target_ctx.ring_levels)
        self.x_image = shift_y(chart.monomial(nbar, a), target_ctx, alpha_lift)
        self.y_image = shift_y(chart.monomial(w, b), target_ctx, alpha_lift)

    def _chart(self, f):
        """f in the chart: x^i y^j goes to X^(n*i + w*j) U^(a*i + b*j), one
        monomial per term (the map is injective), coefficient reps as is."""
        if f.ctx is not self.source_ctx:
            raise ValueError("element does not live in the source ring")
        n, w, a, b = self.nbar, self.w, self.a, self.b
        return RingElem(self.chart_ctx, {(n * i + w * j, a * i + b * j): c
                                         for (i, j), c in f.terms.items()})

    def _strict_image(self, h):
        """Recentred chart image h with its powers of X and U cleared."""
        h = h.shift(-h.x_order(), -_unit_order(h))
        return shift_y(h, self.target_ctx, self.alpha_lift)

    def to_target(self, f):
        """Image of a source element in the target chart (exact)."""
        return shift_y(self._chart(f), self.target_ctx, self.alpha_lift)

    def extension(self):
        """The transform as an extension map (trivial field extension)."""
        return _TransformExtension(self)

    def describe(self):
        xn, yn = self.source_ctx.param_names
        Xn, Zn = self.target_ctx.param_names
        # "(eps=+1)" is part of the recorded report format
        return ("%s = %s^%d*(%s+%r)^%d, %s = %s^%d*(%s+%r)^%d (eps=+1)"
                % (xn, Xn, self.nbar, Zn, self.alpha_lift, self.a,
                   yn, Xn, self.w, Zn, self.alpha_lift, self.b))

    def __repr__(self):
        return "TransformMap(%s)" % self.describe()


class _TransformExtension(ExtensionMap):
    """A transform as an extension map, applied through its chart.

    The images x = X^n * U^a, y = X^w * U^b share the unit U = Z + alpha;
    the chart sends each term to one monomial X^s U^t and recentring is a
    Taylor shift in U.  That is the element substituting the images gives,
    at a fraction of the cost on long keys.
    """

    __slots__ = ("tmap",)

    def __init__(self, tmap):
        super().__init__(tmap.source_ctx, tmap.x_image, tmap.y_image,
                         field_degree=1,
                         unique=True)
        self.tmap = tmap

    def apply(self, f):
        return self.tmap.to_target(f)

    def initial_image(self, g_r, k, g_s):
        """in(image of P_k) = alpha^t_k * in(X)^o_k * in(P'_(k-1)) in g_s's
        graded ring, when g_s is the sequence the transform built from g_r.

        The image of P_k is X^o_k * U^t_k times its strict transform, which
        is g_s's key k - 1 (for x and y the strict transform is 1), and the
        unit U = Z + alpha has initial form alpha.
        """
        tmap, own = self.tmap, g_r._transform
        if own is None or own[0] is not tmap or own[1] is not g_s:
            return None
        exps = [0] * len(g_s.keys)
        exps[0] = tmap.key_orders[k]
        if k >= 2:
            exps[k - 1] = 1
        point = tuple(sum(e * p[c] for e, p in zip(exps, g_s.grid.points))
                      for c in (0, 1))
        return GradedElem(g_s, point, {tuple(exps): tmap.alpha_lift
                                       ** tmap.unit_orders[k]})


def _unit_order(h):
    """The power of U that divides a chart element."""
    return min(j for _, j in h.terms)


def _chart_exponents(nbar, w):
    """Minimal a >= 0 and b with nbar*b - w*a = 1."""
    from math import gcd
    if gcd(nbar, w) != 1:
        raise TransformError("jump %d and unit exponent %d are not coprime"
                             % (nbar, w))
    a = (-pow(w, -1, nbar)) % nbar
    return a, (1 + w * a) // nbar


def free_transform(g):
    """Composite transform of a sequence; returns (map, transported sequence).

    Needs the key after the first level (its strict transform is the new y)
    and the first level's residue for recentering.  The target keeps the
    strict transforms as its keys (`GenSeq.from_keys`), one level down.
    The pair is built once per sequence and returned again on later calls;
    a `TransformError` is raised afresh on each call.
    """
    if g._transform is None:
        g._transform = _build_transform(g)
    return g._transform


def _build_transform(g):
    if len(g.steps) < 1:
        raise TransformError("insufficient keys: the transform re-seeds from "
                             "the key after the first level")
    lvl1 = g.level(1)
    if lvl1.group_jump is INFINITE or lvl1.group_jump is None:
        raise TransformError("first level has no finite group jump")
    if lvl1.unit_exps is None:
        raise TransformError("first level has no unit monomial")
    if lvl1.residue is None:
        raise TransformError("recentering needs the first-level residue")
    nbar, w = lvl1.group_jump, lvl1.unit_exps[0]
    a, b = _chart_exponents(nbar, w)
    alpha_lift = lvl1.residue

    xn, yn = g.ctx.param_names
    target_ctx = LocalRingCtx(
        g.ctx.tower, (xn + "1", yn + "1"),
        ring_levels=max(g.ctx.ring_levels, alpha_lift.levels_used()))
    exceptional_value = g.values[0] / nbar
    tmap = TransformMap(g.ctx, target_ctx, nbar, w, a, b, alpha_lift,
                        exceptional_value)

    # transported keys: clear the exceptional power and the unit factor
    target_keys = [target_ctx.x()]
    target_values = [exceptional_value]
    key_orders, unit_orders = list(tmap.key_orders), list(tmap.unit_orders)
    for i in range(1, g.top):
        expected_drop = _drop(g, i + 1)
        # y1-degree of target key i: the source powers at levels 2..i
        deg = expected_drop // _drop(g, 2)
        chart = tmap._chart(g.keys[i + 1])
        drop = chart.x_order()
        if drop != expected_drop:
            raise TransformError(
                "exceptional power of key %d is %d, expected %d"
                % (i + 1, drop, expected_drop))
        key_orders.append(drop)
        unit_orders.append(_unit_order(chart))
        stripped = tmap._strict_image(chart)
        if not monic_of_degree(stripped, deg):
            raise TransformError(
                "strict transform of key %d does not normalize to a monic "
                "key of degree %d: %r" % (i + 1, deg, stripped))
        # the recentered parameter must BE the transported key; a leftover
        # unit factor cannot be absorbed polynomially
        if i == 1 and stripped != target_ctx.y():
            raise TransformError(
                "strict transform of key 2 is %r, not the recentered "
                "parameter; the chart change is not polynomial" % stripped)
        target_keys.append(stripped)
        target_values.append(g.values[i + 1] - exceptional_value * drop)
    tmap.key_orders, tmap.unit_orders = tuple(key_orders), tuple(unit_orders)

    # Declared residues transport safely only when every source residue is 1
    # (the cleared powers of U contribute powers of source residues, hence
    # trivial); otherwise the transported oracle recomputes them exactly.
    one = g.ctx.tower.one()
    trivial = all(l.residue is None or l.residue == one for l in g.levels)
    residues = {l.index - 1: l.residue for l in g.levels[1:]
                if trivial and l.residue is not None}

    oracle = _transport_oracle(g, tmap)
    target = GenSeq.from_keys(target_ctx, target_values, target_keys,
                              [step.power for step in g.steps[1:]],
                              residues=residues, oracle=oracle,
                              terminal=g.terminal)
    return tmap, target


def _transport_oracle(g, tmap):
    if g.oracle is None:
        return None
    xn, yn = g.ctx.param_names
    gx, gy = g.oracle.images[xn], g.oracle.images[yn]
    x1 = gx ** tmap.b * gy ** -tmap.a
    y1 = gx ** -tmap.w * gy ** tmap.nbar
    tower = x1.tower
    alpha_const = TruncSeries(tower, {Fraction(0): tower.lift(tmap.alpha_lift)},
                              y1.trunc)
    z1 = y1 - alpha_const
    Xn, Zn = tmap.target_ctx.param_names
    try:
        return SeriesEmbedding(tmap.target_ctx, {Xn: x1, Zn: z1},
                               normalization=(Xn, tmap.exceptional_value))
    except ValueError:
        return None  # truncation too shallow to normalize; drop the oracle


def strict_transform(f, tmap):
    """Strict transform of f: image with the exceptional factor removed.

    Strict transforms are defined only up to a unit, so the unit factor
    (Z + alpha)^k, the power of U in the chart, is cleared and the
    lex-lowest coefficient is scaled to 1 for determinism.
    """
    if f.is_zero():
        raise ValueError("strict transform of zero")
    return tmap._strict_image(tmap._chart(f)).leading_unit_normalized()


# ---------------------------------------------------------------------------
# chains and their invariant tables
# ---------------------------------------------------------------------------

class ShiftRow:
    __slots__ = ("target_level", "source_level", "jump", "degree", "power",
                 "value", "ok")

    def __init__(self, target_level, source_level, jump, degree, power,
                 value, ok):
        self.target_level = target_level
        self.source_level = source_level
        self.jump = jump          # (target, source) pair
        self.degree = degree
        self.power = power
        self.value = value
        self.ok = ok

    def __repr__(self):
        return ("level %d <- %d: jump %r, degree %r, power %r, value %r%s"
                % (self.target_level, self.source_level, self.jump,
                   self.degree, self.power, self.value,
                   "" if self.ok else "  MISMATCH"))


class ChainStep:
    __slots__ = ("map", "source", "target", "table", "residue_extension")

    def __init__(self, map_, source, target, table, residue_extension):
        self.map = map_
        self.source = source
        self.target = target
        self.table = table
        self.residue_extension = residue_extension

    def ok(self):
        return all(row.ok for row in self.table)


class TransformChainRecord:
    def __init__(self, steps, requested, truncated_reason=None):
        self.steps = steps
        self.requested = requested
        self.truncated_reason = truncated_reason

    def __len__(self):
        return len(self.steps)

    def lines(self):
        out = []
        for k, step in enumerate(self.steps, start=1):
            out.append("step %d: %s" % (k, step.map.describe()))
            out.append("  residue-field degree over the source: %d"
                       % step.residue_extension)
            out.extend("  " + repr(row) for row in step.table)
        if self.truncated_reason:
            out.append("chain truncated after %d of %d steps: %s"
                       % (len(self.steps), self.requested,
                          self.truncated_reason))
        return out

    def dot(self):
        """Chain as a DOT digraph over the ring contexts."""
        out = ["digraph transforms {"]
        prev = "R0"
        label = lambda ctx: "(%s, %s)" % ctx.param_names
        if self.steps:
            out.append('  %s [label="%s"];' % (prev,
                                               label(self.steps[0].source.ctx)))
        for k, step in enumerate(self.steps, start=1):
            node = "R%d" % k
            out.append('  %s [label="%s"];' % (node, label(step.target.ctx)))
            out.append('  %s -> %s [label="jump %d, w %d"];'
                       % (prev, node, step.map.nbar, step.map.w))
            prev = node
        out.append("}")
        return out

    def __repr__(self):
        return "\n".join(self.lines())


def shift_table(source, target):
    """Recomputed target invariants against the source's shifted ones."""
    rows = []
    for i in range(1, target.top + 1):
        si = i + 1
        t_lvl = target.level(i)
        s_lvl = source.level(si) if si <= source.top else None
        if s_lvl is None:
            continue
        jump = (t_lvl.group_jump, s_lvl.group_jump)
        degree = (t_lvl.residue_degree, s_lvl.residue_degree)
        power = (t_lvl.cap, s_lvl.cap)
        value = (target.values[i],
                 source.values[si] - target.values[0] * _drop(source, si))
        ok = all(x == y for x, y in (jump, degree, power, value)
                 if x is not None and y is not None)
        rows.append(ShiftRow(i, si, jump, degree, power, value, ok))
    return rows


def _drop(source, si):
    w = source.level(1).unit_exps[0]
    n = 1
    for s in range(1, si):
        n *= source.step(s).power
    return w * n


def iterate_transforms(g, count):
    """Chain of composite transforms; truncates with a reason when keys run out."""
    steps = []
    current = g
    reason = None
    for _ in range(count):
        try:
            tmap, target = free_transform(current)
        except TransformError as err:
            reason = str(err)
            break
        table = shift_table(current, target)
        res_ext = (current.level(1).residue_degree or 1)
        steps.append(ChainStep(tmap, current, target, table, res_ext))
        current = target
    return TransformChainRecord(steps, count, reason)


# ---------------------------------------------------------------------------
# value bookkeeping of transformed monomials
# ---------------------------------------------------------------------------

def transform_value_table(g, tmap, f, level):
    """Per-term exceptional exponents of f's expansion against a key level.

    For each expansion term with value above the level's key value (or equal
    with top index below the level), the transformed exceptional exponent t
    must exceed the key's own drop, except in the one stated degenerate case
    (level 1, the term x alone, jump = w = 1), where they agree.

    t and the drops are read off the X-orders of the keys' chart images:
    the chart is a ring map into k[X, U], so the X-order of a key monomial
    is the sum of its exponents times those orders (recentering keeps
    X-orders).  The map must be g's own transform.
    """
    own = g._transform
    if own is None or own[0] is not tmap:
        raise ValueError("the map is not the sequence's own transform")
    lam = tmap.key_orders[level]  # the group jump n = ord_X(x) at level 0
    rows = []
    key_point, cmp = g.grid.points[level], g.grid.cmp
    for _, exps, point in expand(f, g).grid_terms:
        sign = cmp(point, key_point)
        top_idx = max((i for i, e in enumerate(exps) if e), default=0)
        if sign < 0 or (sign == 0 and top_idx >= level):
            continue
        t = sum(e * o for e, o in zip(exps, tmap.key_orders))
        exceptional = (level == 1 and tmap.nbar == 1 and tmap.w == 1
                       and list(exps[1:]) == [0] * (len(exps) - 1)
                       and exps[0] == 1)
        ok = t > lam or (exceptional and t == lam)
        rows.append((tuple(exps), t, lam, ok))
    return rows
