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
with no ring product.  The chart has determinant 1, so distinct terms of
f land on distinct monomials X^i U^j and nothing cancels: the exceptional
and unit powers, and so the strict transform, are read off the chart
exponents, with no division.

Keys transport by clearing those powers and stay the target's keys, one
level down, but no key is charted to get there: the chart is a ring map,
so the target's recursion comes from the source's (see
:func:`_target_steps`).  Each target step's tail is its key minus S_k^n,
read by :func:`~valtool.genseq.step_from_tail` the way the scenario parser
reads a declared tail.  Every shifted invariant is recomputed on the
target and compared against the source as a consistency table.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache

from .extension import ExtensionMap
from .genseq import GenSeq, expand, monic_of_degree, step_from_tail
from .graded import GradedElem
from .ring import (LocalRingCtx, RingElem, SeriesEmbedding, TruncSeries,
                   divmod_y, shift_y)
from .values import INFINITE


class TransformError(Exception):
    """The transform cannot be built from the declared data."""


class TransformMap:
    """One composite transform: chart data, recentering, and images."""

    __slots__ = ("source_ctx", "target_ctx", "nbar", "w", "a", "b",
                 "alpha_lift", "_images", "exceptional_value",
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
        self.chart_ctx = LocalRingCtx(
            target_ctx.tower, ("X", "U"), ring_levels=target_ctx.ring_levels)
        self._images = None

    @property
    def x_image(self):
        """The image X^n * (Z + alpha)^a of x, formed on first read."""
        return self._parameter_images()[0]

    @property
    def y_image(self):
        """The image X^w * (Z + alpha)^b of y, formed on first read."""
        return self._parameter_images()[1]

    def _parameter_images(self):
        if self._images is None:
            ctx = self.source_ctx
            self._images = (self.to_target(ctx.x()), self.to_target(ctx.y()))
        return self._images

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
    at a fraction of the cost on long keys.  The images are the map's own,
    formed on first read: the detector reads closed forms instead.
    """

    __slots__ = ("tmap",)

    u_image = property(lambda self: self.tmap.x_image)
    v_image = property(lambda self: self.tmap.y_image)
    target_ctx = property(lambda self: self.tmap.target_ctx)

    def __init__(self, tmap):
        # alpha is a residue: an image is a unit when its X-power is 0
        if min(tmap.nbar, tmap.w) < 1:
            raise ValueError("images must be non-units (domination)")
        self.source_ctx, self.tmap = tmap.source_ctx, tmap
        self.field_degree, self.unique, self.detections = 1, True, {}

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
        unit = tmap.alpha_lift ** tmap.unit_orders[k]
        return GradedElem(g_s, g_s.point(exps), {tuple(exps): unit})


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
    and the first level's residue for recentering.  The target's keys are
    the strict transforms, one level down.  They and the target's steps
    come from the source steps by the recursion of :func:`_target_steps`,
    which records the orders of each key's image in ``key_orders`` and
    ``unit_orders``.  The pair is built once per sequence and returned
    again on later calls; a `TransformError` is raised afresh on each call.
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

    values, keys, steps = _target_steps(g, tmap)

    # Declared residues transport safely only when every source residue is 1
    # (the cleared powers of U contribute powers of source residues, hence
    # trivial); otherwise the transported oracle recomputes them exactly.
    one = g.ctx.tower.one()
    trivial = all(l.residue is None or l.residue == one for l in g.levels)
    residues = {l.index - 1: l.residue for l in g.levels[1:]
                if trivial and l.residue is not None}

    oracle = _transport_oracle(g, tmap)
    target = GenSeq(target_ctx, values, steps, residues=residues,
                    oracle=oracle, terminal=g.terminal, keys=keys)
    return tmap, target


def _target_steps(g, tmap):
    """The target's values, keys and steps, from g's steps and the chart
    orders; sets ``tmap.key_orders`` and ``tmap.unit_orders``.

    The chart is a ring map, so it sends the step P_(k+1) = P_k^n +
    sum c * prod P_j^e_j to the same sum over the images X^o_j * U^t_j * S_j
    of the keys, where S_j, the strict transform of P_j, is target key
    j - 1 and S_0 = S_1 = 1.  Divided by the least powers of X and U among
    its pieces, the sum is X^d * U^m * S_(k+1): o_(k+1) and t_(k+1) are
    those least powers plus d and m, read off the sum rather than assumed.
    The pieces c * X^s * (Z + alpha)^t * prod S_j^e_j are small products of
    target keys, so the target key is formed from them.  The tail of the
    target's step is that key minus S_k^n, read by
    :func:`~valtool.genseq.step_from_tail` the way the scenario parser
    reads a declared tail.  No source key is charted or shifted.
    """
    ctx = tmap.target_ctx
    one, is_zero = ctx.rep(1), ctx.tower.is_zero
    unit = ctx.y() + ctx.const(tmap.alpha_lift)
    powers = _UnitPowers(ctx, tmap.alpha_lift)
    orders, units = [tmap.nbar, tmap.w], [tmap.a, tmap.b]
    keys, values = [ctx.x(), ctx.y()], [tmap.exceptional_value]
    steps, degree = [], 1  # degree: the Z-degree of the last target key
    key_power = cache(lambda j, e: keys[j] ** e)  # each S^e formed once
    for k in range(1, g.top):
        step = g.step(k)
        pieces = []  # (c, s, t, exponents of S_2 .. S_k)
        for c, exps in [(one, (0,) * k + (step.power,))] + [
                (ctx.rep(t.coeff), t.exps[:k + 1]) for t in step.tail]:
            if not is_zero(c):
                pieces.append((c, sum(map(operator.mul, exps, orders)),
                               sum(map(operator.mul, exps, units)),
                               exps[2:]))
        low_x = min(piece[1] for piece in pieces)
        low_u = min(piece[2] for piece in pieces)
        pieces = [(c, s - low_x, t - low_u, strict)
                  for c, s, t, strict in pieces]
        key = _sum_of_pieces(ctx, pieces, key_power, powers)

        # X-order and y1-degree that the key must have, from the levels
        # below: the source powers at levels 1..k and 2..k
        expected_drop = orders[k] * step.power
        if k > 1:
            degree *= step.power
        x_order = key.x_order()
        drop = low_x + x_order
        if drop != expected_drop:
            raise TransformError(
                "exceptional power of key %d is %d, expected %d"
                % (k + 1, drop, expected_drop))
        if x_order:
            key = key.shift(-x_order, 0)
        unit_order = low_u
        if sum(not t for _, _, t, _ in pieces) > 1:
            # U divides the sum exactly when it vanishes at Z = -alpha, the
            # remainder on division by Z + alpha; one piece free of U is not
            # divisible by it, since no strict transform is
            q, r = divmod_y(key, unit)
            while r.is_zero():
                key, unit_order = q, unit_order + 1
                q, r = divmod_y(key, unit)
        if not monic_of_degree(key, degree):
            raise TransformError(
                "strict transform of key %d does not normalize to a monic "
                "key of degree %d: %r" % (k + 1, degree, key))
        # the recentered parameter must BE the transported key; a leftover
        # unit factor cannot be absorbed polynomially
        if k == 1 and key != ctx.y():
            raise TransformError(
                "strict transform of key 2 is %r, not the recentered "
                "parameter; the chart change is not polynomial" % key)
        orders.append(drop)
        units.append(unit_order)
        values.append(g.values[k + 1] - tmap.exceptional_value * drop)
        if k == 1:
            continue
        steps.append(step_from_tail(keys, k - 1, step.power,
                                    key - key_power(k - 1, step.power),
                                    values[-1]))
        keys.append(key)
    tmap.key_orders, tmap.unit_orders = tuple(orders), tuple(units)
    return values, keys, steps


class _UnitPowers:
    """(Z + alpha)^t in the target ring, its coefficients formed once."""

    def __init__(self, ctx, alpha):
        self.ctx, self.alpha = ctx, ctx.rep(alpha)
        self.rows = [[ctx.rep(1)]]  # coefficients of (Z + alpha)^t by Z-power

    def row(self, t):
        add, mul, alpha, rows = (self.ctx.tower.add, self.ctx.tower.mul,
                                 self.alpha, self.rows)
        while len(rows) <= t:
            row = rows[-1]
            rows.append([mul(alpha, row[0])] + [
                add(lo, mul(alpha, hi)) for lo, hi in zip(row, row[1:])]
                + [row[-1]])
        return rows[t]


def _sum_of_pieces(ctx, pieces, key_power, powers):
    """The sum of c * X^s * (Z + alpha)^t * prod S_j^e_j over the pieces
    (c, s, t, e), where S_j^e is ``key_power(j - 1, e)`` (j >= 2)."""
    parts = []
    for c, s, t, strict in pieces:
        factor = None
        for j, e in enumerate(strict, 1):
            if e:
                p = key_power(j, e)
                factor = p if factor is None else factor * p
        if t or factor is None:
            part = RingElem(ctx, {(s, i): ctx.tower.mul(c, r)
                                  for i, r in enumerate(powers.row(t))})
            parts.append((part if factor is None else part * factor, None))
        else:  # scaled in the sum
            parts.append((factor.shift(s, 0) if s else factor, c))
    return ctx.zero()._add_scaled(parts)


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
    orders = free_transform(source)[0].key_orders  # X-orders of key images
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
                 source.values[si] - target.values[0] * orders[si])
        ok = all(x == y for x, y in (jump, degree, power, value)
                 if x is not None and y is not None)
        rows.append(ShiftRow(i, si, jump, degree, power, value, ok))
    return rows


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
