"""Quadratic transforms along a valuation and transported sequences.

The atomic operation is the composite transform determined by the first
level of the sequence: with jump n and unit exponent w (coprime), pick
a, b with n*b - w*a = 1 and pass to the chart

    x = X^n * U^a,   y = X^w * U^b,

where U has value zero and residue alpha.  Recentering Z = U - alpha gives
regular parameters (X, Z) of the target ring.  The chart has determinant
1, so distinct terms of f land on distinct monomials X^s U^t and nothing
cancels: the exceptional and unit powers, and so the strict transform,
are read off the chart exponents, with no division.

Everything the map sends to the target is a sum of pieces
c * X^s * (Z + alpha)^t * prod S_j^e_j, summed by :func:`_sum_of_pieces`
over the map's one list of powers of Z + alpha.  A polynomial in x, y is
an expansion on P_0 = x and P_1 = y, so its pieces carry no S factor:
x^i y^j is the piece X^(n*i + w*j) (Z + alpha)^(a*i + b*j).

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
from .ring import (LocalRingCtx, NotMonomial, SeriesEmbedding, _powers,
                   _rescaled, _series, divmod_y)
from .values import INFINITE


class TransformError(Exception):
    """The transform cannot be built from the declared data."""


class TransformMap:
    """One composite transform: chart data, recentering, and images."""

    __slots__ = ("source_ctx", "target_ctx", "nbar", "w", "a", "b",
                 "alpha_lift", "exceptional_value", "key_orders",
                 "unit_orders", "unit_powers")

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
        # [1, Z + alpha, (Z + alpha)^2, ...], extended as far as a sum needs
        self.unit_powers = [target_ctx.one(),
                            target_ctx.y() + target_ctx.const(alpha_lift)]

    @property
    def x_image(self):
        """The image X^n * (Z + alpha)^a of x."""
        return self.to_target(self.source_ctx.x())

    @property
    def y_image(self):
        """The image X^w * (Z + alpha)^b of y."""
        return self.to_target(self.source_ctx.y())

    def _pieces(self, f):
        """f's chart pieces: x^i y^j goes to X^(n*i + w*j) U^(a*i + b*j),
        one piece per term (the map is injective), coefficient reps as is."""
        if f.ctx is not self.source_ctx:
            raise ValueError("element does not live in the source ring")
        n, w, a, b = self.nbar, self.w, self.a, self.b
        return [(c, n * i + w * j, a * i + b * j, ())
                for (i, j), c in f.terms.items()]

    def to_target(self, f):
        """Image of a source element in the target chart (exact)."""
        return _sum_of_pieces(self, self._pieces(f))

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

    The images x = X^n * U^a, y = X^w * U^b share the unit U = Z + alpha,
    so an element is the sum of its chart pieces X^s (Z + alpha)^t over the
    map's powers of Z + alpha: the element substituting the images gives,
    at a fraction of the cost on long keys.  The images are the map's own,
    formed when read: the detector reads closed forms instead.
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

    def monomial_form(self):
        # v / X^w = (Z + alpha)^b is a unit, alpha a residue: no check needed
        return NotMonomial("f is a unit (v is monomial in x)")

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
    unit = tmap.unit_powers[1]
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
        low_x, low_u, key = _lowered_sum(tmap, pieces, key_power)

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
        if sum(t == low_u for _, _, t, _ in pieces) > 1:
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
        tail = key - key_power(k - 1, step.power)
        steps.append(step_from_tail(keys, k - 1, step.power, tail, values[-1]))
        keys.append(key)
    tmap.key_orders, tmap.unit_orders = tuple(orders), tuple(units)
    return values, keys, steps


def _lowered_sum(tmap, pieces, key_power=None):
    """(m, d, h): the least X- and U-powers m and d among the pieces, and
    their sum h divided by X^m * U^d; a strict transform up to its unit."""
    low_x = min(piece[1] for piece in pieces)
    low_u = min(piece[2] for piece in pieces)
    return low_x, low_u, _sum_of_pieces(
        tmap, [(c, s - low_x, t - low_u, strict)
               for c, s, t, strict in pieces], key_power)


def _sum_of_pieces(tmap, pieces, key_power=None):
    """The sum of c * X^s * (Z + alpha)^t * prod S_j^e_j over the pieces
    (c, s, t, e), where S_j^e is ``key_power(j - 1, e)`` (j >= 2) and
    (Z + alpha)^t is ``tmap.unit_powers[t]``.

    Pieces free of S are grouped by s: each group is one scaled sum of
    unit powers, shifted once, with no ring product.  Pieces may repeat
    (s, t); they add up.
    """
    powers, free, parts = tmap.unit_powers, {}, []
    _powers(powers, max((piece[2] for piece in pieces), default=0))
    for c, s, t, strict in pieces:
        factor = None
        for j, e in enumerate(strict, 1):
            if e:
                p = key_power(j, e)
                factor = p if factor is None else factor * p
        if factor is None:
            free.setdefault(s, []).append((powers[t], c))
            continue
        if t:
            factor = powers[t] * factor
        parts.append((factor.shift(s, 0) if s else factor, c))
    zero = tmap.target_ctx.zero()
    for s, row in free.items():
        part = zero._add_scaled(row)
        parts.append((part.shift(s, 0) if s else part, None))
    return zero._add_scaled(parts)


def _transport_oracle(g, tmap):
    """X -> x^b * y^-a, Z -> x^-w * y^n - alpha, formed on g's oracle grid."""
    if g.oracle is None:
        return None
    emb = g.oracle
    px, py = (emb._power_lists[name] for name in g.ctx.param_names)
    _powers(px, max(tmap.b, tmap.w))
    _powers(py, max(tmap.a, tmap.nbar))
    x1 = px[tmap.b] * py[tmap.a].inverse()
    y1 = py[tmap.nbar] * px[tmap.w].inverse()
    tower = x1.tower
    z1 = y1 - _series(tower, {0: tower.lift(tmap.alpha_lift).rep}, y1.trunc)
    d = emb._grid
    x1, z1 = (_rescaled(s, lambda e: Fraction(e, d)) for s in (x1, z1))
    Xn, Zn = tmap.target_ctx.param_names
    try:
        return SeriesEmbedding(tmap.target_ctx, {Xn: x1, Zn: z1},
                               normalization=(Xn, tmap.exceptional_value))
    except ValueError:
        return None  # truncation too shallow to normalize; drop the oracle


def strict_transform(f, tmap):
    """Strict transform of f: image with the exceptional factor removed.

    Strict transforms are defined only up to a unit, so the unit factor
    (Z + alpha)^k, the power of U in the chart, is cleared with the
    exceptional one, as for a key, and the lex-lowest coefficient is
    scaled to 1 for determinism.
    """
    if f.is_zero():
        raise ValueError("strict transform of zero")
    return _lowered_sum(tmap, tmap._pieces(f))[2].leading_unit_normalized()


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
