"""Elements of two-dimensional regular local rings as bivariate polynomials.

The model is deliberately polynomial, not power-series: expansions against
key polynomials are exact, units are polynomials with nonzero constant term,
and the only series in sight is the truncated evaluation oracle used to
recompute values and residues independently.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from .towers import TowerElem, _int_if_whole, power, span_closure
from .values import INSUFFICIENT_PRECISION, Value


# Height-0 products of at least this many term pairs go through
# _packed_product, smaller ones through the dict loop of RingElem.__mul__.
# Measured on the products the perfbench workloads and their depth probes
# form (CPython 3.11, 2-core shared host, best of 9), packed against the
# dict loop: 0.93x at 1164 pairs (12 x 97 terms), 1.3x at 2037, 2.2x at
# 6208.  Squares pair each two rows once and cross earlier: 1.04x at 576
# (24^2), 1.2x at 784 (28^2) and 23x at 2.0M (the depth-7 chain key).
# Lopsided products cross later (4 x 369 terms, 1476 pairs: 0.6-0.8x).
PACKED_MIN_PAIRS = 1024


class NotRegularAfterSubstitution(Exception):
    """A monomial shift left a negative exponent behind."""


class LocalRingCtx:
    """Context for a two-dimensional regular local ring.

    ``tower`` carries the residue data of the whole scenario; the ring's own
    residue field is the prefix of the first ``ring_levels`` levels.
    """

    __slots__ = ("tower", "ring_levels", "param_names")

    def __init__(self, tower, param_names=("x", "y"), ring_levels=None):
        if param_names[0] == param_names[1]:
            raise ValueError("parameter names must be distinct")
        self.tower = tower
        self.param_names = tuple(param_names)
        self.ring_levels = tower.height if ring_levels is None else ring_levels

    def zero(self):
        return RingElem(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        return self.monomial(0, 0, c)

    def monomial(self, i, j, c=1):
        """The term c x^i y^j."""
        return RingElem(self, {(i, j): self.rep(c)})

    def rep(self, c):
        """The raw rep of ``c``; every coefficient enters a ring through here.

        ``c`` is a base scalar or an element of a prefix of the tower.
        """
        if isinstance(c, TowerElem):
            c = self.tower.lift(c)
            if c.levels_used() > self.ring_levels:
                raise ValueError(
                    "coefficient %r uses tower levels beyond the ring's "
                    "residue field" % c)
        else:
            c = self.tower.scalar(c)
        return c.rep

    def coeff(self, rep):
        """The tower element of a raw coefficient rep of this ring."""
        return TowerElem(self.tower, rep)

    def residue_field(self):
        """(basis, solver) of the ring's residue field, from
        :func:`span_closure`; callers may extend the pair in place."""
        tower = self.tower
        return span_closure(tower, map(tower.gen, range(self.ring_levels)))

    def residue_rank(self):
        """Base-field rank of the ring's residue field: the closure of the
        first ``ring_levels`` generators is their monomial basis."""
        return prod(lvl.degree for lvl in self.tower.levels[:self.ring_levels])

    def x(self):
        return self.monomial(1, 0)

    def y(self):
        return self.monomial(0, 1)


class RingElem:
    """Bivariate polynomial over the tower; no zero coefficients stored.

    ``terms`` maps exponent pairs (i, j) to raw reps of ``ctx.tower`` (see
    towers.py), computed on with the tower's bound operations; at height 0
    products, sums and division add up raw numbers and reduce each
    coefficient mod p once, in :func:`_canonical`.  ``ctx.coeff`` turns a
    rep into its element.
    """

    __slots__ = ("ctx", "terms", "plan")

    def __init__(self, ctx, terms):
        self.ctx = ctx
        self.terms = _canonical(terms, ctx.tower)
        self.plan = None  # see division_plan

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RingElem):
            if other.ctx is not self.ctx:
                raise ValueError("ring elements from different contexts")
            return other
        return self.ctx.const(other)

    def __add__(self, other):
        return self._add_scaled([(self._coerce(other), None)])

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __neg__(self):
        neg = self.ctx.tower.neg
        return RingElem(self.ctx, {e: neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        tower, out = self.ctx.tower, {}
        if not tower.levels:
            if len(self.terms) * len(other.terms) >= PACKED_MIN_PAIRS:
                return _packed_product(self, other)
            get = out.get
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    e = (i1 + i2, j1 + j2)
                    out[e] = get(e, 0) + c1 * c2
        else:
            add, mul = tower.add, tower.mul
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    e = (i1 + i2, j1 + j2)
                    p = mul(c1, c2)
                    s = out.get(e)
                    out[e] = p if s is None else add(s, p)
        return RingElem(self.ctx, out)

    __rmul__ = __mul__

    def _add_scaled(self, pairs):
        """self + sum of c * p over the pairs (p, c) in one pass.

        ``c`` is a raw rep of the tower, or None for 1.
        """
        tower, out = self.ctx.tower, dict(self.terms)
        if not tower.levels:
            get = out.get
            for p, c in pairs:
                for e, a in p.terms.items():
                    out[e] = get(e, 0) + (a if c is None else a * c)
        else:
            add, mul = tower.add, tower.mul
            for p, c in pairs:
                for e, a in p.terms.items():
                    prod = a if c is None else mul(a, c)
                    s = out.get(e)
                    out[e] = prod if s is None else add(s, prod)
        return RingElem(self.ctx, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers are not ring elements")
        return power(self, n, None) if n else self.ctx.one()

    def __eq__(self, other):
        if not isinstance(other, RingElem):
            try:
                other = self.ctx.const(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        # reps above height 0 are lists; equal elements share their exponents
        return hash(frozenset(self.terms))

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_unit(self):
        return (0, 0) in self.terms

    def constant_term(self):
        c = self.terms.get((0, 0))
        return self.ctx.tower.zero() if c is None else self.ctx.coeff(c)

    # -- shape helpers -------------------------------------------------------

    def y_degree(self):
        return max((j for _, j in self.terms), default=-1)

    def x_order(self):
        """Largest power of x dividing the element (0 for zero-free use)."""
        return min((i for i, _ in self.terms), default=0)

    def shift(self, di, dj):
        if min(di, dj) < 0 and any(i + di < 0 or j + dj < 0
                                   for i, j in self.terms):
            raise NotRegularAfterSubstitution(
                "negative exponent after monomial shift")
        f = object.__new__(RingElem)  # the terms are nonzero already
        f.ctx = self.ctx
        f.terms = {(i + di, j + dj): c for (i, j), c in self.terms.items()}
        f.plan = None
        return f

    def leading_unit_normalized(self):
        """Divide by the coefficient of the lex-smallest exponent pair."""
        if not self.terms:
            return self
        tower = self.ctx.tower
        inv = tower.inv(self.terms[min(self.terms)])
        return RingElem(self.ctx, {e: tower.mul(c, inv)
                                   for e, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        xn, yn = self.ctx.param_names
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            mono = "*".join(s for s in (
                _pow_str(xn, i), _pow_str(yn, j)) if s)
            cs = repr(self.ctx.coeff(c))
            if mono and cs == "1":
                parts.append(mono)
            elif mono and cs == "-1":
                parts.append("-" + mono)
            elif mono:
                cs = "(%s)" % cs if ("+" in cs or " " in cs) else cs
                parts.append("%s*%s" % (cs, mono))
            else:
                parts.append("(%s)" % cs if "+" in cs else cs)
        return " + ".join(parts).replace("+ -", "- ")


def _canonical(sums, tower):
    """``sums`` of raw reps without zeros: at height 0 each sum is reduced
    mod p first, and over QQ a whole Fraction becomes its int."""
    if tower.levels:
        is_zero = tower.is_zero
        return {e: c for e, c in sums.items() if not is_zero(c)}
    if p := tower.base.p:
        return {e: r for e, c in sums.items() if (r := c % p)}
    return {e: c if type(c) is int else _int_if_whole(c)
            for e, c in sums.items() if c}


def _packed_product(f, g):
    """f * g at height 0 by Kronecker substitution on the y-rows.

    Each y-row sum c_i x^i of an operand becomes the int sum c_i 2^(b(i-lo)),
    lo the row's least x-exponent, and each pair of rows is one int product.
    An output coefficient sums at most min(#f, #g) products of coefficients,
    so with b = bits(max|f|) + bits(max|g|) + bits(min(#f, #g)) + 1 it lies
    below 2^(b-1) and x -> 2^b is an exact map Z[x] -> Z on every row.
    Over QQ each operand is first scaled to integers by the lcm of its
    denominators, and the product divided by both.  A square pairs each
    two distinct rows once and doubles their product.
    """
    (fs, fd), (gs, gd) = _integral(f), _integral(g)
    b = (_max_bits(fs) + _max_bits(gs)
         + min(len(fs), len(gs)).bit_length() + 1)
    w = -(-b // 8)  # whole bytes per slot, so rows unpack by byte slices
    b = 8 * w
    frows = _packed_rows(fs, b)
    if f is g:  # a square: each pair of distinct rows once, doubled
        twice = [(j, lo, n << 1) for j, lo, n in frows]
        plan = [(r, [r] + twice[k + 1:]) for k, r in enumerate(frows)]
    else:
        grows = _packed_rows(gs, b)
        plan = [(r, grows) for r in frows]
    lows = {}  # output row -> its least x-exponent
    for (j1, lo1, _), partners in plan:
        for j2, lo2, _ in partners:
            j, lo = j1 + j2, lo1 + lo2
            if lows.get(j, lo) >= lo:
                lows[j] = lo
    sums = dict.fromkeys(lows, 0)
    for (j1, lo1, n1), partners in plan:
        for j2, lo2, n2 in partners:
            j = j1 + j2
            sums[j] += n1 * n2 << b * (lo1 + lo2 - lows[j])
    # read each row back as signed base-2^b digits: adding half = 2^(b-1)
    # to every slot makes them the plain bytes of the biased sum
    out, half, biased = {}, 1 << (b - 1), bytes(w - 1) + b"\x80"
    for j, n in sums.items():
        slots = abs(n).bit_length() // b + 1
        data = (n + int.from_bytes(biased * slots, "little")).to_bytes(
            slots * w, "little")
        lo = lows[j]
        for k in range(slots):
            d = int.from_bytes(data[k * w:k * w + w], "little")
            if d != half:
                out[(lo + k, j)] = d - half
    den = fd * gd
    if den > 1:
        for e, c in out.items():
            out[e] = Fraction(c, den)
    return RingElem(f.ctx, out)


def _integral(f):
    """(terms, d): f's height-0 terms times d, the lcm of their
    denominators, as ints (d is 1 over GF(p) and for whole terms)."""
    if all(type(c) is int for c in f.terms.values()):
        return f.terms, 1
    d = lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (d // c.denominator)
            for e, c in f.terms.items()}, d


def _max_bits(terms):
    return max(map(abs, terms.values()), default=0).bit_length()


def _packed_rows(terms, b):
    """[(j, lo, n)]: each y-row of ``terms`` as the int n, the sum of
    c 2^(b(i - lo)), lo the row's least x-exponent."""
    out = []
    for j, row in _rows(terms).items():
        lo = min(row)
        out.append((j, lo, sum(c << b * (i - lo) for i, c in row.items())))
    return out


def _pow_str(name, e):
    if e == 0:
        return ""
    return name if e == 1 else "%s^%d" % (name, e)


def _rows(terms):
    """Map j -> {i: raw rep}: the terms of an element grouped by y-exponent."""
    out = {}
    for (i, j), c in terms.items():
        out.setdefault(j, {})[i] = c
    return out


def division_plan(g):
    """(d, lead, tail): what a division by g, of y-degree d, reads of g.

    ``lead`` is the inverse of g's y^d coefficient, or None when that is not
    a constant; ``tail`` is g's rows below y^d, negated, as (j - d, [(i, -c)]).
    The plan is formed at the first call and kept on g, which never changes.
    """
    if g.plan is None:
        rows, tower = _rows(g.terms), g.ctx.tower
        d = max(rows, default=-1)
        lead, neg = rows.pop(d, {}), tower.neg
        g.plan = (d, tower.inv(lead[0]) if list(lead) == [0] else None,
                  [(j - d, [(i, neg(c)) for i, c in row.items()])
                   for j, row in rows.items()])
    return g.plan


def divmod_rows(rows, plan, tower):
    """(quotient, remainder) of the y-rows ``rows``, {j: {i: rep}} with no
    zero rep, by the divisor of a :func:`division_plan` with a lead; both
    come back as such y-rows, and ``rows`` is used up.  At height 0 the rows
    hold raw sums while they are divided: a row's sums are final when it
    becomes the top row, and are reduced mod p there or, in the remainder,
    at the end.
    """
    (d, lead, tail), q = plan, {}
    mul, add, is_zero = tower.mul, tower.add, tower.is_zero
    native = not tower.levels
    while rows and (top := max(rows)) >= d:
        qrow = {}  # the top row times lead, canonical as a dividend must be
        for i, c in rows.pop(top).items():
            if not is_zero(qc := mul(c, lead)):
                qrow[i] = _int_if_whole(qc) if type(qc) is Fraction else qc
        if not qrow:
            continue
        q[top - d] = qrow
        for gj, trow in tail:  # minus qrow * y^(top - d) times g's tail
            row = rows.setdefault(top + gj, {})
            get = row.get
            if native:
                for i, qc in qrow.items():
                    for gi, gc in trow:
                        e = i + gi
                        row[e] = get(e, 0) + qc * gc
            else:
                for i, qc in qrow.items():
                    for gi, gc in trow:
                        e, m = i + gi, mul(qc, gc)
                        row[e] = m if (s := get(e)) is None else add(s, m)
    return q, rows if not q else {
        j: r for j, row in rows.items() if (r := _canonical(row, tower))}


def divmod_y(f, g):
    """Division f = q*g + r by a polynomial monic in y; deg_y r < deg_y g.

    ``g`` must have y-leading coefficient equal to a unit constant (keys
    always do); exactness is literal.
    """
    plan = division_plan(g)
    if plan[1] is None:
        raise ValueError("divisor is not monic in y (leading coeff not constant)")
    return tuple(RingElem(f.ctx, {(i, j): c for j, row in rows.items()
                                 for i, c in row.items()})
                 for rows in divmod_rows(_rows(f.terms), plan, f.ctx.tower))


def substitute(f, images):
    """Exact substitution of ring elements for parameters.

    ``images`` maps each parameter name of f's context to a RingElem, all
    in one target context.  A quadratic transform does not come through
    here: :class:`~valtool.blowup.TransformMap` sends each term to one
    piece X^s (Z + alpha)^t and sums the pieces over its powers of Z + alpha.
    """
    xn, yn = f.ctx.param_names
    if xn not in images or yn not in images:
        raise ValueError("images must cover both parameters")
    gx, gy = images[xn], images[yn]
    ctx = gx.ctx
    if gy.ctx is not ctx:
        raise ValueError("images live in different contexts")
    one = ctx.one()
    return _evaluate(f, [one, gx], [one, gy], ctx.zero(), ctx.rep)


def _evaluate(f, xp, yp, zero, lift):
    """f(gx, gy) for ring or series images: sum_j gy^j * (sum_i c_ij gx^i).

    ``xp`` and ``yp`` are the power lists ``[one, g, ...]`` of the images,
    extended here as far as f needs; ``lift`` carries each coefficient, as a
    tower element, to a raw rep of the images' tower.  Each y-row is summed
    in one pass, with one full product per y-degree.  A product's truncation
    is a min over its terms, so series results keep the term-by-term
    truncation (Horner in gy would not).
    """
    coeff = f.ctx.coeff
    rows = _rows(f.terms)
    _powers(xp, max((i for i, _ in f.terms), default=0))
    _powers(yp, max(rows, default=0))
    out = zero
    for j, row in sorted(rows.items()):
        acc = zero._add_scaled([(xp[i], lift(coeff(c)))
                                for i, c in sorted(row.items())])
        out = out + (acc if j == 0 else yp[j] * acc)
    return out


def _powers(p, n):
    """Extend the power list p = [one, g, g^2, ...] in place up to g^n."""
    g = p[1]
    while len(p) <= n:
        p.append(p[-1] * g)


# ---------------------------------------------------------------------------
# truncated series oracle
# ---------------------------------------------------------------------------

class TruncSeries:
    """Series in t with rational exponents, known exactly below ``trunc``.

    ``coeffs`` maps exponents to nonzero raw reps of ``tower``, as
    ``RingElem.terms`` does; tower elements go in at ``__init__`` and come
    out of ``leading_coeff``.
    """

    __slots__ = ("tower", "coeffs", "trunc")

    def __init__(self, tower, coeffs, trunc):
        self.tower = tower
        self.trunc = Fraction(trunc)
        self.coeffs = {Fraction(e): tower.lift(c).rep
                       for e, c in coeffs.items()
                       if not c.is_zero() and Fraction(e) < self.trunc}

    def order(self):
        """Leading exponent, or INSUFFICIENT_PRECISION for (apparent) zero."""
        if not self.coeffs:
            return INSUFFICIENT_PRECISION
        return min(self.coeffs)

    def leading_coeff(self):
        return TowerElem(self.tower, self.coeffs[min(self.coeffs)])

    def _check_tower(self, other):
        if other.tower is not self.tower and other.tower != self.tower:
            raise ValueError("series over different towers")

    def __add__(self, other):
        return self._add_scaled([(other, None)])

    def _add_scaled(self, pairs):
        """self + sum of c * p over the pairs (p, c) in one pass.

        ``c`` is a raw rep of the tower, or None for 1.  The truncation is
        the min over the terms.
        """
        add, mul = self.tower.add, self.tower.mul
        trunc = self.trunc
        for p, _ in pairs:
            self._check_tower(p)
            trunc = min(trunc, p.trunc)
        out = {e: c for e, c in self.coeffs.items() if e < trunc}
        for p, c in pairs:
            for e, a in p.coeffs.items():
                if e < trunc:
                    prod = a if c is None else mul(a, c)
                    s = out.get(e)
                    out[e] = prod if s is None else add(s, prod)
        return _series(self.tower, out, trunc)

    def __neg__(self):
        neg = self.tower.neg
        return _series(self.tower,
                       {e: neg(c) for e, c in self.coeffs.items()},
                       self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        add, mul = self.tower.add, self.tower.mul
        if isinstance(other, TowerElem):
            o = self.tower.lift(other).rep
            return _series(self.tower,
                           {e: mul(c, o) for e, c in self.coeffs.items()},
                           self.trunc)
        self._check_tower(other)
        ord_a = min(self.coeffs) if self.coeffs else self.trunc
        ord_b = min(other.coeffs) if other.coeffs else other.trunc
        trunc = min(self.trunc + ord_b, other.trunc + ord_a)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e >= trunc:
                    continue
                p = mul(c1, c2)
                s = out.get(e)
                out[e] = p if s is None else add(s, p)
        return _series(self.tower, out, trunc)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        # exact-constant start; __mul__ tracks the honest truncation
        return power(self, n, _exact(self.tower, self.tower.one()))

    def inverse(self):
        """Inverse of a series with invertible leading coefficient.

        With self = c0 t^e0 (1 + u), the coefficients of (1 + u)^-1 are
        solved term by term, b_0 = 1 and b_e = -sum_f u_f b_(e-f), over the
        sums of u's exponents below the truncation; the result equals the
        geometric series in u, and c0 is inverted once.
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverse of (apparently) zero series")
        tower = self.tower
        add, mul, neg, is_zero = tower.add, tower.mul, tower.neg, tower.is_zero
        e0 = min(self.coeffs)
        inv = self.leading_coeff().inverse().rep
        trunc = self.trunc - e0
        # (f, -u_f) by increasing f; every f is positive
        neg_u = sorted((e - e0, neg(mul(c, inv)))
                       for e, c in self.coeffs.items() if e != e0)
        # the exponents b can have: sums of u's exponents below trunc
        reach = frontier = {0}
        while frontier:
            frontier = {s for s in (e + f for e in frontier for f, _ in neg_u)
                        if s < trunc} - reach
            reach = reach | frontier
        b = {0: tower.one().rep}
        for e in sorted(reach)[1:]:
            acc = None
            for f, c in neg_u:
                if f > e:
                    break
                prev = b.get(e - f)
                if prev is not None:
                    p = mul(c, prev)
                    acc = p if acc is None else add(acc, p)
            if acc is not None and not is_zero(acc):
                b[e] = acc
        return _series(tower, {e - e0: mul(c, inv) for e, c in b.items()},
                       trunc - e0)


def _series(tower, reps, trunc):
    """A series from raw reps at Fraction exponents below ``trunc``.

    Results of arithmetic are built here, past ``TruncSeries.__init__``:
    only zeros are dropped.
    """
    s = object.__new__(TruncSeries)
    s.tower, s.trunc = tower, trunc
    is_zero = tower.is_zero
    s.coeffs = {e: r for e, r in reps.items() if not is_zero(r)}
    return s


def _exact(tower, c):
    """The constant c as a series known far past any declared truncation."""
    return TruncSeries(tower, {Fraction(0): c}, Fraction(10 ** 9))


def _rescaled(s, exp):
    """s with every exponent and its truncation mapped through ``exp``."""
    out = object.__new__(TruncSeries)
    out.tower, out.trunc = s.tower, exp(s.trunc)
    out.coeffs = {exp(e): c for e, c in s.coeffs.items()}
    return out


class SeriesEmbedding:
    """Truncated-series images of a ring's parameters: the valuation oracle.

    The value of t is normalized so that the declared parameter value holds
    (by default the first parameter gets value 1).  The images are worked
    on over one integer grid t = s^D, D the lcm of the denominators of
    their exponents and truncations, so series arithmetic adds and compares
    ints; ``images`` and ``evaluate`` stay in t units.  Each power of an
    image is formed once and kept, in one list ``[one, g, g^2, ...]`` per
    image, built from ``images`` at construction: reassigning ``images``
    afterwards has no effect.  So is each element's image, kept by element.
    """

    def __init__(self, ctx, images, normalization=None):
        self.ctx = ctx
        self.images = dict(images)
        for name in ctx.param_names:
            if name not in self.images:
                raise ValueError("embedding misses parameter %r" % name)
        if normalization is None:
            normalization = (ctx.param_names[0], Value(1))
        pname, pval = normalization
        if pname not in ctx.param_names:
            raise ValueError("normalize names no parameter %r" % pname)
        base_ord = self.images[pname].order()
        if base_ord is INSUFFICIENT_PRECISION or base_ord <= 0:
            raise ValueError("parameter image must have positive order")
        if not pval.is_rational():
            raise ValueError("normalization value must be rational")
        self.t_value = Fraction(pval.q0) / base_ord
        tower = self.images[pname].tower
        d = lcm(*(e.denominator for g in self.images.values()
                  for e in (g.trunc, *g.coeffs)))
        self._grid = d

        def on_grid(s):
            return _rescaled(s, lambda e: e.numerator * (d // e.denominator))

        one = on_grid(_exact(tower, tower.one()))
        self._zero = on_grid(_exact(tower, tower.zero()))
        self._power_lists = {name: [one, on_grid(g)]
                             for name, g in self.images.items()}
        self._lift = lambda c: tower.lift(c).rep
        self._kept = {}  # element -> its grid image

    def evaluate(self, f):
        """The image of f, in t units."""
        d = self._grid
        return _rescaled(self._grid_image(f), lambda e: Fraction(e, d))

    def _grid_image(self, f):
        """The image of f on the grid t = s^D."""
        if f.ctx is not self.ctx:
            raise ValueError("element does not live in the embedding's ring")
        s = self._kept.get(f)
        if s is None:
            xn, yn = self.ctx.param_names
            s = self._kept[f] = _evaluate(f, self._power_lists[xn],
                                          self._power_lists[yn], self._zero,
                                          self._lift)
        return s

    def residue_of_ratio(self, keys, num, den):
        """Residue of the ratio of the key monomials with exponent vectors
        ``num`` and ``den``, read off the kept images of the keys it needs:
        their leading coefficients raised to num - den, for a ratio of order
        0.  INSUFFICIENT_PRECISION when such an image shows no order."""
        read = [(self._grid_image(key), sign * e)
                for sign, exps in ((1, num), (-1, den))
                for key, e in zip(keys, exps) if e]
        if any(s.order() is INSUFFICIENT_PRECISION for s, _ in read):
            return INSUFFICIENT_PRECISION
        order = sum(e * s.order() for s, e in read)
        if order:
            raise ValueError("ratio has nonzero order %s"
                             % Fraction(order, self._grid))
        return prod(s.leading_coeff() ** e for s, e in read)


def series_value(f, emb):
    """Value of f through the truncated oracle, or INSUFFICIENT_PRECISION.

    The leading t-exponent of the image is scaled so the embedding's declared
    normalization holds; cancellation past the truncation order surfaces as
    INSUFFICIENT_PRECISION, a value-level outcome rather than a fault.
    """
    if f.is_zero():
        raise ValueError("value of zero")
    o = emb._grid_image(f).order()
    if o is INSUFFICIENT_PRECISION:
        return INSUFFICIENT_PRECISION
    return Value(Fraction(o, emb._grid) * emb.t_value)


# ---------------------------------------------------------------------------
# small polynomial / series parsers (shared by scenarios and tests)
# ---------------------------------------------------------------------------

class PolyParseError(Exception):
    def __init__(self, message, pos):
        super().__init__("%s (at column %d)" % (message, pos + 1))
        self.pos = pos


class _Tok:
    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "/"):
                j += 1
            out.append(_Tok("num", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Tok("name", text[i:j], i))
            i = j
        elif ch in "+-*^()":
            out.append(_Tok(ch, ch, i))
            i += 1
        else:
            raise PolyParseError("unexpected character %r" % ch, i)
    out.append(_Tok("end", "", len(text)))
    return out


class _PolyParser:
    """Infix polynomials over named variables with exact rational constants."""

    def __init__(self, text, ctx, var_lookup, const_lookup):
        self.toks = _tokenize(text)
        self.i = 0
        self.ctx = ctx
        self.var_lookup = var_lookup
        self.const_lookup = const_lookup

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None):
        tok = self.toks[self.i]
        if kind and tok.kind != kind:
            raise PolyParseError("expected %s, found %r" % (kind, tok.text or "end"),
                                 tok.pos)
        self.i += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise PolyParseError("trailing input %r" % tok.text, tok.pos)
        return e

    def expr(self):
        tok = self.peek()
        neg = False
        if tok.kind in "+-":
            self.take()
            neg = tok.kind == "-"
        acc = self.term()
        if neg:
            acc = -acc
        while self.peek().kind in "+-":
            op = self.take().kind
            t = self.term()
            acc = acc - t if op == "-" else acc + t
        return acc

    def term(self):
        acc = self.factor()
        while self.peek().kind in ("*",):
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self):
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            neg = False
            if self.peek().kind == "-":
                self.take()
                neg = True
            tok = self.take("num")
            if "/" in tok.text:
                raise PolyParseError("exponent must be an integer", tok.pos)
            n = int(tok.text)
            if neg:
                raise PolyParseError("negative exponents are not ring elements",
                                     tok.pos)
            return base ** n
        return base

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            try:
                return self.ctx.const(Fraction(tok.text))
            except (ValueError, ZeroDivisionError):
                raise PolyParseError("bad number %r" % tok.text,
                                     tok.pos) from None
        if tok.kind == "name":
            self.take()
            if tok.text in self.var_lookup:
                return self.var_lookup[tok.text]
            if tok.text in self.const_lookup:
                return self.const_lookup[tok.text]
            raise PolyParseError("unknown name %r" % tok.text, tok.pos)
        if tok.kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        raise PolyParseError("expected a term, found %r" % (tok.text or "end"),
                             tok.pos)


def parse_poly(text, ctx, extra_vars=None, consts=None):
    """Parse an infix polynomial in the context's parameters.

    ``extra_vars`` maps additional names to RingElems (e.g. key polynomials);
    ``consts`` maps names to tower constants.
    """
    variables = {ctx.param_names[0]: ctx.x(), ctx.param_names[1]: ctx.y()}
    if extra_vars:
        variables.update(extra_vars)
    const_elems = {n: ctx.const(c) for n, c in (consts or {}).items()}
    return _PolyParser(text, ctx, variables, const_elems).parse()
