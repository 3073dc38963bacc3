"""Residue-field towers: simple extensions over QQ or GF(p), exactly.

A tower starts from the rationals or a prime field and adjoins generators one
at a time, each with a monic minimal polynomial over the level below.
Elements are kept as base-field coordinates on the monomials whose degree in
each generator is below that generator's minimal-polynomial degree, so
equality is literal equality of representations.  Products read structure
constants built once per tower; every nonzero element is inverted by solving
one linear system over the base field.

Towers are small by design; exhaustive checks (irreducibility over finite
towers, span closures) are affordable and preferred over clever algorithms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import lcm
from operator import add, mul, neg, not_, sub


class NotAFieldExtension(Exception):
    """A proposed minimal polynomial has a root or a factor at its own
    level; ``root`` is the root, if one was found."""

    def __init__(self, message, root=None):
        super().__init__(message)
        self.root = root


class BaseField:
    """QQ (p == 0) or the prime field GF(p); scalar helpers for both.

    Whole rationals are kept as ints, far cheaper than Fraction arithmetic,
    and the others as Fractions; the two compare and hash alike.  ``add``,
    ``sub``, ``neg`` and ``mul`` are Python's own operators, reduced mod p
    at once, and ``is_zero`` is ``not``: every rep is canonical.
    """

    __slots__ = ("p", "add", "sub", "neg", "mul", "is_zero")

    def __init__(self, p=0):
        if p:  # trial division, which takes about 0.1 s just below 2^40
            if not 2 <= p < 2 ** 40 or any(
                    p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
                raise ValueError("characteristic must be 0 or a prime "
                                 "below 2^40")
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
        else:
            self.add, self.sub, self.neg, self.mul = add, sub, neg, mul
        self.p, self.is_zero = p, not_

    def zero(self):
        return 0

    def one(self):
        return 1

    def of(self, c):
        if isinstance(c, float):
            raise TypeError("field constants are exact; got the float %r" % c)
        if self.p:
            if isinstance(c, Fraction):
                if c.denominator % self.p == 0:
                    raise ZeroDivisionError("denominator divisible by p")
                return (c.numerator * pow(c.denominator, -1, self.p)) % self.p
            return int(c) % self.p
        return c if type(c) is int else _int_if_whole(Fraction(c))

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _int_if_whole(1 / Fraction(a))

    def elements(self):
        if not self.p:
            raise ValueError("rational base field is infinite")
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, BaseField) and self.p == other.p

    def __hash__(self):
        return hash(("BaseField", self.p))

    def __repr__(self):
        return "QQ" if self.p == 0 else "GF(%d)" % self.p


def _int_if_whole(q):
    return q.numerator if q.denominator == 1 else q


QQ = BaseField(0)


class _Level:
    __slots__ = ("name", "minpoly", "verified")

    def __init__(self, name, minpoly, verified):
        self.name = name
        self.minpoly = tuple(minpoly)  # c_0..c_{d-1} of monic u^d + ... + c_0
        self.verified = verified

    @property
    def degree(self):
        return len(self.minpoly)


def _structure_constants(base, levels, exps):
    """table[i][j] lists the (k, c) with e_i * e_j = sum of c * e_k.

    A product of basis monomials is reduced from the top level down: a_l^d
    (d the degree of level l) becomes minus the rest of level l's minimal
    polynomial, whose coefficients only carry exponents of lower levels.
    """
    index = {e: i for i, e in enumerate(exps)}
    k = len(levels)
    rules = []  # per level: (exponent shift, coefficient) replacing a_l^d
    for l, level in enumerate(levels):
        tail = (0,) * (k - l - 1)
        rules.append([(exps[i][:l] + (m - level.degree,) + tail, base.neg(x))
                      for m, c in enumerate(level.minpoly)
                      for i, x in enumerate(c if l else [c]) if x])

    def reduce(e):
        poly = {e: base.one()}
        for l in reversed(range(k)):
            d = levels[l].degree
            while (over := next((f for f in poly if f[l] >= d),
                                None)) is not None:
                c = poly.pop(over)
                for shift, r in rules[l]:
                    f = tuple(map(add, over, shift))
                    poly[f] = base.add(poly.get(f, 0), base.mul(c, r))
        return [(index[f], c) for f, c in poly.items() if c]

    return [[reduce(tuple(map(add, a, b))) for b in exps] for a in exps]


class ResidueTower:
    """A tower of simple field extensions over QQ or GF(p).

    At height 0 an element's rep is a base scalar.  Above it, the rep is
    the list of its base-field coordinates on the monomials a_1^e_1 ...
    a_k^e_k (e_l below the degree of level l), a_1 fastest: a prefix
    tower's rep is a leading slice.  Products read a structure-constant
    table built once per tower from the minimal polynomials; an inverse
    solves a * y = 1 on the coordinates.
    """

    def __init__(self, base=QQ, levels=()):
        self.base = base
        self.levels = tuple(levels)
        degs = [level.degree for level in self.levels]
        # the exponents of each coordinate's monomial, a_1 fastest
        self._exps = [e[::-1] for e in product(*map(range, reversed(degs)))]
        self.one_rep = self.scalar(1).rep  # read, never handed to an element
        # arithmetic on raw reps, bound once
        b = base
        if not self.levels:
            self.add, self.sub, self.neg, self.mul, self.inv, self.is_zero = (
                b.add, b.sub, b.neg, b.mul, b.inv, b.is_zero)
            return
        self._table = _structure_constants(b, self.levels, self._exps)
        self.add = lambda x, y: list(map(b.add, x, y))
        self.sub = lambda x, y: list(map(b.sub, x, y))
        self.neg = lambda x: list(map(b.neg, x))
        self.mul, self.inv = self._product, self._inverse
        self.is_zero = lambda x: not any(x)  # coordinates are canonical

    def _product(self, x, y):
        out = [0] * len(x)
        for row, a in zip(self._table, x):
            if a:
                for entries, b in zip(row, y):
                    if b:
                        ab = a * b
                        for k, c in entries:
                            out[k] += ab * c
        p = self.base.p
        return [c % p for c in out] if p else out

    def _inverse(self, x):
        n = len(x)
        solver = LinearSolver(self.base)
        for j in range(n):  # the columns x * e_j
            solver.add(self._product(x, [0] * j + [1] + [0] * (n - j - 1)))
        sol = solver.solve([1] + [0] * (n - 1))
        if sol is None:
            raise ZeroDivisionError(
                "element not invertible (reducible level?)" if any(x)
                else "inverse of zero tower element")
        y = [0] * n
        for j, c in sol.items():
            y[j] = c
        return y

    # -- structure ---------------------------------------------------------

    @property
    def height(self):
        return len(self.levels)

    def degree(self):
        return len(self._exps)

    def level_names(self):
        return tuple(level.name for level in self.levels)

    def unverified_levels(self):
        """Names of levels whose minimal polynomial was assumed irreducible."""
        return tuple(level.name for level in self.levels if not level.verified)

    def is_prefix_of(self, other):
        return (self.base == other.base and self.height <= other.height
                and all(a.name == b.name and a.minpoly == b.minpoly
                        for a, b in zip(self.levels, other.levels)))

    def __eq__(self, other):
        return (isinstance(other, ResidueTower) and self.base == other.base
                and self.level_names() == other.level_names()
                and all(a.minpoly == b.minpoly
                        for a, b in zip(self.levels, other.levels)))

    def __hash__(self):
        return hash((self.base, self.level_names()))

    def __repr__(self):
        if not self.levels:
            return repr(self.base)
        return "%r(%s)" % (self.base, ", ".join(self.level_names()))

    # -- element constructors ----------------------------------------------

    def zero(self):
        return self.scalar(0)

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        c = self.base.of(c)
        return TowerElem(self, [c] + [0] * (self.degree() - 1)
                         if self.levels else c)

    def gen(self, which):
        """Generator of the named (or indexed) level, viewed at the top."""
        if isinstance(which, str):
            for i, level in enumerate(self.levels):
                if level.name == which:
                    which = i
                    break
            else:
                raise KeyError("no tower level named %r" % which)
        rep = [0] * self.degree()
        rep[self._exps.index(tuple(int(l == which)
                                   for l in range(self.height)))] = 1
        return TowerElem(self, rep)

    def lift(self, elem):
        """Re-home an element of a prefix tower into this tower."""
        if elem.tower is self or elem.tower == self:
            return TowerElem(self, elem.rep)
        if not elem.tower.is_prefix_of(self):
            raise ValueError("element tower is not a prefix of the target tower")
        rep = elem.to_vector()
        return TowerElem(self, rep + [0] * (self.degree() - len(rep)))

    def elements(self):
        """All elements; finite towers only (exhaustive checks).

        They come in lexicographic order of the coordinate vector.
        """
        for v in product(self.base.elements(), repeat=self.degree()):
            yield TowerElem(self, list(v) if self.levels else v[0])

    # -- extension ----------------------------------------------------------

    def extend(self, name, minpoly_coeffs):
        """Adjoin a generator with the given monic minimal polynomial.

        ``minpoly_coeffs`` lists c_0..c_{d-1} of u^d + c_{d-1} u^{d-1} + ... +
        c_0 with coefficients at the current top level.  Fails with
        :class:`NotAFieldExtension` when :meth:`_factor` finds a root or a
        factor at this level; records an "irreducibility assumed" flag when
        its search is not exhaustive.
        """
        if name in self.level_names():
            raise ValueError("duplicate tower level name %r" % name)
        coeffs = [self._coerce(c) for c in minpoly_coeffs]
        if len(coeffs) < 2:
            raise NotAFieldExtension(
                "degree-1 adjunction is disallowed; absorb the element below")
        factor, exhaustive = self._factor(coeffs)
        if factor is not None and len(factor) == 2:
            root = TowerElem(self, self.neg(factor[0]))
            raise NotAFieldExtension(
                "minimal polynomial for %r has root %r at its own level"
                % (name, root), root=root)
        if factor is not None:
            raise NotAFieldExtension(
                "minimal polynomial for %r has a factor of degree %d at its "
                "own level" % (name, len(factor) - 1))
        level = _Level(name, [c.rep for c in coeffs], exhaustive)
        return ResidueTower(self.base, self.levels + (level,))

    def _coerce(self, c):
        if isinstance(c, TowerElem):
            return self.lift(c)
        return self.scalar(c)

    def _factor(self, coeffs):
        """(factor, exhaustive) for u^d + ... + c_0, ``coeffs`` its c_i.

        ``factor`` is a monic factor of degree 1 to d/2 (reps, low degree
        first) or None; ``exhaustive`` says that None proves irreducibility.
        A finite tower tries every root u - x, then every monic factor.  Over
        Q, with rational coefficients, it tries the rational root candidates
        and, for a quartic, Kronecker's quadratic candidates; that search is
        exhaustive at height 0 up to degree 4.  :meth:`_divides` confirms
        each candidate.
        """
        one, d = self.one_rep, len(coeffs)
        if self.base.p:
            elems = [e.rep for e in self.elements()]
            cands = chain(([self.neg(x), one] for x in elems),
                          (list(c) + [one] for k in range(2, d // 2 + 1)
                           for c in product(elems, repeat=k)))
            exhaustive = True
        elif all(c.is_rational() for c in coeffs):
            q = [c.as_rational() for c in coeffs]
            cands = ([self.scalar(c).rep for c in f] + [one] for f in chain(
                ([-x] for x in _rational_root_candidates(q)),
                _quadratic_candidates(q) if d == 4 else ()))
            exhaustive = d <= 4 and not self.levels
        else:
            return None, False
        poly = [c.rep for c in coeffs] + [one]
        return next((f for f in cands if self._divides(f, poly)),
                    None), exhaustive

    def _divides(self, den, num):
        """Whether monic ``den`` divides ``num`` (reps, low degree first)."""
        num, d = list(num), len(den) - 1
        for e in range(len(num) - 1, d - 1, -1):
            q = num[e]
            for i in range(d):
                num[e - d + i] = self.sub(num[e - d + i], self.mul(q, den[i]))
        return all(map(self.is_zero, num[:d]))


def _rational_root_candidates(coeffs):
    den = lcm(*(c.denominator for c in coeffs))
    scaled = [int(c * den) for c in coeffs] + [den]
    a0, lead = scaled[0], scaled[-1]
    if a0 == 0:
        yield Fraction(0)
        a0 = next((c for c in scaled if c), lead)
    seen = set()
    for p in _divisors(abs(a0)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in seen:
                    seen.add(cand)
                    yield cand


def _quadratic_candidates(coeffs):
    """[c, b] of each u^2 + b u + c that may divide a rational monic quartic
    with no rational root (Kronecker).

    F(u) = D^4 f(u / D), D the lcm of the denominators, is monic over the
    integers, so by Gauss a factorization of f is one of F into integral
    monic quadratics, and the values C and 1 + B + C of a factor
    u^2 + B u + C at 0 and 1 divide F(0) and F(1), neither of them 0.
    """
    den = lcm(*(c.denominator for c in coeffs))
    f = [int(c * den ** (4 - i)) for i, c in enumerate(coeffs)]
    signed = [[s * e for e in _divisors(n) for s in (1, -1)]
              for n in (f[0], sum(f) + 1)]
    for c, g1 in product(*signed):
        yield [Fraction(c, den * den), Fraction(g1 - 1 - c, den)]


def _divisors(n):
    n = abs(n)
    if n == 0:
        return []
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def power(base, n, one):
    """``base ** n`` for ``n >= 0`` by binary powering (``one`` for n = 0).

    It squares only while bits of n remain and never multiplies by ``one``.
    """
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


class TowerElem:
    """Canonical-form element of a :class:`ResidueTower`."""

    __slots__ = ("tower", "rep")

    def __init__(self, tower, rep):
        self.tower = tower
        self.rep = rep

    def _pair(self, other):
        """The raw rep of an element of this tower or of a base scalar."""
        if isinstance(other, TowerElem):
            if other.tower is self.tower or other.tower == self.tower:
                return other.rep
            raise ValueError("elements of different towers; move one into "
                             "the other with ResidueTower.lift")
        return self.tower.scalar(other).rep

    def __add__(self, other):
        return TowerElem(self.tower, self.tower.add(self.rep, self._pair(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return TowerElem(self.tower, self.tower.sub(self.rep, self._pair(other)))

    def __neg__(self):
        return TowerElem(self.tower, self.tower.neg(self.rep))

    def __mul__(self, other):
        return TowerElem(self.tower, self.tower.mul(self.rep, self._pair(other)))

    __rmul__ = __mul__

    def inverse(self):
        return TowerElem(self.tower, self.tower.inv(self.rep))

    def __truediv__(self, other):
        t = self.tower
        return TowerElem(t, t.mul(self.rep, t.inv(self._pair(other))))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, self.tower.one())

    def is_zero(self):
        return self.tower.is_zero(self.rep)

    def __eq__(self, other):
        try:
            o = self._pair(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.tower.is_zero(self.tower.sub(self.rep, o))

    def __hash__(self):
        rep = self.rep
        return hash((self.tower, tuple(rep) if self.tower.levels else rep))

    # -- vector view ---------------------------------------------------------

    def to_vector(self):
        """Coordinates over the base field in the monomial basis."""
        return list(self.rep) if self.tower.levels else [self.rep]

    def levels_used(self):
        """Smallest prefix height whose subfield contains this element."""
        if not self.tower.levels:  # LocalRingCtx.rep calls it per coefficient
            return 0
        exps = self.tower._exps
        return max((l + 1 for i, c in enumerate(self.rep) if c
                    for l, e in enumerate(exps[i]) if e), default=0)

    def is_rational(self):
        return self.levels_used() == 0

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("element is not in the base field")
        c = self.to_vector()[0]
        return c if self.tower.base.p else Fraction(c)

    def __repr__(self):
        terms = []
        names = self.tower.level_names()
        for exps, c in sorted((e, c) for e, c in
                              zip(self.tower._exps, self.to_vector()) if c):
            mono = "*".join(
                n if e == 1 else "%s^%d" % (n, e)
                for n, e in zip(names, exps) if e
            )
            if mono:
                terms.append(mono if c == self.tower.base.one()
                             else "%s*%s" % (c, mono))
            else:
                terms.append(str(c))
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# exact linear algebra over the base field for tower coordinate vectors
# ---------------------------------------------------------------------------

class LinearSolver:
    """Incremental exact Gaussian elimination with expression tracking.

    Vectors live over the tower's base field, given as lists or as sparse
    dicts {coordinate: scalar}.  Rows are kept sparse, each scaled once, as
    it is added, so that its pivot is 1.  ``add`` returns True when the
    vector enlarges the span; ``solve`` expresses a target as a combination
    of the added vectors (by their insertion index) or returns None.
    """

    def __init__(self, base):
        self.base = base
        self.rows = []  # (pivot, reduced row {coordinate: scalar}, combination)
        self.count = 0

    def _reduce(self, vec, rows):
        b = self.base
        combo = {self.count: b.one()}
        vec = dict(vec if isinstance(vec, dict) else enumerate(vec))
        for piv, row, row_combo in rows:
            c = vec.get(piv, 0)
            if b.is_zero(c):
                continue
            for i, r in row.items():
                vec[i] = b.sub(vec.get(i, 0), b.mul(c, r))
            for k, v in row_combo.items():
                combo[k] = b.sub(combo.get(k, 0), b.mul(c, v))
        return {i: c for i, c in vec.items() if not b.is_zero(c)}, combo

    def add(self, vec):
        vec, combo = self._reduce(vec, self.rows)
        self.count += 1
        if not vec:
            return False
        piv = next(iter(vec))
        inv, mul = self.base.inv(vec[piv]), self.base.mul
        self.rows.append((piv, {i: mul(inv, c) for i, c in vec.items()},
                          {k: mul(inv, v) for k, v in combo.items()}))
        return True

    @property
    def rank(self):
        return len(self.rows)

    def solve(self, target, rank=None):
        """Coefficients {index: scalar} with sum coeff_i * vec_i = target,
        on the first ``rank`` rows when given: rows are only appended, so
        they span what the solver spanned at that rank."""
        rows = self.rows if rank is None else self.rows[:rank]
        vec, combo = self._reduce(target, rows)
        if vec:
            return None
        # the reduction is target - sum coeff_i * vec_i, tagged with the
        # target's would-be index
        del combo[self.count]
        return {k: self.base.neg(v) for k, v in combo.items()
                if not self.base.is_zero(v)}


def span_closure(tower, generators, closure=None):
    """Base-field basis of the subfield generated by ``generators``.

    Returns (elements, solver): a multiplicatively closed base-spanning set
    and the solver holding their vectors.  Given ``closure``, such a pair
    for a subfield K, it is extended in place to K(generators): K's basis
    times the monomials in the new generators spans that field.
    """
    gens = [tower.lift(g) if isinstance(g, TowerElem) else tower.scalar(g)
            for g in generators]
    if closure is None:
        closure = [tower.one()], LinearSolver(tower.base)
        closure[1].add(closure[0][0].to_vector())
    basis, solver = closure
    frontier = list(basis)
    while frontier:
        new = []
        for b in frontier:
            for g in gens:
                p = b * g
                if solver.add(p.to_vector()):
                    basis.append(p)
                    new.append(p)
        frontier = new
    return basis, solver

