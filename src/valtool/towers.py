"""Residue-field towers: simple extensions over QQ or GF(p), exactly.

A tower starts from the rationals or a prime field and adjoins generators one
at a time, each with a monic minimal polynomial over the level below.
Elements are kept in canonical form (degree in each generator below that
generator's minimal-polynomial degree), so equality is literal equality of
representations.  Every nonzero element is invertible by extended Euclid at
each level.

Towers are small by design; exhaustive checks (irreducibility over finite
towers, span closures) are affordable and preferred over clever algorithms.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial


class NotAFieldExtension(Exception):
    """A proposed minimal polynomial has a root at its own level."""

    def __init__(self, message, root=None):
        super().__init__(message)
        self.root = root


class BaseField:
    """QQ (p == 0) or the prime field GF(p); scalar helpers for both.

    Whole rationals are kept as ints, far cheaper than Fraction arithmetic,
    and the others as Fractions; the two compare and hash alike.
    """

    __slots__ = ("p",)

    def __init__(self, p=0):
        if p:
            if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
                raise ValueError("characteristic must be 0 or a prime")
        self.p = p

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
        return _int_if_whole(Fraction(c))

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, -1, self.p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _int_if_whole(1 / Fraction(a))

    def is_zero(self, a):
        return (a % self.p == 0) if self.p else a == 0

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


# ---------------------------------------------------------------------------
# raw nested representations: level-0 reps are base scalars, level-k reps are
# lists of length deg_k holding level-(k-1) reps
# ---------------------------------------------------------------------------

def _zero(tower, k):
    if k == 0:
        return tower.base.zero()
    return [_zero(tower, k - 1) for _ in range(tower.levels[k - 1].degree)]

def _scalar(tower, k, c):
    if k == 0:
        return tower.base.of(c)
    rep = _zero(tower, k)
    rep[0] = _scalar(tower, k - 1, c)
    return rep

def _lift(tower, rep, j, k):
    """View a level-j rep at level k >= j."""
    for level in range(j, k):
        up = _zero(tower, level + 1)
        up[0] = rep
        rep = up
    return rep

def _is_zero(tower, k, a):
    if k == 0:
        return tower.base.is_zero(a)
    return all(_is_zero(tower, k - 1, c) for c in a)

def _add(tower, k, a, b):
    if k == 0:
        return tower.base.add(a, b)
    return [_add(tower, k - 1, x, y) for x, y in zip(a, b)]

def _neg(tower, k, a):
    if k == 0:
        return tower.base.neg(a)
    return [_neg(tower, k - 1, x) for x in a]

def _sub(tower, k, a, b):
    return _add(tower, k, a, _neg(tower, k, b))

def _mul(tower, k, a, b):
    if k == 0:
        return tower.base.mul(a, b)
    deg = tower.levels[k - 1].degree
    prod = [_zero(tower, k - 1) for _ in range(2 * deg - 1)]
    for i, x in enumerate(a):
        if _is_zero(tower, k - 1, x):
            continue
        for j, y in enumerate(b):
            prod[i + j] = _add(tower, k - 1, prod[i + j], _mul(tower, k - 1, x, y))
    minpoly = tower.levels[k - 1].minpoly
    for e in range(2 * deg - 2, deg - 1, -1):
        c = prod[e]
        if _is_zero(tower, k - 1, c):
            continue
        prod[e] = _zero(tower, k - 1)
        for i, m in enumerate(minpoly):
            prod[e - deg + i] = _sub(tower, k - 1, prod[e - deg + i],
                                     _mul(tower, k - 1, c, m))
    return prod[:deg]

def _poly_divmod(tower, k, num, den):
    """Quotient and remainder of polynomials with level-k coefficients."""
    num = list(num)
    dl = len(den) - 1
    while dl >= 0 and _is_zero(tower, k, den[dl]):
        dl -= 1
    if dl < 0:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = _inv(tower, k, den[dl])
    quot = [_zero(tower, k) for _ in range(max(len(num) - dl, 0))]
    for e in range(len(num) - 1, dl - 1, -1):
        c = num[e]
        if _is_zero(tower, k, c):
            continue
        q = _mul(tower, k, c, lead_inv)
        quot[e - dl] = q
        for i in range(dl + 1):
            num[e - dl + i] = _sub(tower, k, num[e - dl + i],
                                   _mul(tower, k, q, den[i]))
    return quot, num[:dl] if dl > 0 else []

def _inv(tower, k, a):
    if k == 0:
        return tower.base.inv(a)
    if _is_zero(tower, k, a):
        raise ZeroDivisionError("inverse of zero tower element")
    # extended Euclid for gcd(a, minpoly) = 1 over the level below
    minpoly = list(tower.levels[k - 1].minpoly) + [_scalar(tower, k - 1, 1)]
    r0, r1 = minpoly, list(a)
    s0 = [_zero(tower, k - 1)]
    s1 = [_scalar(tower, k - 1, 1)]
    while True:
        t = len(r1) - 1
        while t >= 0 and _is_zero(tower, k - 1, r1[t]):
            t -= 1
        r1 = r1[: t + 1]
        if t == 0:
            break
        if t < 0:
            raise ZeroDivisionError("element not invertible (reducible level?)")
        q, rem = _poly_divmod(tower, k - 1, r0, r1)
        r0, r1 = r1, rem
        prod = [_zero(tower, k - 1) for _ in range(len(q) + len(s1) - 1)]
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                prod[i + j] = _add(tower, k - 1, prod[i + j],
                                   _mul(tower, k - 1, x, y))
        new_s = [_zero(tower, k - 1)] * max(len(s0), len(prod))
        for i in range(len(new_s)):
            x = s0[i] if i < len(s0) else _zero(tower, k - 1)
            y = prod[i] if i < len(prod) else _zero(tower, k - 1)
            new_s[i] = _sub(tower, k - 1, x, y)
        s0, s1 = s1, new_s
    c_inv = _inv(tower, k - 1, r1[0])
    deg = tower.levels[k - 1].degree
    # Bezout coefficient for a nonzero canonical element stays below deg
    if len(s1) > deg:
        raise AssertionError("unreduced Bezout coefficient in tower inverse")
    out = [_mul(tower, k - 1, c_inv, c) for c in s1]
    out += [_zero(tower, k - 1)] * (deg - len(out))
    return out


class ResidueTower:
    """A tower of simple field extensions over QQ or GF(p)."""

    def __init__(self, base=QQ, levels=()):
        self.base = base
        self.levels = tuple(levels)
        # arithmetic on raw reps at the top height, bound once
        k, b = len(self.levels), base
        self.add, self.sub, self.neg, self.mul, self.inv, self.is_zero = (
            (b.add, b.sub, b.neg, b.mul, b.inv, b.is_zero) if k == 0 else
            [partial(op, self, k)
             for op in (_add, _sub, _neg, _mul, _inv, _is_zero)])

    # -- structure ---------------------------------------------------------

    @property
    def height(self):
        return len(self.levels)

    def degree(self):
        d = 1
        for level in self.levels:
            d *= level.degree
        return d

    def level_names(self):
        return tuple(level.name for level in self.levels)

    def unverified_levels(self):
        """Names of levels whose minimal polynomial was assumed irreducible."""
        return tuple(level.name for level in self.levels if not level.verified)

    def is_prefix_of(self, other):
        if self.base != other.base or self.height > other.height:
            return False
        for mine, theirs in zip(self.levels, other.levels):
            if mine.name != theirs.name or mine.minpoly != theirs.minpoly:
                return False
        return True

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
        return TowerElem(self, _zero(self, self.height))

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        return TowerElem(self, _scalar(self, self.height, c))

    def gen(self, which):
        """Generator of the named (or indexed) level, viewed at the top."""
        if isinstance(which, str):
            for i, level in enumerate(self.levels):
                if level.name == which:
                    which = i
                    break
            else:
                raise KeyError("no tower level named %r" % which)
        level = which + 1
        rep = _zero(self, level)
        rep[1] = _scalar(self, level - 1, 1)
        return TowerElem(self, _lift(self, rep, level, self.height))

    def lift(self, elem):
        """Re-home an element of a prefix tower into this tower."""
        if elem.tower is self or elem.tower == self:
            return TowerElem(self, elem.rep)
        if not elem.tower.is_prefix_of(self):
            raise ValueError("element tower is not a prefix of the target tower")
        return TowerElem(self, _lift(self, elem.rep, elem.tower.height, self.height))

    def elements(self):
        """All elements; finite towers only (exhaustive checks)."""
        scalars = list(self.base.elements())

        def reps(k):
            if k == 0:
                for c in scalars:
                    yield c
                return
            deg = self.levels[k - 1].degree
            def combos(n):
                if n == 0:
                    yield []
                    return
                for head in reps(k - 1):
                    for tail in combos(n - 1):
                        yield [head] + tail
            yield from combos(deg)

        for rep in reps(self.height):
            yield TowerElem(self, rep)

    # -- extension ----------------------------------------------------------

    def extend(self, name, minpoly_coeffs):
        """Adjoin a generator with the given monic minimal polynomial.

        ``minpoly_coeffs`` lists c_0..c_{d-1} of u^d + c_{d-1} u^{d-1} + ... +
        c_0 with coefficients at the current top level.  Fails with
        :class:`NotAFieldExtension` when a root exists at this level; records
        an "irreducibility assumed" flag when no exhaustive check applies.
        """
        if name in self.level_names():
            raise ValueError("duplicate tower level name %r" % name)
        coeffs = [self._coerce(c) for c in minpoly_coeffs]
        if len(coeffs) < 2:
            raise NotAFieldExtension(
                "degree-1 adjunction is disallowed; absorb the element below")
        root = self._find_root(coeffs)
        if root is not None:
            raise NotAFieldExtension(
                "minimal polynomial for %r has root %r at its own level"
                % (name, root), root=root)
        verified = self._irreducibility_decided(coeffs)
        level = _Level(name, [c.rep for c in coeffs], verified)
        return ResidueTower(self.base, self.levels + (level,))

    def _coerce(self, c):
        if isinstance(c, TowerElem):
            return self.lift(c)
        return self.scalar(c)

    def _find_root(self, coeffs):
        def value_at(x):
            acc = self.one()
            total = self.zero()
            for c in coeffs:
                total = total + c * acc
                acc = acc * x
            return total + acc

        if self.base.p:
            for x in self.elements():
                if value_at(x).is_zero():
                    return x
            return None
        if all(c.is_rational() for c in coeffs):
            for x in _rational_root_candidates([c.as_rational() for c in coeffs]):
                if value_at(self.scalar(x)).is_zero():
                    return self.scalar(x)
        return None

    def _irreducibility_decided(self, coeffs):
        deg = len(coeffs)
        if self.base.p:
            if deg <= 3:
                return True
            return not self._has_proper_factor(coeffs)
        if not all(c.is_rational() for c in coeffs) or self.height > 0:
            return deg <= 1
        if deg <= 3:
            return True
        if deg == 4:
            return not _has_rational_quadratic_factor(
                [c.as_rational() for c in coeffs])
        return False

    def _has_proper_factor(self, coeffs):
        # exhaustive monic-divisor search over a finite tower
        deg = len(coeffs)
        poly = [c.rep for c in coeffs] + [_scalar(self, self.height, 1)]
        elems = [e.rep for e in self.elements()]
        k = self.height

        def search(d, prefix):
            if len(prefix) == d:
                den = list(prefix) + [_scalar(self, k, 1)]
                _, rem = _poly_divmod(self, k, poly, den)
                return all(_is_zero(self, k, c) for c in rem)
            return any(search(d, prefix + [e]) for e in elems)

        for d in range(2, deg // 2 + 1):
            if search(d, []):
                return True
        # root search already ran, so degree-1 factors are excluded
        return False


def _rational_root_candidates(coeffs):
    from math import gcd
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    scaled = [int(c * lcm) for c in coeffs] + [lcm]
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


def _has_rational_quadratic_factor(coeffs):
    # Kronecker-style search: monic integer quartic = product of two monic
    # integer quadratics, constrained by values at 0 and 1.
    from math import gcd
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    if lcm != 1:
        # non-integer monic quartics: clear by substitution x -> x/lcm
        scaled = [coeffs[i] * lcm ** (4 - i) for i in range(4)]
        if any(s.denominator != 1 for s in scaled):
            return False
        coeffs = scaled
    f = [int(c) for c in coeffs] + [1]

    def f_at(x):
        return sum(c * x ** i for i, c in enumerate(f))

    f0, f1 = f_at(0), f_at(1)
    if f0 == 0 or f1 == 0:
        return True
    for c in _divisors(f0) + [-d for d in _divisors(f0)]:
        for g1 in _divisors(abs(f1)) + [-d for d in _divisors(abs(f1))]:
            b = g1 - 1 - c
            # trial divide by x^2 + b x + c
            rem1 = f[3] - b
            rem0 = f[2] - c - b * rem1
            r1 = f[1] - c * rem1 - b * rem0
            r0 = f[0] - c * rem0
            if r0 == 0 and r1 == 0:
                return True
    return False


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

    def __rsub__(self, other):
        return (-self).__add__(other)

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
        return hash((self.tower, _freeze(self.rep)))

    # -- vector view ---------------------------------------------------------

    def to_vector(self):
        """Coordinates over the base field in the monomial basis."""
        out = []

        def walk(rep, k):
            if k == 0:
                out.append(rep)
                return
            for c in rep:
                walk(c, k - 1)

        walk(self.rep, self.tower.height)
        return out

    def levels_used(self):
        """Smallest prefix height whose subfield contains this element."""
        rep, k = self.rep, self.tower.height
        while k > 0:
            if any(not _is_zero(self.tower, k - 1, c) for c in rep[1:]):
                return k
            rep = rep[0]
            k -= 1
        return 0

    def is_rational(self):
        return self.levels_used() == 0

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("element is not in the base field")
        rep, k = self.rep, self.tower.height
        while k > 0:
            rep = rep[0]
            k -= 1
        return rep if self.tower.base.p else Fraction(rep)

    def __repr__(self):
        terms = []
        names = self.tower.level_names()
        for exps, c in sorted(self._monomials().items()):
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

    def _monomials(self):
        out = {}

        def walk(rep, k, exps):
            if k == 0:
                if not self.tower.base.is_zero(rep):
                    out[tuple(reversed(exps))] = rep
                return
            for i, c in enumerate(rep):
                walk(c, k - 1, exps + [i])

        walk(self.rep, self.tower.height, [])
        return out


def _freeze(rep):
    if isinstance(rep, list):
        return tuple(_freeze(c) for c in rep)
    return rep


# ---------------------------------------------------------------------------
# exact linear algebra over the base field for flattened tower vectors
# ---------------------------------------------------------------------------

class LinearSolver:
    """Incremental exact Gaussian elimination with expression tracking.

    Vectors live over the tower's base field.  ``add`` returns True when the
    vector enlarges the span; ``solve`` expresses a target as a combination
    of the added vectors (by their insertion index) or returns None.
    """

    def __init__(self, base):
        self.base = base
        self.rows = []      # (pivot index, reduced vector, combination dict)
        self.count = 0

    def _reduce(self, vec):
        combo = {self.count: self.base.one()}
        vec = list(vec)
        for piv, row, row_combo in self.rows:
            c = vec[piv]
            if self.base.is_zero(c):
                continue
            factor = self.base.mul(c, self.base.inv(row[piv]))
            for i, r in enumerate(row):
                vec[i] = self.base.sub(vec[i], self.base.mul(factor, r))
            for k, v in row_combo.items():
                combo[k] = self.base.sub(combo.get(k, self.base.zero()),
                                         self.base.mul(factor, v))
        return vec, combo

    def add(self, vec):
        vec, combo = self._reduce(vec)
        self.count += 1
        for i, c in enumerate(vec):
            if not self.base.is_zero(c):
                self.rows.append((i, vec, combo))
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)

    def solve(self, target):
        """Coefficients {index: scalar} with sum coeff_i * vec_i = target."""
        vec, combo = self._reduce(target)
        if any(not self.base.is_zero(c) for c in vec):
            return None
        # the reduction is target - sum coeff_i * vec_i, tagged with the
        # target's would-be index
        del combo[self.count]
        return {k: self.base.neg(v) for k, v in combo.items()
                if not self.base.is_zero(v)}


def span_closure(tower, generators):
    """Base-field basis of the subfield generated by ``generators``.

    Returns (elements, solver): a multiplicatively closed base-spanning set
    and the solver holding their vectors.
    """
    gens = [tower.lift(g) if isinstance(g, TowerElem) else tower.scalar(g)
            for g in generators]
    basis = [tower.one()]
    solver = LinearSolver(tower.base)
    solver.add(basis[0].to_vector())
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


class SubfieldSpec:
    """A subfield described as a tower prefix plus adjoined elements."""

    __slots__ = ("prefix_levels", "adjoined")

    def __init__(self, prefix_levels=0, adjoined=()):
        self.prefix_levels = prefix_levels
        self.adjoined = tuple(adjoined)

    def generators(self, tower):
        gens = [tower.gen(i) for i in range(min(self.prefix_levels, tower.height))]
        gens.extend(tower.lift(a) for a in self.adjoined)
        return gens

    def __repr__(self):
        return "SubfieldSpec(prefix=%d, adjoined=%r)" % (
            self.prefix_levels, list(self.adjoined))


def subfield_dimension(tower, sub):
    _, solver = span_closure(tower, sub.generators(tower))
    return solver.rank


def in_subfield(e, sub):
    _, solver = span_closure(e.tower, sub.generators(e.tower))
    return solver.solve(e.to_vector()) is not None


def degree_over(e, sub):
    """Degree of the minimal polynomial of ``e`` over the subfield ``sub``.

    Computed through base-field dimensions: [Q(e) : Q] = dim Q(e) / dim Q,
    which avoids any search for the polynomial itself.
    """
    tower = e.tower
    gens = sub.generators(tower)
    _, q_solver = span_closure(tower, gens)
    _, qe_solver = span_closure(tower, gens + [e])
    dim_q, dim_qe = q_solver.rank, qe_solver.rank
    if dim_qe % dim_q != 0:
        raise ArithmeticError("tower law violated; malformed subfield description")
    return dim_qe // dim_q


def relative_dimension(tower, big, small):
    """[big : small] for subfields given as SubfieldSpecs, small inside big."""
    big_basis, big_solver = span_closure(tower, big.generators(tower))
    _, small_solver = span_closure(tower, small.generators(tower))
    for g in small.generators(tower):
        if big_solver.solve(g.to_vector()) is None:
            raise ArithmeticError("alleged subfield is not contained")
    if big_solver.rank % small_solver.rank != 0:
        raise ArithmeticError("tower law violated in relative dimension")
    return big_solver.rank // small_solver.rank


def minimal_polynomial(e, sub):
    """Monic minimal polynomial of ``e`` over ``sub``: coefficients c_0..c_{r-1}.

    Solves e^r = sum_{i<r} (subfield element) * e^i by exact linear algebra
    over the base field, with subfield coefficients expanded on a closure
    basis.
    """
    tower = e.tower
    q_basis, _ = span_closure(tower, sub.generators(tower))
    power = tower.one()
    powers = [power]
    solver = LinearSolver(tower.base)
    products = []  # (power index, q-basis element)
    r = 0
    while True:
        for q in q_basis:
            solver.add((powers[r] * q).to_vector())
            products.append((r, q))
        power = powers[r] * e
        r += 1
        sol = solver.solve(power.to_vector())
        if sol is not None:
            coeffs = [tower.zero() for _ in range(r)]
            for idx, scal in sol.items():
                i, q = products[idx]
                coeffs[i] = coeffs[i] + q * scal
            return [-c for c in coeffs]
        powers.append(power)
        if r > tower.degree():
            raise ArithmeticError("no dependence found below the tower degree")
