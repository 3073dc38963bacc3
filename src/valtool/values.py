"""Exact arithmetic in ordered value groups of rational rank at most two.

A value is written with coordinates over the basis (1, tau) where tau is an
irrational constant known only through a table of nested rational intervals.
Comparison of distinct values is decided by interval refinement: the quantity
q0 + q1*tau is nonzero whenever (q0, q1) != (0, 0), so its sign is eventually
determined by a sufficiently tight enclosure of tau.

A :class:`Grid` holds the values of one group as int pairs over their common
denominator: a generating sequence keeps its key values there, and lattice
walks, sums and sorts of values run on ints.  Group indices of finitely
generated subgroups are computed by integer linear algebra on the same
int vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce, total_ordering
from math import lcm


class UndecidedComparison(Exception):
    """The interval table was exhausted before a sign could be certified.

    For coordinatewise-distinct values this signals a dishonest descriptor
    (an interval table that does not actually isolate the constant), never a
    legitimate outcome.
    """


class ContainmentError(Exception):
    """A lattice-index request where the alleged sublattice is not contained."""


class _Sentinel:
    """A named marker compared by identity; each constant is one instance.

    ``truth`` None means the marker has no truth value: ``bool`` raises, so
    an ``if`` cannot read it as a verdict.
    """

    __slots__ = ("_name", "_truth")

    def __init__(self, name, truth=True):
        self._name = name
        self._truth = truth

    def __repr__(self):
        return self._name

    def __bool__(self):
        if self._truth is None:
            raise TypeError("%s has no truth value; compare it by identity"
                            % self._name)
        return self._truth


INFINITE = _Sentinel("Infinite")  # an infinite group index
# a series oracle truncated too early to see the answer; falsy, unlike values
INSUFFICIENT_PRECISION = _Sentinel("InsufficientPrecision", truth=False)
# a formula whose hypotheses fail, or a verdict the prefix cannot decide
UNDETERMINED = _Sentinel("Undetermined", truth=None)


# Decimal digits of pi; enough for interval tables far beyond desk scale.
_PI_DIGITS = "31415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679"


class IrrationalDescriptor:
    """An irrational constant given by a table of nested, shrinking intervals.

    INPUT:

    - ``name`` -- label used in reports and error messages
    - ``intervals`` -- list of (lo, hi) pairs of Fractions with
      lo_k <= lo_{k+1} < hi_{k+1} <= hi_k and strictly shrinking width

    The constant is never claimed equal to any rational; equality tests on
    values therefore reduce to coordinate equality.
    """

    __slots__ = ("name", "intervals")

    def __init__(self, name, intervals):
        if not intervals:
            raise ValueError("descriptor needs at least one interval")
        cleaned = []
        prev = None
        for lo, hi in intervals:
            lo, hi = Fraction(lo), Fraction(hi)
            if not lo < hi:
                raise ValueError("empty interval in descriptor %r" % name)
            if prev is not None:
                plo, phi = prev
                if lo < plo or hi > phi or (hi - lo) >= (phi - plo):
                    raise ValueError(
                        "intervals of %r must be nested and strictly shrink" % name
                    )
            cleaned.append((lo, hi))
            prev = (lo, hi)
        self.name = name
        self.intervals = tuple(cleaned)

    @property
    def depth(self):
        return len(self.intervals)

    def enclosure(self, k):
        """k-th interval (clamped to the deepest available)."""
        return self.intervals[min(k, len(self.intervals) - 1)]

    def __repr__(self):
        lo, hi = self.intervals[-1]
        return "IrrationalDescriptor(%s in [%s, %s])" % (self.name, lo, hi)


def pi_descriptor(depth=40):
    """Default descriptor for pi-like constants, from a digit table."""
    intervals = []
    for k in range(1, min(depth, len(_PI_DIGITS) - 1) + 1):
        scale = 10 ** k
        lo = Fraction(int(_PI_DIGITS[: k + 1]), scale)
        intervals.append((lo, lo + Fraction(1, scale)))
    return IrrationalDescriptor("pi", intervals)


def _merge_tau(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a is not b:
        raise ValueError("values from different group contexts: %r vs %r" % (a, b))
    return a


def _exact(q):
    """q as a Fraction (one given is kept as it is); floats are refused."""
    if isinstance(q, float):
        raise TypeError("values are exact; got the float %r" % q)
    return q if isinstance(q, Fraction) else Fraction(q)


@total_ordering
class Value:
    """Element q0 + q1*tau of an ordered group of rational rank <= 2.

    Rational values carry q1 == 0 and need no descriptor; rank-2 values share
    a single :class:`IrrationalDescriptor`.  Addition and negation are
    coordinatewise and the order is translation invariant.
    """

    __slots__ = ("q0", "q1", "tau")

    def __init__(self, q0, q1=0, tau=None):
        self.q0 = _exact(q0)
        self.q1 = _exact(q1)
        if self.q1 != 0 and tau is None:
            raise ValueError("irrational coordinate without a descriptor")
        self.tau = tau if self.q1 != 0 or tau is not None else None

    def is_rational(self):
        return self.q1 == 0

    def __add__(self, other):
        if not isinstance(other, Value):
            other = Value(other)
        return Value(self.q0 + other.q0, self.q1 + other.q1,
                     _merge_tau(self.tau, other.tau))

    def __sub__(self, other):
        if not isinstance(other, Value):
            other = Value(other)
        return Value(self.q0 - other.q0, self.q1 - other.q1,
                     _merge_tau(self.tau, other.tau))

    def __neg__(self):
        return Value(-self.q0, -self.q1, self.tau)

    def __mul__(self, scalar):
        scalar = _exact(scalar)
        return Value(self.q0 * scalar, self.q1 * scalar, self.tau)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = Fraction(scalar)
        return Value(self.q0 / scalar, self.q1 / scalar, self.tau)

    def sign(self):
        """Sign of q0 + q1*tau: -1, 0 or +1, decided exactly."""
        if self.q1 == 0:
            return -1 if self.q0 < 0 else (1 if self.q0 > 0 else 0)
        tau = self.tau
        for k in range(tau.depth):
            lo, hi = tau.enclosure(k)
            if self.q1 > 0:
                lo_v, hi_v = self.q0 + self.q1 * lo, self.q0 + self.q1 * hi
            else:
                lo_v, hi_v = self.q0 + self.q1 * hi, self.q0 + self.q1 * lo
            if lo_v > 0:
                return 1
            if hi_v < 0:
                return -1
        raise UndecidedComparison(
            "cannot separate %r from 0 with descriptor %r (depth %d); "
            "the interval table is too shallow" % (self, tau, tau.depth)
        )

    def __eq__(self, other):
        if isinstance(other, Value):
            return self.q0 == other.q0 and self.q1 == other.q1
        if self.q1 != 0:
            return False
        return self.q0 == other

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __hash__(self):
        return hash((self.q0, self.q1))

    def __repr__(self):
        if self.q1 == 0:
            return str(self.q0)
        return "(%s, %s)" % (self.q0, self.q1)


def value_cmp(a, b):
    """Total-order comparison of two values: "LT", "EQ" or "GT".

    EQ holds iff the coordinates agree; otherwise the sign of the difference
    is certified by interval refinement.
    """
    return "EQ" if a == b else "LT" if a < b else "GT"


class Grid:
    """Values of one group as int pairs over one common denominator.

    ``scale`` is the lcm D of the coordinate denominators of the values the
    grid is built from; ``points[i]`` is values[i] as (q0*D, q1*D).  Integer
    combinations of those values are int sums of points, so a value off the
    grid is a sum of none of them.  :meth:`value` builds a :class:`Value`.
    """

    __slots__ = ("scale", "tau", "points")

    def __init__(self, values):
        self.scale = lcm(*(q.denominator for v in values
                           for q in (v.q0, v.q1)))
        self.tau = reduce(_merge_tau, (v.tau for v in values), None)
        self.points = [self.point(v) for v in values]

    def point(self, v):
        """Value ``v`` (or a point, kept) on this grid; None when off it."""
        if not isinstance(v, Value):
            return v
        (n0, d0), (n1, d1) = v.q0.as_integer_ratio(), v.q1.as_integer_ratio()
        s = self.scale
        if s % d0 or s % d1 or (n1 and v.tau is not self.tau):
            return None
        return n0 * (s // d0), n1 * (s // d1)

    def value(self, p):
        return Value(Fraction(p[0], self.scale), Fraction(p[1], self.scale),
                     self.tau)

    def cmp(self, a, b):
        """Sign of value(a) - value(b), certified: ints decide while the
        irrational coordinates agree, else :meth:`Value.sign` (which may
        raise :class:`UndecidedComparison`)."""
        if a[1] == b[1]:
            return (a[0] > b[0]) - (a[0] < b[0])
        return Value(a[0] - b[0], a[1] - b[1], self.tau).sign()

    def sums(self, points, target, caps=None):
        """Exponent vectors k with sum k_i * points[i] == target, points >= 0.

        ``points`` lie on this grid; ``target`` is a Value or a point, and
        one off the grid has no sums.  Depth-first over the positions in
        order, k ascending at each, with k_i < caps[i] where a cap is given
        (None = unbounded); a zero point only takes k = 0.  The walk prunes
        where the remainder turns negative (:meth:`cmp`) and solves the
        last position by exact division.  A (position, remainder) pair
        whose subtree yielded nothing is not walked again.  Vectors are
        yielded as they are found, so a caller that has seen enough stops
        the walk.
        """
        n = len(points)
        caps = [None] * n if caps is None else list(caps)
        target = self.point(target)
        if target is None:
            return

        def negative(r0, r1):
            return r0 < 0 if r1 == 0 else self.cmp((r0, r1), (0, 0)) < 0

        if n == 0:
            if target == (0, 0):
                yield ()
            return
        if negative(*target):
            return
        acc = [0] * n
        last = n - 1
        barren = set()

        def rec(i, r0, r1):
            a0, a1 = points[i]
            cap = caps[i]
            if i == last:
                if a1:
                    k = r1 // a1
                    hit = r1 == k * a1 and r0 == k * a0
                elif a0:
                    k = r0 // a0
                    hit = r1 == 0 and r0 == k * a0
                else:
                    k, hit = 0, r0 == 0 and r1 == 0
                if hit and k >= 0 and (cap is None or k < cap):
                    acc[i] = k
                    yield tuple(acc)
                    return True
                return False
            found, state, k = False, (i, r0, r1), 0
            while True:
                acc[i] = k
                if (i + 1, r0, r1) not in barren:
                    found = (yield from rec(i + 1, r0, r1)) or found
                k += 1
                if (a0 == 0 and a1 == 0) or (cap is not None and k >= cap):
                    break
                r0 -= a0
                r1 -= a1
                if negative(r0, r1):
                    break
            if not found:
                barren.add(state)
            return found

        yield from rec(0, *target)


def value_ratio(a, b):
    """a / b as a Fraction when a is a rational multiple of b, else None."""
    if b.q1 == 0:
        if a.q1 != 0 or b.q0 == 0:
            return None
        return a.q0 / b.q0
    r = a.q1 / b.q1
    return r if a.q0 == b.q0 * r else None


def exact_sums(values, target, caps=None):
    """Vectors k with sum k_i * values[i] == target, by :meth:`Grid.sums`."""
    grid = Grid(values)
    return grid.sums(grid.points, target, caps)


def _xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def _hnf(rows):
    """Row-style Hermite form of an integer matrix; returns the pivot rows.

    Small ambient dimension only; gcd row operations, no normalization of
    off-pivot entries is needed for our uses (membership and determinants).
    """
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis = []
    for vec in rows:
        vec = list(vec)
        for row in basis:
            j = next(i for i, e in enumerate(row) if e)
            if vec[j] == 0:
                continue
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for i in range(ncols):
                    vec[i] -= q * row[i]
            else:
                g, x, y = _xgcd(a, b)
                new_row = [x * row[i] + y * vec[i] for i in range(ncols)]
                new_vec = [(-b // g) * row[i] + (a // g) * vec[i] for i in range(ncols)]
                row[:] = new_row
                vec = new_vec
        if any(vec):
            basis.append(vec)
            basis.sort(key=lambda r: next(i for i, e in enumerate(r) if e))
    for row in basis:
        j = next(i for i, e in enumerate(row) if e)
        if row[j] < 0:
            for i in range(ncols):
                row[i] = -row[i]
    return basis


def _in_lattice(vec, basis):
    """Integer membership of ``vec`` in the lattice spanned by HNF ``basis``.

    Returns the coordinate list on success, None on failure.
    """
    vec = list(vec)
    coords = []
    for row in basis:
        j = next(i for i, e in enumerate(row) if e)
        if vec[j] % row[j] != 0:
            return None
        q = vec[j] // row[j]
        coords.append(q)
        for i in range(len(vec)):
            vec[i] -= q * row[i]
    if any(vec):
        return None
    return coords


def group_index(big, small):
    """Index [G(big) : G(small)] of finitely generated subgroups.

    INPUT:

    - ``big``, ``small`` -- lists of :class:`Value` with every element of
      ``small`` lying in the group generated by ``big`` (checked)

    OUTPUT:

    A positive integer, or INFINITE when ``small`` generates a lattice of
    strictly lower rank.  Raises :class:`ContainmentError` if containment
    fails.
    """
    vecs = Grid(list(big) + list(small)).points
    big_vecs, small_vecs = vecs[: len(big)], vecs[len(big):]
    big_basis = _hnf(big_vecs)
    coords = []
    for v in small_vecs:
        c = _in_lattice(v, big_basis)
        if c is None:
            raise ContainmentError(
                "value %r is not in the group generated by %r" % (v, big)
            )
        coords.append(c)
    rank = len(big_basis)
    if rank == 0:
        return 1
    coord_basis = _hnf(coords)
    if len(coord_basis) < rank:
        return INFINITE
    det = 1
    for row in coord_basis:
        j = next(i for i, e in enumerate(row) if e)
        det *= row[j]
    return abs(det)


def smallest_multiple_in_group(v, gens):
    """Least positive n with n*v in the group generated by ``gens``.

    Raises :class:`ContainmentError` when no multiple lies in the group
    (the rational span does not contain v).
    """
    vecs = Grid(list(gens) + [v]).points
    basis = _hnf(vecs[:-1])
    target = vecs[-1]
    if not any(target):
        return 1
    # Solve over the rationals, then clear coordinate denominators.
    coords = []
    rem = [Fraction(t) for t in target]
    for row in basis:
        j = next(i for i, e in enumerate(row) if e)
        q = rem[j] / row[j]
        coords.append(q)
        for i in range(len(rem)):
            rem[i] -= q * row[i]
    if any(rem):
        raise ContainmentError("%r has no multiple in the group of %r" % (v, gens))
    return lcm(*(q.denominator for q in coords))
