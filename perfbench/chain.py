"""The chain family of generating sequences, as plain data.

A chain of depth d has keys P_0 = x, P_1 = y and P_2 .. P_{d+1}, built by
d recursion steps

    P_{i+1} = P_i^2 - M_i,        i = 1 .. d,

where M_i is the greedy reduced monomial of value 2*beta_i in the keys
below P_i (exponents of P_1 .. P_{i-1} below 2, x unbounded).  The values
are beta_0 = 1, beta_1 = 3/2 and beta_{i+1} = 2*beta_i + 1/2^(i+1); every
residue is declared 1.  The rank-2 variant replaces the top value by
2*beta_d + (pi - 3), which ends the sequence.

Nothing here imports valtool: the values, tails and every expected answer
derived from them are computed independently of the code under test.
A value is a pair (q0, q1) of Fractions standing for q0 + q1*pi.
"""

from __future__ import annotations

from fractions import Fraction

BASES = {"Q": 0, "GF2": 2, "GF3": 3}


def _pi_bounds(digits=60):
    """Rational lo < pi < hi from Machin's formula in integer arithmetic."""
    scale = 10 ** (digits + 10)

    def arctan_inv(n):
        total, term, k, sign = 0, scale // n, 1, 1
        while term:
            total += sign * (term // k)
            term //= n * n
            k += 2
            sign = -sign
        return total

    approx = 4 * (4 * arctan_inv(5) - arctan_inv(239))
    slack = 100  # truncation error of the series, in units of 1/scale
    return Fraction(approx - slack, scale), Fraction(approx + slack, scale)


PI_LO, PI_HI = _pi_bounds()


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def vscale(a, k):
    return (a[0] * k, a[1] * k)


def vsign(a):
    """Sign of q0 + q1*pi, decided on the rational enclosure of pi."""
    q0, q1 = a
    if q1 == 0:
        return (q0 > 0) - (q0 < 0)
    lo, hi = (PI_LO, PI_HI) if q1 > 0 else (PI_HI, PI_LO)
    if q0 + q1 * lo > 0:
        return 1
    if q0 + q1 * hi < 0:
        return -1
    raise ArithmeticError("pi enclosure too coarse for %r" % (a,))


def vless(a, b):
    return vsign((a[0] - b[0], a[1] - b[1])) < 0


def greedy_monomial(target, betas, cap=2):
    """Greedy top-down target = sum a_j*betas[j], a_j < cap for j >= 1.

    ``target`` and ``betas`` are rational.  Returns the exponent tuple over
    the keys of ``betas`` or None when no representation exists.
    """
    def rec(top, rest):
        if top == 0:
            q = rest / betas[0]
            return (int(q),) if q >= 0 and q.denominator == 1 else None
        hi = 0
        while hi + 1 < cap and rest - betas[top] * (hi + 1) >= 0:
            hi += 1
        for a in range(hi, -1, -1):
            sub = rec(top - 1, rest - betas[top] * a)
            if sub is not None:
                return sub + (a,)
        return None

    return rec(len(betas) - 1, Fraction(target))


class ChainSpec:
    """One member of the chain family, as declaration data.

    ``values`` has d + 2 entries (value pairs); ``tails[i - 1]`` is the
    exponent tuple of M_i over keys 0 .. i - 1; ``next_tail`` is the
    monomial of the would-be step d + 1 (rank 1 only), used to form the
    first key beyond the declared prefix.
    """

    def __init__(self, depth, base="Q", rank=1):
        if depth < 1:
            raise ValueError("chain depth is at least 1")
        if base not in BASES or rank not in (1, 2):
            raise ValueError("unknown chain variant %r rank %r" % (base, rank))
        self.depth, self.base, self.rank = depth, base, rank
        betas = [Fraction(1), Fraction(3, 2)]
        for i in range(1, depth + 1):
            betas.append(2 * betas[i] + Fraction(1, 2 ** (i + 1)))
        self.values = [(b, Fraction(0)) for b in betas]
        if rank == 2:
            self.values[-1] = (2 * betas[depth] - 3, Fraction(1))
        self.tails = [greedy_monomial(2 * betas[i], betas[:i])
                      for i in range(1, depth + 1)]
        self.next_tail = (greedy_monomial(2 * betas[depth + 1],
                                          betas[:depth + 1])
                          if rank == 1 else None)

    @property
    def name(self):
        return "chain(d=%d,%s%s)" % (self.depth, self.base,
                                     ",rank2" if self.rank == 2 else "")

    @property
    def char(self):
        return BASES[self.base]

    @property
    def nkeys(self):
        return self.depth + 2

    def value_of(self, exps):
        out = (Fraction(0), Fraction(0))
        for a, v in zip(exps, self.values):
            if a:
                out = vadd(out, vscale(v, a))
        return out

    def scenario_text(self, commands):
        """The chain as a valtool scenario file with the given command list."""
        lines = ["[field]", "base %s" % ("Q" if self.char == 0
                                         else "F %d" % self.char)]
        if self.rank == 2:
            lines.append("irrational pi default")
        lines += ["", "[ring R]", "params x y", "", "[valuation nu]",
                  "ring R", "values 1 3/2"]
        for i, tail in enumerate(self.tails, start=1):
            q0, q1 = self.values[i + 1]
            value = str(q0) if q1 == 0 else "(%s,%s)" % (q0, q1)
            lines.append("key n=2 value=%s tail=-1*%s"
                         % (value, monomial_text(tail)))
        for i in range(1, self.depth + 2):
            lines.append("alpha %d 1" % i)
        if self.rank == 2:
            lines.append("terminal")
        lines += ["", "[run]"] + list(commands)
        return "\n".join(lines) + "\n"


def monomial_text(exps):
    """Key monomial in scenario syntax: x^a*y^b*P2^c ..."""
    names = ["x", "y"] + ["P%d" % i for i in range(2, len(exps))]
    parts = [n if e == 1 else "%s^%d" % (n, e)
             for n, e in zip(names, exps) if e]
    return "*".join(parts) or "1"
