"""From-scratch references: a field index for carried residue closures, a
group index of values and a rational solve for the order of a value modulo
a group."""

from fractions import Fraction
from math import lcm

from valtool.towers import span_closure
from valtool.values import INFINITE, Grid, RunningIndex, lattice_add


def field_index(tower, big, small):
    """[K(big) : K(small)] over the base field K, for lists of tower
    elements; None when K(small) is not inside K(big) or the tower law
    fails."""
    big_solver = span_closure(tower, big)[1]
    small_solver = span_closure(tower, small)[1]
    if any(big_solver.solve(tower.lift(e).to_vector()) is None
           for e in small):
        return None
    if big_solver.rank % small_solver.rank:
        return None
    return big_solver.rank // small_solver.rank


def value_index(big, small):
    """[G(big) : G(small)] for lists of values: :class:`RunningIndex` of
    their points on one grid, read at the last point of each list."""
    points = Grid(list(big) + list(small)).points
    return RunningIndex(points[:len(big)], points[len(big):]).at(
        len(big) - 1, len(small) - 1)


def order_modulo(v, gens):
    """Least n >= 1 with n*v in the group generated by ``gens``, INFINITE
    when there is none: v is solved over the rationals against an echelon
    basis of the group, and n clears the coordinates' denominators."""
    points = Grid(list(gens) + [v]).points
    basis = []
    for p in points[:-1]:
        lattice_add(basis, p)
    rem = [Fraction(t) for t in points[-1]]
    coords = []
    for row in basis:
        j = next(k for k, e in enumerate(row) if e)
        q = rem[j] / row[j]
        coords.append(q)
        rem = [r - q * e for r, e in zip(rem, row)]
    if any(rem):
        return INFINITE
    return lcm(*(q.denominator for q in coords))
