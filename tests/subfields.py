"""From-scratch references: a field index for carried residue closures, a
group index of values, an echelon basis of a group of int vectors and a
rational solve for the order of a value modulo a group."""

from fractions import Fraction
from math import lcm

from valtool.towers import span_closure
from valtool.values import INFINITE, Grid, RunningIndex


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


def echelon_basis(vectors):
    """A row echelon basis of the group that int pairs span, pivots in
    increasing columns, by Euclid's algorithm on the rows: in each column
    the row of least nonzero |entry| reduces the others until one is
    left, and that one is the column's pivot row."""
    rows, basis = [list(v) for v in vectors], []
    for j in range(2):
        rows = [r for r in rows if any(r)]
        while len([r for r in rows if r[j]]) > 1:
            pivot = min((r for r in rows if r[j]), key=lambda r: abs(r[j]))
            rows = [r if r is pivot else
                    [a - r[j] // pivot[j] * b for a, b in zip(r, pivot)]
                    for r in rows]
        basis += [r for r in rows if r[j]]
        rows = [r for r in rows if not r[j]]
    return basis


def order_modulo(v, gens):
    """Least n >= 1 with n*v in the group generated by ``gens``, INFINITE
    when there is none: v is solved over the rationals against an echelon
    basis of the group, and n clears the coordinates' denominators."""
    points = Grid(list(gens) + [v]).points
    rem = [Fraction(t) for t in points[-1]]
    coords = []
    for row in echelon_basis(points[:-1]):
        j = next(k for k, e in enumerate(row) if e)
        q = rem[j] / row[j]
        coords.append(q)
        rem = [r - q * e for r, e in zip(rem, row)]
    if any(rem):
        return INFINITE
    return lcm(*(q.denominator for q in coords))
