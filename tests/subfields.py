"""A from-scratch field index, the reference for carried residue closures."""

from valtool.towers import span_closure


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
