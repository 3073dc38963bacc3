"""The desk fixtures used across the test suite, loaded from the shipped
scenario files through :func:`~valtool.scenario.parse_scenario`.

Each call parses its file afresh, so tests cannot leak state into each
other, and the scenario files stay the one source of the fixture data.
``def2()`` returns both sides and the extension map from one parse."""

from __future__ import annotations

from . import scenario_path
from .scenario import parse_scenario


def _load(name):
    return parse_scenario(scenario_path(name).read_text())


def v1():
    """Rank-1 fixture over QQ: values 1, 3/2 and the key y^2 - x^3 at 7/2.

    The attached oracle sends x to t^2 and y to t^3 + t^4.
    """
    return _load("v1").valuations["nu"]


def corn():
    """Three-key rank-1 fixture with strictly growing value denominators.

    Values 1, 3/2, 13/4, 55/8; every residue is 1 by declaration.  The
    growing group jumps make the (would-be infinite) sequence non-discrete.
    """
    return _load("corn").valuations["nu"]


def def2():
    """Inseparable-defect fixture over GF(2): u -> x, v -> y^2.

    Returns (nu, nustar, ext): downstairs, upstairs (t-adic through
    y = t + t^2 + t^4 + t^8 + t^16) and the extension map.
    """
    sc = _load("def2")
    return sc.valuations["nu"], sc.valuations["nustar"], sc.extensions["ext"]


def pi2():
    """Rational-rank-2 splitting fixture: u -> x^2, v -> y^2 over QQ.

    Returns (nu, nu1, nu2, ext): nu1 values y - x at pi + 1, nu2 uses y + x,
    and both restrict to nu (u at 2, v - u at pi + 2).
    """
    sc = _load("pi2")
    return (sc.valuations["nu"], sc.valuations["nu1"], sc.valuations["nu2"],
            sc.extensions["ext"])


def pi2_blown_up_pair():
    """One quadratic transform on both sides of the pi fixture.

    Returns (R1, S1, ext) with u -> x^2 and w -> z^2 + 2z, the monomial
    shape needed by the local-degree formula.
    """
    sc = _load("pi2")
    return sc.rings["R1"], sc.rings["S1"], sc.extensions["extblown"]


def disc():
    """Discrete splitting fixture: v - u*p(u) with p truncated to order 8.

    Returns (nu, branch1, branch2, ext); the two upstairs series oracles
    take y to +- x*sqrt(p(x^2)), truncated.
    """
    sc = _load("disc")
    return (sc.valuations["nu"], sc.embeddings["branch1"],
            sc.embeddings["branch2"], sc.extensions["ext"])

