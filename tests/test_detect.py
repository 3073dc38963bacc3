"""The finite-generation detector and ramification reports, pinned.

Each file under data/detect holds, for one chain cell or shipped scenario,
``repr(fingen_detect(g_r, g_s, ext, 6))`` and the lines of
``ramification_report(g_r, g_s, ext, depth=6)`` (or the error either
raised), for every pair the case names: each valuation against its free
transform, and each ``fingen`` line of a scenario's run section.  A change
that alters a verdict on purpose records them again with

    PYTHONPATH=src python tests/test_detect.py
"""

from pathlib import Path

import pytest

import valtool
from valtool.blowup import free_transform
from valtool.extension import ramification_report
from valtool.graded import fingen_detect
from valtool.scenario import parse_scenario

from test_genseq import _chain_cell

DETECT = Path(__file__).resolve().parent / "data" / "detect"
CELLS = ([(d, b, 1) for d in (1, 2, 3) for b in ("Q", "GF2", "GF3")]
         + [(d, b, 2) for d in (1, 2) for b in ("Q", "GF2", "GF3")])
SCENARIOS = ("v1", "pi2", "disc", "def2", "corn")
CASES = ["chain-d%d-%s-rank%d" % c for c in CELLS] + list(SCENARIOS)


def _attempt(call):
    try:
        out = call()
    except Exception as err:  # a refusal is part of the pinned answer
        return ["raises %s: %s" % (type(err).__name__, err)]
    return repr(out).splitlines()


def _pair_lines(title, g_r, g_s, ext):
    return (["== %s" % title, "-- fingen_detect"]
            + _attempt(lambda: fingen_detect(g_r, g_s, ext, 6))
            + ["-- ramification_report"]
            + _attempt(lambda: ramification_report(g_r, g_s, ext, depth=6)))


def _transform_lines(title, g):
    try:
        tmap, target = free_transform(g)
    except Exception as err:
        return ["== %s" % title, "free_transform raises %s: %s"
                % (type(err).__name__, err)]
    return _pair_lines(title, g, target, tmap.extension())


def dump(case):
    if case.startswith("chain-"):
        d, b, r = case.split("-")[1:]
        return _transform_lines(case, _chain_cell(int(d[1:]), b, int(r[4:])))
    sc = parse_scenario(valtool.scenario_path(case).read_text())
    out = []
    for name, g in sc.valuations.items():
        out += _transform_lines("%s against its transform" % name, g)
    for _, verb, args in sc.commands:
        if verb == "fingen":
            ext, g_r, g_s = (sc.extensions[args[0]], sc.valuations[args[1]],
                             sc.valuations[args[2]])
            out += _pair_lines("fingen %s" % " ".join(args[:3]), g_r, g_s, ext)
    return out


@pytest.mark.parametrize("case", CASES)
def test_detector_answers_are_unchanged(case):
    pinned = (DETECT / ("%s.txt" % case)).read_text().splitlines()
    assert dump(case) == pinned


if __name__ == "__main__":
    DETECT.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (DETECT / ("%s.txt" % case)).write_text("\n".join(dump(case)) + "\n")
