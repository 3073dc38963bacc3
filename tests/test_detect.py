"""The finite-generation detector and ramification reports, pinned.

Each file under data/detect holds, for one chain cell or shipped scenario,
``repr(fingen_detect(g_r, g_s, ext, 6))`` and the lines of
``ramification_report(g_r, g_s, ext, depth=6)`` (or the error either
raised), for every pair the case names: each valuation against its free
transform, and each ``fingen`` line of a scenario's run section.  Besides
the shipped scenarios, ``v1-over-Qi`` declares v1's sequence over Q(i)
twice, on a ring with residue field Q and on one with Q(i), joined by the
identity map: the only pinned pair whose chi is not 1.  Each certificate
line is the membership proof at the first level that absorbs the image,
in the generators g_0..g_s of that level.  A change that alters a verdict
on purpose records them again with

    PYTHONPATH=src python tests/test_detect.py
"""

from pathlib import Path

import pytest

import valtool
from valtool.blowup import free_transform
from valtool.extension import ramification_report
from valtool.genseq import initial_form, sigma_indices
from valtool.graded import GradedElem, fingen_detect, graded_one, key_initial
from valtool.scenario import parse_scenario

from test_genseq import _chain_cell

DETECT = Path(__file__).resolve().parent / "data" / "detect"
CELLS = ([(d, b, 1) for d in (1, 2, 3) for b in ("Q", "GF2", "GF3")]
         + [(d, b, 2) for d in (1, 2) for b in ("Q", "GF2", "GF3")])
SCENARIOS = ("v1", "pi2", "disc", "def2", "corn")
# v1's sequence over the Q(i) tower, once on a ring with residue field Q
# and once on one with Q(i): chi = [Q(i) : Q] = 2 at every level
TEXTS = {"v1-over-Qi": """
[field]
base Q
extend i minpoly 1 0

[ring R]
params u v
levels 0

[ring S]
params x y
levels 1

[valuation nu]
ring R
values 1 3/2
key n=2 value=7/2 tail=-1*u^3
alpha 1 1
alpha 2 1

[valuation nustar]
ring S
values 1 3/2
key n=2 value=7/2 tail=-1*x^3
alpha 1 1
alpha 2 1

[extension ext]
from R to S
u = x
v = y

[run]
fingen ext nu nustar 6
"""}
CASES = (["chain-d%d-%s-rank%d" % c for c in CELLS] + list(SCENARIOS)
         + list(TEXTS))


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


def _pairs(case):
    """Each pair the case names, as (title, g_r, g_s, ext), or as (title,
    err) when a valuation's free transform raises err."""
    if case.startswith("chain-"):
        d, b, r = case.split("-")[1:]
        named = [(case, _chain_cell(int(d[1:]), b, int(r[4:])))]
        runs = []
    else:
        sc = parse_scenario(TEXTS[case] if case in TEXTS
                            else valtool.scenario_path(case).read_text())
        named = [("%s against its transform" % name, g)
                 for name, g in sc.valuations.items()]
        runs = [("fingen %s" % " ".join(args[:3]), sc.valuations[args[1]],
                 sc.valuations[args[2]], sc.extensions[args[0]])
                for _, verb, args in sc.commands if verb == "fingen"]
    for title, g in named:
        try:
            tmap, target = free_transform(g)
        except Exception as err:
            yield title, err
        else:
            yield title, g, target, tmap.extension()
    yield from runs


def dump(case):
    out = []
    for title, *pair in _pairs(case):
        if len(pair) == 1:
            out += ["== %s" % title, "free_transform raises %s: %s"
                    % (type(pair[0]).__name__, pair[0])]
        else:
            out += _pair_lines(title, *pair)
    return out


@pytest.mark.parametrize("case", CASES)
def test_detector_answers_are_unchanged(case):
    pinned = (DETECT / ("%s.txt" % case)).read_text().splitlines()
    assert dump(case) == pinned


@pytest.mark.parametrize("case", CASES)
def test_certificates_multiply_out_to_the_images(case):
    # each kept certificate, multiplied out in g_0..g_s of the level s that
    # first absorbs its image, is the image's initial form, here expanded
    # afresh through the map
    for title, *pair in _pairs(case):
        if len(pair) == 1:
            continue
        g_r, g_s, ext = pair
        st = fingen_detect(g_r, g_s, ext, 6)
        sigma, tau = sigma_indices(g_r), sigma_indices(g_s)
        r = st.levels[-1].r
        assert sorted(st.certificates) == sorted(sigma[:r + 1]), title
        for pos, j in enumerate(sigma[:r + 1]):
            s = next(lvl.s for lvl in st.levels if lvl.r >= pos)
            gens = [key_initial(g_s, tau[t]) for t in range(s + 1)]
            image = initial_form(ext.apply(g_r.keys[j]), g_s)
            total = GradedElem(g_s, image.point, {})
            for gexps, c in st.certificates[j].certificate:
                assert len(gexps) == s + 1, (title, j)
                term = graded_one(g_s)
                for gen, k in zip(gens, gexps):
                    term = term * gen ** k
                total = total + term * c
            assert total == image, (title, j)


if __name__ == "__main__":
    DETECT.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (DETECT / ("%s.txt" % case)).write_text("\n".join(dump(case)) + "\n")
