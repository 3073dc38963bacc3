"""`valtool run` reports on the shipped scenarios, pinned byte for byte.

The files under data/reports were written by ``valtool run FILE --format
FMT`` for each shipped scenario and format; a change that alters any report
must re-record them on purpose.
"""

import io
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import valtool
from valtool import ring
from valtool.cli import main
from valtool.scenario import parse_scenario

REPORTS = Path(__file__).resolve().parent / "data" / "reports"
NAMES = ("v1", "def2", "pi2", "disc", "corn")
FORMATS = ("text", "csv", "dot")


def _run(path, fmt="text"):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["run", str(path), "--format", fmt])
    return code, buf.getvalue()


def _pinned(name, fmt):
    return (REPORTS / ("%s.%s.txt" % (name, fmt))).read_bytes().decode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", NAMES)
def test_shipped_report_is_unchanged(name, fmt):
    code, out = _run(valtool.scenario_path(name), fmt)
    assert code == 0
    assert out == _pinned(name, fmt)


def test_reports_are_unchanged_with_every_product_packed(monkeypatch):
    # the packed height-0 product for every product, however small
    monkeypatch.setattr(ring, "PACKED_MIN_PAIRS", 1)
    for name in NAMES:
        for fmt in FORMATS:
            assert _run(valtool.scenario_path(name), fmt) == (
                0, _pinned(name, fmt)), (name, fmt)


def test_pi_from_an_interval_table_gives_the_pinned_report(tmp_path):
    # a declared table of nested intervals in place of the built-in one
    table = ("3 4 31/10 32/10 314/100 315/100 3141/1000 3142/1000 "
             "31415/10000 31416/10000 314159/100000 314160/100000")
    text = valtool.scenario_path("pi2").read_text()
    assert "irrational pi default" in text
    path = tmp_path / "pi2.scn"
    path.write_text(text.replace("irrational pi default",
                                 "irrational pi interval " + table))
    assert _run(path) == (0, _pinned("pi2", "text"))


_T_POWER = re.compile(r"\bt\b(?:\^(\d+))?")


def _reparametrised(text, r):
    """Scenario text with every embedding rewritten under t -> t^r.

    Each series exponent and each ``truncate`` is multiplied by r.
    """
    out, embedding = [], False
    for line in text.splitlines():
        if line.startswith("["):
            embedding = line.startswith("[embedding")
        elif embedding and line.startswith("truncate "):
            line = "truncate %s" % (Fraction(line.split()[1]) * r)
        elif embedding and "=" in line:
            name, series = line.split("=", 1)
            line = name + "=" + _T_POWER.sub(
                lambda m: "t^(%s)" % (Fraction(m.group(1) or 1) * r), series)
        out.append(line)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("r", [Fraction(3, 4), Fraction(5, 3)],
                         ids=["3/4", "5/3"])
@pytest.mark.parametrize("name", ["v1", "def2", "disc"])
def test_report_is_unchanged_under_reparametrisation(tmp_path, name, r, fmt):
    # values are normalised by the first parameter, so t -> t^r changes
    # nothing; every embedding then works on a grid of r's denominator
    text = _reparametrised(valtool.scenario_path(name).read_text(), r)
    embeddings = parse_scenario(text).embeddings
    assert embeddings and all(e._grid == r.denominator
                              for e in embeddings.values())
    path = tmp_path / ("%s.scn" % name)
    path.write_text(text)
    code, out = _run(path, fmt)
    assert code == 0
    assert out == _pinned(name, fmt)


def test_ratio_order_is_reported_in_t_units(tmp_path):
    # x -> t^(3/2), y -> 1 + t^(9/4): y is a unit, so y^2 / x^3 has order
    # -9/2 in t, not -18 on the embedding's grid t = s^4
    text = valtool.scenario_path("v1").read_text()
    text = text.replace("truncate 40", "truncate 30")
    text = text.replace("x = t^2\n", "x = t^(3/2)\n")
    text = text.replace("y = t^3 + t^4\n", "y = 1 + t^(9/4)\n")
    assert parse_scenario(text).embeddings["series"]._grid == 4
    path = tmp_path / "v1.scn"
    path.write_text(text)
    code, out = _run(path)
    assert code == 2  # the commands after validate are skipped
    lines = out.splitlines()
    assert lines.count("skipped: nu is INVALID (level 1 derivation)") == 5
    assert "FAIL level 1 derivation: oracle residue at level 1: ratio has " \
        "nonzero order -9/2" in lines
    assert "FAIL level 2 derivation: oracle residue at level 2: ratio has " \
        "nonzero order -3" in lines


def test_every_report_file_is_pinned():
    assert sorted(p.name for p in REPORTS.iterdir()) == sorted(
        "%s.%s.txt" % (n, f) for n in NAMES for f in FORMATS)
