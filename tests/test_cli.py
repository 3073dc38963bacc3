import argparse
import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import valtool
from valtool import cli
from valtool import scenario as scenario_mod
from valtool.cli import main
from valtool.genseq import validate_sequence
from valtool.scenario import ScenarioError, parse_scenario, run_scenario

SCN = Path(__file__).resolve().parents[1] / "src" / "valtool" / "scenarios"
SHIPPED = sorted(p.stem for p in SCN.glob("*.scn"))


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", SHIPPED)
def test_fixtures_run_clean(name):
    code, out = run_cli("run", str(SCN / ("%s.scn" % name)))
    assert code == 0
    assert "FAULT" not in out
    assert "FAIL " not in out


@pytest.mark.parametrize("name", SHIPPED)
def test_fixtures_check(name):
    code, out = run_cli("check", str(SCN / ("%s.scn" % name)))
    assert code == 0
    assert "INVALID" not in out


def _disc_with_probe(probe):
    text = (SCN / "disc.scn").read_text()
    return text.replace("probe y-x", "probe " + probe)


def test_split_probe_is_one_polynomial():
    # section titles echo the command text; the bodies must agree
    bodies = [[(s.lines, s.fault) for s in
               run_scenario(parse_scenario(_disc_with_probe(p))).sections]
              for p in ("y-x", "y - x")]
    assert "splitting witnessed: True" in bodies[0][3][0]
    assert bodies[0] == bodies[1]


def test_malformed_probe_is_a_parse_error(tmp_path):
    bad = tmp_path / "probe.scn"
    bad.write_text(_disc_with_probe("y - - x"))
    line = 1 + bad.read_text().splitlines().index(
        "split ext nu candidates branch1 branch2 probe y - - x")
    code, _ = run_cli("run", str(bad))
    assert code == 2
    with pytest.raises(ScenarioError) as err:
        run_scenario(parse_scenario(bad.read_text()))
    assert err.value.line == line


def test_determinism():
    path = str(SCN / "def2.scn")
    outputs = {run_cli("run", path)[1] for _ in range(3)}
    assert len(outputs) == 1


def test_documented_outputs_v1():
    code, out = run_cli("run", str(SCN / "v1.scn"))
    assert code == 0
    assert "value 3" in out
    assert "value 7/2" in out
    assert "relation (value 3): in(y)^2 + -1*in(x)^3 = 0" in out
    assert "x = x1^2*(y1+1)^1, y = x1^3*(y1+1)^2" in out


def test_documented_outputs_def2():
    code, out = run_cli("run", str(SCN / "def2.scn"))
    assert code == 0
    assert "e = 1, f = 1, delta = 1" in out
    assert "routes consistent: True" in out


def test_documented_outputs_pi2():
    code, out = run_cli("run", str(SCN / "pi2.scn"))
    assert code == 0
    assert "value (2, 1)" in out       # nu1(y^2 - x^2) = pi + 2
    assert "e = 2, f = 1, delta = 0" in out
    assert "splitting witnessed: True" in out


def test_documented_outputs_disc():
    code, out = run_cli("run", str(SCN / "disc.scn"))
    assert code == 0
    assert "splitting witnessed: True" in out
    assert "1*g0^2" in out             # in(u) = in(x)^2


def test_csv_format():
    code, out = run_cli("run", str(SCN / "def2.scn"), "--format", "csv")
    assert code == 0
    assert "route,e,f,delta,consistent" in out
    assert "ostrowski,1,1,1,1" in out


def test_dot_format():
    code, out = run_cli("run", str(SCN / "v1.scn"), "--format", "dot")
    assert code == 0
    assert "digraph transforms" in out


def test_exit_code_on_missing_file(tmp_path):
    code, _ = run_cli("run", str(tmp_path / "absent.scn"))
    assert code == 2


def test_check_flags_invalid_valuation(tmp_path):
    bad = tmp_path / "invalid.scn"
    bad.write_text("""
[field]
base Q
[ring R]
params x y
[valuation nu]
ring R
values 1 3/2
key n=2 value=3 tail=-1*x^3
alpha 1 1
alpha 2 1
""")
    code, out = run_cli("check", str(bad))
    assert code == 2
    assert "INVALID" in out


def test_shipped_scenario_paths():
    from valtool import scenario_path
    assert scenario_path("v1").read_text().startswith("#")


def test_parse_error_carries_line(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("[ring R]\nparams x y\nnonsense here\n")
    code, _ = run_cli("run", str(bad))
    assert code == 2
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad.read_text())
    assert "line 3" in str(err.value)


def test_tail_over_a_non_monic_key_is_a_parse_error(tmp_path):
    bad = tmp_path / "nonmonic.scn"
    bad.write_text("[ring R]\nparams x y\n[valuation nu]\nring R\n"
                   "values 1 3/2\nkey n=2 value=7/2 tail=-1*x^3+x*y^3\n"
                   "key n=2 value=8 tail=y^3\n")
    code, _ = run_cli("check", str(bad))
    assert code == 2
    with pytest.raises(ScenarioError, match="not monic"):
        parse_scenario(bad.read_text())


def test_non_monic_key_is_reported_at_its_own_line(tmp_path):
    # key 2 (line 10) is not monic; the division by it fails while key 3
    # (line 11) is read back, and the section ends at [run] (line 13)
    bad = tmp_path / "nonmonic.scn"
    bad.write_text("[field]\nbase Q\n[ring R]\nparams x y\n\n"
                   "[valuation nu]\nring R\nvalues 1 3/2\n\n"
                   "key n=2 value=7/2 tail=-1*x^3+x*y^3\n"
                   "key n=2 value=8 tail=y^3\n\n[run]\nvalidate nu\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("check", str(bad))
    assert code == 2
    assert "line 10:" in err.getvalue() and "not monic" in err.getvalue()


def test_undeclared_reference(tmp_path):
    bad = tmp_path / "ref.scn"
    bad.write_text("""
[field]
base Q
[ring R]
params x y
[run]
eval missing x
""")
    scenario = parse_scenario(bad.read_text())
    with pytest.raises(ScenarioError):
        run_scenario(scenario)


def test_duplicate_name_rejected(tmp_path):
    bad = tmp_path / "dup.scn"
    bad.write_text("[ring R]\nparams x y\n[ring R]\nparams u v\n")
    with pytest.raises(ScenarioError):
        parse_scenario(bad.read_text())


def test_exact_rational_parsing():
    scenario = parse_scenario("""
[field]
base Q
[ring R]
params x y
[valuation nu]
ring R
values 1 3/2
key n=2 value=7/2 tail=-1*x^3
alpha 1 1
alpha 2 2
""")
    g = scenario.valuations["nu"]
    from fractions import Fraction
    assert g.values[2].q0 == Fraction(7, 2)


def test_series_exponent_reads_with_or_without_parentheses():
    scenario = parse_scenario("""
[field]
base Q
[ring R]
params x y
[embedding o]
ring R
x = t^(3/2)
y = t^3/2 + 2*t^(2)
""")
    images = scenario.embeddings["o"].images
    assert images["x"].coeffs == {Fraction(3, 2): 1}
    assert images["y"].coeffs == {Fraction(3, 2): 1, Fraction(2): 2}


def test_fault_continues_to_next_command(tmp_path):
    scn = tmp_path / "cont.scn"
    scn.write_text("""
[field]
base Q
[ring R]
params x y
[valuation nu]
ring R
values 1 3/2
key n=2 value=7/2 tail=-1*x^3
alpha 1 1
alpha 2 2
[run]
eval nu y^2-x^3-2*x^2*y
eval nu x
""")
    code, out = run_cli("run", str(scn))
    assert code == 1
    assert "FAULT: insufficient generating-sequence data" in out
    assert "value 1" in out  # the later command still ran


def test_negative_key_value_is_a_fault_not_a_hang(tmp_path):
    # run's validation gate skips the command on the INVALID valuation, and
    # the detector, called past the gate, refuses the negative key value
    # before its walks rather than walk it without end; the child's timeout
    # turns a hang into a failure
    scn = tmp_path / "negative.scn"
    scn.write_text("""
[field]
base Q
[ring R]
params x y
[valuation nu]
ring R
values 1 3/2
key n=2 value=-7/2 tail=-1*x^3
alpha 1 1
[extension e]
from R to R
x = x
y = y
degree 1
unique true
[run]
fingen e nu nu 2
""")
    root = str(Path(valtool.__file__).resolve().parents[1])
    child = """
import sys
from valtool.cli import main
from valtool.graded import fingen_detect
from valtool.scenario import parse_scenario
code = main(["run", sys.argv[1]])
scenario = parse_scenario(open(sys.argv[1]).read())
nu = scenario.valuations["nu"]
try:
    fingen_detect(nu, nu, scenario.extensions["e"], 2)
except ValueError as err:
    print("detector: %s" % err)
sys.exit(code)
"""
    proc = subprocess.run(
        [sys.executable, "-c", child, str(scn)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=root))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout.splitlines() == [
        "== fingen e nu nu 2 ==",
        "skipped: nu is INVALID (positive key values)",
        "detector: source key 2 has negative value -7/2"]


_GATED = """
[field]
base Q
[ring R]
params x y
[valuation nu]
ring R
values 1 3/2
key n=2 value=7/2 tail=-1*x^3
alpha 1 1
[valuation bad]
ring R
values 1 3/2
key n=2 value=-7/2 tail=-1*x^3
alpha 1 1
[extension e]
from R to R
x = x
y = y
degree 1
unique true
[run]
"""

# per verb: malformed commands, then a well-formed one; NU names the
# valuation under test
_ARGUMENTS = {
    "eval": (["eval NU y +* x", "eval NU P9"], "eval NU y"),
    "expand": (["expand NU y - - x"], "expand NU y"),
    "blowup": (["blowup NU x", "blowup NU -1"], "blowup NU 1"),
    "graded": (["graded NU x"], "graded NU 2"),
    "fingen": (["fingen e NU nu x", "fingen e NU nosuch 2",
                "fingen nosuch NU nu"], "fingen e NU nu 2"),
    "ramify": (["ramify e NU nosuch", "ramify e NU nu using nosuch"],
               "ramify e NU nu"),
    "split": (["split e NU candidates nosuch",
               "split e NU candidates nu probe y - - x"],
              "split e NU candidates nu probe y-x"),
}


def _run_gated(tmp_path, command):
    """(exit code, stdout, stderr) of valtool run on one command."""
    scn = tmp_path / "gated.scn"
    scn.write_text(_GATED + command + "\n")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["run", str(scn)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("verb", sorted(_ARGUMENTS))
def test_every_argument_is_read_before_the_validation_gate(verb, tmp_path):
    # a malformed argument is the same error at the same line on an
    # INVALID valuation as on a valid one; a well-formed command on the
    # INVALID valuation is skipped
    malformed, well_formed = _ARGUMENTS[verb]
    line = len(_GATED.splitlines()) + 1
    for command in malformed:
        valid = _run_gated(tmp_path, command.replace("NU", "nu"))
        invalid = _run_gated(tmp_path, command.replace("NU", "bad"))
        assert valid[0] == invalid[0] == 2, command
        assert valid[2] == invalid[2], command
        assert invalid[2].startswith("error: line %d: " % line), invalid
        assert "skipped" not in invalid[1]
    code, out, _ = _run_gated(tmp_path, well_formed.replace("NU", "bad"))
    assert code == 2
    assert out.splitlines()[1:] == [
        "skipped: bad is INVALID (positive key values)"]


def _family(check):
    """A validation check's family: its name with the numbers taken out."""
    return re.sub(r"\d+", "N", check)


def _shipped_valuations():
    return [(scn, name, g) for scn in SHIPPED for name, g in parse_scenario(
        (SCN / ("%s.scn" % scn)).read_text()).valuations.items()]


# every family the shipped reports hold, and one that only fails
_FAMILIES = sorted({_family(check) for _, _, g in _shipped_valuations()
                    for check, _, _ in validate_sequence(g).checks}
                   | {"level N derivation"})


@pytest.mark.parametrize("family", _FAMILIES)
def test_run_skips_every_command_on_an_invalid_valuation(family, monkeypatch):
    # on each shipped valuation whose report has a check of the family,
    # that check is forged to fail: run validates each valuation once,
    # prints the report under validate, skips every other command naming
    # the valuation, and runs the rest as on the valid scenario
    real, calls = scenario_mod.validate_sequence, []
    forged = None

    def forging(g):
        calls.append(g)
        rep = real(g)
        if g is forged and family != "level N derivation":
            k = next(k for k, (check, _, _) in enumerate(rep.checks)
                     if _family(check) == family)
            check, _, detail = rep.checks[k]
            rep.checks[k] = (check, False, detail)
        return rep

    monkeypatch.setattr(scenario_mod, "validate_sequence", forging)
    tested = 0
    for scn, name, _ in _shipped_valuations():
        text = (SCN / ("%s.scn" % scn)).read_text()
        clean = run_scenario(parse_scenario(text))
        scenario = parse_scenario(text)
        forged = scenario.valuations[name]
        if family == "level N derivation":  # a real issue of the level
            forged.levels[-1].issues.append("forged")
        elif family not in {_family(c) for c, _, _ in real(forged).checks}:
            continue
        calls.clear()
        report = run_scenario(scenario)
        assert len(calls) == len({id(g) for g in calls})  # each once
        first = forging(forged).failures()[0][0]
        assert _family(first) == family
        for got, want in zip(report.sections, clean.sections):
            verb, *args = got.title.split()
            if name not in args:
                assert (got.lines, got.skipped) == (want.lines, False)
            elif verb == "validate":
                assert got.fault == "validation failed" and not got.skipped
                assert any(line.startswith("FAIL " + first)
                           for line in got.lines)
            else:
                assert got.lines == ["skipped: %s is INVALID (%s)"
                                     % (name, first)]
                assert got.skipped and got.fault is None
        assert any(s.skipped for s in report.sections) == any(
            name in s.title.split()[1:] and not s.title.startswith("validate")
            for s in report.sections)
        tested += 1
    assert tested


def test_empty_command_list():
    scenario = parse_scenario("[field]\nbase Q\n")
    report = run_scenario(scenario)
    assert report.ok and report.sections == []


def _check_error(tmp_path, lines):
    """Exit code and stderr of ``valtool check``; the line marked ! is bad."""
    bad = next(i for i, l in enumerate(lines, start=1) if l.startswith("!"))
    path = tmp_path / "bad.scn"
    path.write_text("\n".join(l.lstrip("!") for l in lines) + "\n")
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("check", str(path))
    return code, err.getvalue(), bad


_RING = ["[field]", "base Q", "[ring R]", "params x y"]


@pytest.mark.parametrize("lines, message", [
    # a valuation over an undeclared ring
    (["[ring R]", "params x y", "[valuation nu]", "!ring S", "values 1 3/2",
      "[run]"], "valuation 'nu' references undeclared ring 'S'"),
    (_RING + ["[embedding o]", "!ring S", "x = t", "y = t^2", "[run]"],
     "embedding 'o' references undeclared ring 'S'"),
    (_RING + ["[extension e]", "!from R to S", "x = x", "y = y", "[run]"],
     "extension 'e' references undeclared rings"),
    # a missing directive belongs at its own section's header; a missing
    # ring or from line read "references undeclared ring None" (or rings)
    (["[field]", "base Q", "![ring R]", "levels 0", "[run]"],
     "ring 'R' missing params"),
    (_RING + ["![valuation nu]", "ring R", "[run]", "validate nu"],
     "valuation 'nu' needs 'values b0 b1'"),
    (_RING + ["![extension e]", "from R to R", "x = x", "[run]"],
     "extension 'e' misses images for y"),
    (_RING + ["![embedding o]", "x = t", "y = t^2"],
     "embedding 'o' needs a 'ring' line"),
    (_RING + ["![valuation nu]", "values 1 3/2"],
     "valuation 'nu' needs a 'ring' line"),
    (_RING + ["![extension e]", "x = x", "y = y"],
     "extension 'e' needs a 'from R to S' line"),
    # u^4 + u^2 + 1 = (u^2 + u + 1)^2 over GF(2) has no root, but a factor
    (["[field]", "base F 2", "!extend a minpoly 1 0 1 0"],
     "minimal polynomial for 'a' has a factor of degree 2 at its own level"),
], ids=["valuation-ring", "embedding-ring", "extension-from",
        "missing-params", "missing-values", "missing-image", "missing-ring",
        "valuation-missing-ring", "extension-missing-from", "reducible-level"])
def test_section_errors_are_reported_at_their_own_line(tmp_path, lines,
                                                      message):
    code, err, bad = _check_error(tmp_path, lines)
    assert code == 2
    assert err == "parse error: line %d: %s\n" % (bad, message)


@pytest.mark.parametrize("lines", [
    ["[field]", "!base"],
    ["[field]", "!base F x"],
    ["[field]", "base Q", "!irrational"],
    ["[field]", "base Q", "[ring R]", "params x y", "!levels two"],
    _RING + ["[valuation nu]", "!ring"],
    _RING + ["[embedding o]", "ring R", "!truncate", "x = t", "y = t^2"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2", "!alpha x 1"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2",
             "!key n=two value=3 tail=x"],
    # a key's power is a positive integer: n=0 divided by zero in blowup,
    # n=-1 asked for a negative power of the previous key
    _RING + ["[valuation nu]", "ring R", "values 1 3/2",
             "!key n=0 value=7/2 tail=-1*x^3"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2",
             "!key n=-1 value=7/2 tail=-1*x^3"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2",
             "!key n=x value=7/2 tail=-1*x^3"],
    # only true and false mean anything; "maybe" was read as false
    _RING + ["[extension e]", "from R to R", "x = x", "y = y",
             "!unique maybe"],
    _RING + ["[extension e]", "from R to R", "x = x", "y = y",
             "!degree many"],
    ["[field]", "base Q", "[ring R]", "!params x x"],
    ["[field]", "base Q", "extend a minpoly 1 0", "!extend a minpoly 1 0"],
    # a residue characteristic is 0 or a prime, as for "base F p"; p = 1
    # sent the p-power search of the defect into an endless loop
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "!char 1"],
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "!char 4"],
    # p is read from the tower; a char line may only repeat it
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "!char 2"],
    # a number with a zero denominator or a second slash
    _RING + ["[valuation nu]", "ring R", "values 1 3/2",
             "!key n=2 value=7/2 tail=1/0*x^3"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2",
             "!key n=2 value=7/2 tail=3/2/5*x^3"],
    _RING + ["[embedding o]", "ring R", "x = t^2", "!y = t^3 + t^(1/0)"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2", "!alpha 1 1/0"],
    # an alpha names a level 1..top; others were dropped without notice,
    # and each is refused at its own line, before or after the keys
    _RING + ["[valuation nu]", "ring R", "values 1 3/2",
             "key n=2 value=7/2 tail=-1*x^3", "!alpha 0 1"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2",
             "key n=2 value=7/2 tail=-1*x^3", "alpha 1 1", "!alpha -1 1"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2", "!alpha 7 1",
             "alpha 1 1", "key n=2 value=7/2 tail=-1*x^3"],
    # normalize names a parameter of the embedding's ring (a KeyError was
    # a traceback); embedding errors are reported at the header
    _RING + ["![embedding o]", "ring R", "x = t", "y = t^2", "normalize q 1"],
    # and 1/2, which GF(2) has no element for
    ["[field]", "base F 2", "[ring R]", "params x y", "[embedding o]",
     "ring R", "x = t", "!y = 1/2*t^2"],
    # a ring's levels lie between 0 and the tower's height (0 over Q)
    _RING + ["!levels -1"],
    _RING + ["!levels 5"],
    # refused at once: trial division up to sqrt(p) would not finish
    ["[field]", "!base F 1000000000000000000000000000057"],
    # an interval table is lo/hi pairs, each nested in the one before
    ["[field]", "base Q", "!irrational pi interval 3 4 31/10"],
    ["[field]", "base Q", "!irrational pi interval 3 4 5 6"],
    # a directive set twice in one section replaced the first setting
    # without notice; keys and tower levels may repeat
    ["[field]", "base Q", "extend a minpoly 1 0", "!base Q"],
    ["[field]", "base Q", "irrational pi default",
     "!irrational pi default"],
    # every rank-2 value binds to the first irrational, so a second one,
    # whatever its name and in whichever section, went unused
    ["[field]", "base Q", "irrational pi default",
     "!irrational e interval 2 3 27/10 28/10"],
    ["[field]", "base Q", "irrational pi default", "[ring R]", "params x y",
     "[field]", "!irrational e interval 2 3 27/10 28/10"],
    ["[field]", "base Q", "[ring R]", "params x y", "!params u v"],
    _RING + ["levels 0", "!levels 0"],
    _RING + ["[embedding o]", "ring R", "truncate 20", "x = t",
             "y = t^2", "!truncate 40"],
    _RING + ["[embedding o]", "ring R", "!ring R", "x = t", "y = t^2"],
    _RING + ["[embedding o]", "ring R", "x = t", "y = t^2",
             "normalize x 1", "!normalize y 3/2"],
    _RING + ["[embedding o]", "ring R", "x = t", "y = t^2", "!x = t^3"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2", "!values 2 3"],
    _RING + ["[valuation nu]", "ring R", "!ring R", "values 1 3/2"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2",
             "key n=2 value=7/2 tail=-1*x^3", "alpha 1 1", "!alpha 1 5"],
    _RING + ["[embedding o]", "ring R", "x = t^2", "y = t^3",
             "[valuation nu]", "ring R", "values 1 3/2", "oracle o",
             "!oracle o"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2", "terminal",
             "!terminal"],
    _RING + ["[extension e]", "from R to R", "!from R to R", "x = x",
             "y = y"],
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "degree 1",
             "!degree 2"],
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "char 0",
             "!char 0"],
    _RING + ["[extension e]", "from R to R", "x = x", "y = y",
             "unique true", "!unique false"],
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "!y = x + y"],
    # a field degree is at least 1 and a truncation order positive; both
    # were reported at the section header, truncate as a series error
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "!degree 0"],
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "!degree -2"],
    _RING + ["[embedding o]", "ring R", "!truncate 0", "x = t", "y = t^2"],
    _RING + ["[embedding o]", "ring R", "!truncate -1", "x = t", "y = t^2"],
    # sections: an unknown one, one with no name, and lines before any
    ["[field]", "base Q", "![rings R]", "params x y"],
    _RING + ["![valuation]", "ring R", "values 1 3/2"],
    ["!base Q", "[field]"],
    # field lines
    ["[field]", "!base X"],
    ["[field]", "base Q", "!irrational pi foo"],
    ["[field]", "base Q", "!extend a foo 1 0"],
    ["[field]", "!basis Q"],
    # directives no section knows, and a from line without its "to"
    _RING + ["[embedding o]", "ring R", "x = t", "y = t^2", "!order 3"],
    _RING + ["[valuation nu]", "ring R", "values 1 3/2", "!keys 2"],
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "!degre 2"],
    _RING + ["[extension e]", "!from R R", "x = x", "y = y"],
    # oracles: an undeclared one, and one on another ring
    _RING + ["[valuation nu]", "ring R", "values 1 3/2", "!oracle o"],
    _RING + ["[ring S]", "params u v", "[embedding o]", "ring S", "u = t",
             "v = t^2", "[valuation nu]", "ring R", "values 1 3/2",
             "!oracle o"],
    # parameters a ring lacks, and a rank-2 value with no irrational
    _RING + ["[extension e]", "from R to R", "x = x", "y = y", "!z = x"],
    _RING + ["[embedding o]", "ring R", "x = t", "y = t^2", "!z = t^3"],
    _RING + ["[valuation nu]", "ring R", "!values 1 (1,1)"],
    # series terms: unreadable, empty, and two with no sign between them
    _RING + ["[embedding o]", "ring R", "x = t", "!y = t^2 $"],
    _RING + ["[embedding o]", "ring R", "x = t", "!y = t^2 + "],
    _RING + ["[embedding o]", "ring R", "x = t", "!y = t^2 t^3"],
    # an exponent with one parenthesis was read as if it were balanced
    _RING + ["[embedding o]", "ring R", "!x = t^(2", "y = t^3"],
    _RING + ["[embedding o]", "ring R", "x = t^2", "!y = t^3)"],
], ids=["base", "base-F-x", "irrational", "levels-two", "bare-ring",
        "bare-truncate", "alpha-x", "key-n-two", "key-n-0", "key-n--1",
        "key-n-x", "unique-maybe", "degree-many", "params-x-x",
        "extend-twice", "char-1", "char-4", "char-2-over-Q", "tail-1/0",
        "tail-3/2/5", "series-exponent-1/0", "alpha-1/0", "alpha-0",
        "alpha--1", "alpha-7", "normalize-q",
        "series-1/2-over-F2", "levels--1", "levels-5-over-Q",
        "base-F-30-digit-prime", "interval-odd", "interval-not-nested",
        "base-twice", "irrational-twice", "irrational-other-name",
        "irrational-later-section", "params-twice", "levels-twice",
        "truncate-twice", "embedding-ring-twice", "normalize-twice",
        "series-twice", "values-twice", "valuation-ring-twice",
        "alpha-1-twice", "oracle-twice", "terminal-twice", "from-twice",
        "degree-twice", "char-twice", "unique-twice", "image-twice",
        "degree-0", "degree--2", "truncate-0", "truncate--1",
        "unknown-section", "unnamed-valuation", "before-any-section",
        "base-X", "irrational-pi-foo", "extend-foo", "unknown-field-line",
        "unknown-embedding-line", "unknown-valuation-line",
        "unknown-extension-line", "from-R-R", "undeclared-oracle",
        "oracle-on-other-ring", "image-for-z", "series-for-z",
        "rank-2-value-no-irrational", "bad-series-term",
        "empty-series-term", "series-terms-without-sign",
        "series-exponent-open-only", "series-exponent-close-only"])
def test_malformed_directive_is_a_parse_error(tmp_path, lines):
    code, err, bad = _check_error(tmp_path, lines)
    assert code == 2
    assert err.startswith("parse error: line %d: " % bad), err
    assert "Traceback" not in err


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["check", str(SCN / "v1.scn")]) == 0
    with pytest.raises(SystemExit) as err:
        main(["run"])
    assert err.value.code == 2
    assert capsys.readouterr().err.startswith("usage: valtool run")
    assert built.count("valtool") == 1


@pytest.mark.parametrize("bound, code", [("1/0", 2), ("inf", 2), ("x", 2),
                                         ("0.5", 0)])
def test_value_bound_must_be_an_exact_rational(bound, code, capsys):
    argv = ["run", str(SCN / "v1.scn"), "--value-bound", bound]
    if code:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code
        err = capsys.readouterr().err
        assert "usage: valtool run" in err and "--value-bound" in err
    else:
        assert main(argv) == 0


@pytest.mark.parametrize("name, command, bad", [
    ("v1", "graded nu 2", "graded nu -1"),
    ("v1", "graded nu 2", "graded nu 1/2"),
    ("v1", "blowup nu 1", "blowup nu -1"),
    ("v1", "blowup nu 1", "blowup nu two"),
    ("def2", "fingen ext nu nustar 4", "fingen ext nu nustar -1"),
    # a malformed number in a command is refused at its line as well
    ("v1", "eval nu y^2+x^3", "eval nu 1/0*x"),
])
def test_negative_or_non_integer_depth_is_refused_at_its_line(
        tmp_path, name, command, bad):
    code, err, line = _run_error(tmp_path, name, command, bad)
    assert code == 2
    assert err.startswith("error: line %d: " % line), err


def _run_error(tmp_path, name, command, bad):
    """Exit code and stderr of ``valtool run`` on a shipped scenario whose
    command line ``command`` reads ``bad``, and that line's number."""
    text = (SCN / ("%s.scn" % name)).read_text()
    line = 1 + text.splitlines().index(command)
    path = tmp_path / "bad.scn"
    path.write_text(text.replace(command, bad))
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("run", str(path))
    return code, err.getvalue(), line


@pytest.mark.parametrize("name, command, bad", [
    # missing arguments faulted with an IndexError (exit 1)
    ("v1", "validate nu", "validate"),
    ("v1", "eval nu y^2+x^3", "eval"),
    ("def2", "fingen ext nu nustar 4", "fingen ext nu"),
    ("disc", "split ext nu candidates branch1 branch2 probe y-x", "split ext"),
    # a split with no candidates reported "splitting witnessed: False"
    ("disc", "split ext nu candidates branch1 branch2 probe y-x",
     "split ext nu candidates"),
    ("disc", "split ext nu candidates branch1 branch2 probe y-x",
     "split ext nu candidates probe y-x"),
    ("def2", "ramify ext nu nustar", "ramify ext nu nustar using"),
    # extra words were dropped without notice (exit 0)
    ("v1", "blowup nu 1", "blowup nu 2 3"),
    ("def2", "ramify ext nu nustar", "ramify ext nu nustar foo bar"),
], ids=["validate", "eval", "fingen-ext-nu", "split-ext",
        "split-no-candidates", "split-probe-only", "ramify-using",
        "blowup-extra", "ramify-foo-bar"])
def test_command_with_the_wrong_arguments_is_refused_at_its_line(
        tmp_path, name, command, bad):
    code, err, line = _run_error(tmp_path, name, command, bad)
    assert code == 2
    assert err.startswith("error: line %d: usage: %s " % (line, bad.split()[0])), err


@pytest.mark.parametrize("normalize", [True, False])
def test_embedding_normalize_sets_the_oracle_scale(normalize):
    # v1 with every value doubled: the series x -> t^2 values x at 1 unless
    # "normalize x 2" rescales t
    text = (SCN / "v1.scn").read_text().replace(
        "values 1 3/2", "values 2 3").replace("value=7/2", "value=7")
    if normalize:
        text = text.replace("truncate 40", "truncate 40\nnormalize x 2")
    rep = validate_sequence(parse_scenario(text).valuations["nu"])
    lines = [l for l in rep.lines() if "oracle confirms value of key" in l]
    assert len(lines) == 3
    assert all(l.startswith("PASS" if normalize else "FAIL") for l in lines)
    assert rep.ok == normalize


@pytest.mark.parametrize("depth, code", [("-1", 2), ("x", 2), ("0", 0)])
def test_depth_option_is_a_nonnegative_integer(depth, code, capsys):
    argv = ["run", str(SCN / "def2.scn"), "--depth", depth]
    if code == 2:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        err = capsys.readouterr().err
        assert "usage: valtool run" in err and "--depth" in err
    else:
        assert main(argv) == code
