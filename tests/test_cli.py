import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from valtool.cli import main
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


def test_empty_command_list():
    scenario = parse_scenario("[field]\nbase Q\n")
    report = run_scenario(scenario)
    assert report.ok and report.sections == []
