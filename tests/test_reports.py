"""`valtool run` reports on the shipped scenarios, pinned byte for byte.

The files under data/reports were written by ``valtool run FILE --format
FMT`` for each shipped scenario and format; a change that alters any report
must re-record them on purpose.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import valtool
from valtool.cli import main

REPORTS = Path(__file__).resolve().parent / "data" / "reports"
NAMES = ("v1", "def2", "pi2", "disc", "corn")
FORMATS = ("text", "csv", "dot")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", NAMES)
def test_shipped_report_is_unchanged(name, fmt):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["run", str(valtool.scenario_path(name)),
                     "--format", fmt])
    assert code == 0
    want = (REPORTS / ("%s.%s.txt" % (name, fmt))).read_bytes()
    assert buf.getvalue() == want.decode("utf-8")


def test_every_report_file_is_pinned():
    assert sorted(p.name for p in REPORTS.iterdir()) == sorted(
        "%s.%s.txt" % (n, f) for n in NAMES for f in FORMATS)
