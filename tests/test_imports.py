"""Every valtool module imports on its own.

A module that only imports when some other module was loaded first hides an
import cycle.  The check runs in a child interpreter: dropping modules from
this process's ``sys.modules`` would split class identities between tests.
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import valtool

# argv: the directory holding the package, then the modules to import
CHILD = """
import importlib
import sys

sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "valtool"]:
        del sys.modules[loaded]
    importlib.import_module(name)
"""


def test_every_module_imports_alone():
    names = ["valtool." + m.name for m in pkgutil.iter_modules(valtool.__path__)]
    assert {"valtool.extension", "valtool.graded", "valtool.genseq"} <= set(names)
    root = str(Path(valtool.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", CHILD, root, *names],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
