"""Each module imports on its own, and the light ones load no numpy.

Both checks run in a fresh interpreter, so modules that the test session
already imported cannot hide a circular import or a heavy dependency.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "vulncascade").glob("*.py")
                 if p.stem != "__init__")

EACH_ALONE = """
import importlib, sys
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "vulncascade"]:
        del sys.modules[key]
    importlib.import_module("vulncascade." + name)
    print(name)
"""

NO_NUMPY = """
import sys
import vulncascade.errors
import vulncascade.normalizer
print("numpy" in sys.modules)
"""


def run_fresh(code, *args):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_every_module_imports_alone():
    assert "cli" in MODULES and "serialize" in MODULES
    assert run_fresh(EACH_ALONE, *MODULES) == MODULES


def test_normalizer_and_errors_load_no_numpy():
    assert run_fresh(NO_NUMPY) == ["False"]
