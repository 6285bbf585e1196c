"""The package root: its version and its eight layer modules, bound on first access."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import sstkalman

LAYERS = ("channel", "convcode", "covar_mi", "gf2", "kalman", "parity_prob", "qli_search",
          "sstdec")


def test_the_root_binds_each_layer_module_and_lists_it():
    for name in LAYERS:
        module = getattr(sstkalman, name)
        assert isinstance(module, types.ModuleType)
        assert module is sys.modules[f"sstkalman.{name}"]
    assert set(LAYERS) <= set(dir(sstkalman))
    assert "__version__" in dir(sstkalman)
    with pytest.raises(AttributeError, match="'sstkalman' has no attribute 'no_such_layer'"):
        sstkalman.no_such_layer
    assert getattr(sstkalman, "no_such_layer", None) is None


ROOT_SCRIPT = f"""
import sys
import sstkalman

def layers():
    return sorted(m for m in sys.modules if m.startswith("sstkalman."))

# the root imports no layer module, and no numpy
assert layers() == [], layers()
assert "numpy" not in sys.modules
assert sstkalman.__version__ == "0.1.0"
assert {set(LAYERS)!r} <= set(dir(sstkalman))
assert layers() == [], layers()
# a layer is imported on its first access, with those it imports itself
assert sstkalman.gf2.__name__ == "sstkalman.gf2"
assert layers() == ["sstkalman.gf2"], layers()
from sstkalman import parity_prob
assert sstkalman.parity_prob is parity_prob
assert "numpy" not in sys.modules
try:
    from sstkalman import no_such_layer
except ImportError:
    pass
else:
    raise AssertionError("from sstkalman import no_such_layer did not raise")
print("ok")
"""


def test_the_root_imports_each_layer_on_its_first_access():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", ROOT_SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
