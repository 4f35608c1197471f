"""Importing the layers loads no scipy subpackage beyond the ones they use.

scipy's import is most of the benchmark's set-up time, and each public
subpackage adds to it: under ``python -X importtime``, ``scipy.spatial.distance``
alone adds about 170 ms.  A new one has to be a deliberate choice, made by
editing ALLOWED.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ALLOWED = {"scipy.ndimage", "scipy.special", "scipy.version"}

# imports every module of the package in a fresh interpreter, then prints the
# layer names and the public scipy subpackages that are loaded
PROBE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import trailblaze
layers = [m.name for m in pkgutil.iter_modules(trailblaze.__path__)]
for name in layers:
    importlib.import_module("trailblaze." + name)
print(" ".join(layers))
print(" ".join(sorted({".".join(n.split(".")[:2]) for n in sys.modules
                       if n.startswith("scipy.") and not n.split(".")[1].startswith("_")})))
"""


def test_layers_load_only_the_known_scipy_subpackages():
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    layers, scipy = set(out[0].split()), set(out[1].split())
    assert {"classify", "encoding", "flowfields", "keypoints", "media", "roi", "shape"} <= layers
    assert "scipy.ndimage" in scipy
    assert scipy <= ALLOWED, f"new scipy subpackages: {sorted(scipy - ALLOWED)}"
