"""What importing the package loads: no ``scipy.signal``.

``scipy.signal`` pulls in ``scipy.stats``, ``optimize``, ``sparse`` and more,
tens of MB of resident memory in every process, and no code path needs it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import cruse, cruse.cli, cruse.datagen, cruse.metrics, cruse.streaming
print(" ".join(sorted(m for m in sys.modules if m == "scipy.signal" or m.startswith("scipy.signal."))))
"""


def test_importing_the_package_loads_no_scipy_signal():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                            text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
