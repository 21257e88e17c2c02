"""What importing the package loads: numpy, and no scipy module at all.

Any part of scipy loads its ``scipy._lib`` base, about 25 MB of resident
memory in every process, and ``scipy.signal`` tens of MB more; numpy's own
FFT and a small WAV reader do the work the package once took from scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import cruse, cruse.cli, cruse.audio_io, cruse.datagen, cruse.metrics, cruse.streaming
print(" ".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_importing_the_package_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                            text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
