"""The README's library example runs and does what its comments say."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    """The first python code block under the README's ``## Library use``."""
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE).group(1)


def test_readme_library_example(capsys):
    names: dict = {}
    exec(compile(_library_example(), str(README), "exec"), names)
    assert capsys.readouterr().out.splitlines()[0] == "4813441"   # MACs/frame
    gains = names["gains"]
    np.testing.assert_allclose(names["first"], gains[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(names["rest"], gains[1:], rtol=0, atol=1e-12)
    assert len(names["streamed"]) == len(names["batch"])
    np.testing.assert_allclose(names["streamed"], names["batch"], rtol=0, atol=1e-10)
    assert len(names["out"]) == 640   # k = 4 hops
