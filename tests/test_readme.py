"""README.md's Python examples run as written.

The ```python blocks are executed in order in one namespace, as a reader
pasting them into one session would, and every `print(...)  # expected`
line must print what its comment says.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def test_readme_python_blocks_run(capsys):
    blocks = BLOCK.findall(README.read_text())
    assert len(blocks) >= 2  # the pipeline example and the direct encoder call
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    expected = [
        line.split("#", 1)[1].strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert capsys.readouterr().out.splitlines() == expected
