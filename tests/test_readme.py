"""The README's Python examples run against the package as it is, so an
API that the docs use cannot be deleted or renamed without this failing."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out
