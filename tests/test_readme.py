"""The README's Python examples and command lines run against the package
as it is, so an API, a config key, a flag or a subcommand that the docs use
cannot be deleted or renamed without this failing."""

import re
import shlex
from pathlib import Path

from treetrace.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    # every `treetrace` line of the command block, run on the README's own
    # config file, so a doc that names a removed key, flag or subcommand fails
    text = README.read_text()
    [config] = re.findall(r"```\n# cfg\.txt\n(.*?)```", text, flags=re.S)
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    [commands] = [b for b in blocks if "treetrace gen" in b]
    lines = [line for line in commands.splitlines() if line.startswith("treetrace ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text(config)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert capsys.readouterr().err == ""
