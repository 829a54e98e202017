"""The default outputs stay as committed under tests/golden/.

Each case of tests/golden/regenerate.py is rerun and every output compared
with its golden file: text exactly, numbers to 1e-12 relative (so that a
change in numpy's summation order does not fail it), and the same lines,
the same columns and the same files.  A change that moves a number
regenerates the files with that script and says so.
"""

import importlib.util
import math
import shutil
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

NUMBER = regenerate.NUMBER
RTOL = 1e-12


def _close(x: float, y: float) -> bool:
    return regenerate.relative_change(x, y) <= RTOL


def assert_same_output(expected: str, actual: str, where: str) -> None:
    """Line by line: the text between numbers equal, the numbers within RTOL."""
    want, got = expected.splitlines(), actual.splitlines()
    assert len(got) == len(want), f"{where}: {len(got)} lines, expected {len(want)}"
    for line, (w, g) in enumerate(zip(want, got), 1):
        assert NUMBER.split(g) == NUMBER.split(w), f"{where}:{line}: {g!r}, expected {w!r}"
        for x, y in zip(NUMBER.findall(w), NUMBER.findall(g)):
            assert _close(float(x), float(y)), f"{where}:{line}: {y} != {x}"


@pytest.mark.parametrize("case", list(regenerate.CASES))
def test_outputs_match_golden(case, tmp_path):
    outputs = regenerate.run(case, tmp_path)
    golden = {p.name: p.read_text() for p in (GOLDEN / case).iterdir()}
    assert sorted(outputs) == sorted(golden)
    for name, text in golden.items():
        assert_same_output(text, outputs[name], f"{case}/{name}")


@pytest.mark.parametrize(
    "actual",
    [
        "a,b\n1,2.5\n",  # a missing row
        "a,b\n1,2.5\n3,4\n5,6\n",  # an extra row
        "a\n1\n3\n",  # a missing column
        "a,b,c\n1,2.5,0\n3,4,0\n",  # an extra column
        "a,B\n1,2.5\n3,4\n",  # other text
        "a,b\n1,2.5000000001\n3,4\n",  # a number moved by 4e-11
        "a,b\n1,inf\n3,4\n",  # a number that became infinite
    ],
)
def test_comparison_fails_on_any_change(actual):
    with pytest.raises(AssertionError):
        assert_same_output("a,b\n1,2.5\n3,4\n", actual, "report.csv")


def test_comparison_allows_rounding_in_the_last_digits():
    assert_same_output(
        "x 0.30000000000000004,nan\n", "x 0.29999999999999999,nan\n", "report.csv"
    )


def test_largest_change_is_over_every_number_and_none_on_other_text():
    old = {"report.csv": "a,b\n1,2.5\n3,nan\n", "stdout.txt": "ratio 0\n"}
    assert regenerate.largest_change(old, dict(old)) == 0.0
    moved = {"report.csv": "a,b\n1,2.5000000001\n3,nan\n", "stdout.txt": "ratio 0\n"}
    assert regenerate.largest_change(old, moved) == pytest.approx(4e-11, rel=1e-3)
    assert regenerate.largest_change(old, {**old, "stdout.txt": "ratio 1e-300\n"}) == 1.0
    assert regenerate.largest_change(old, {**old, "stdout.txt": "ratio inf\n"}) == math.inf
    for other in (
        {**old, "stdout.txt": "ratio: 0\n"},  # other text
        {**old, "stdout.txt": "ratio 0\nratio 0\n"},  # an extra line
        {"report.csv": old["report.csv"]},  # a missing file
    ):
        assert regenerate.largest_change(old, other) is None


def _golden_copy(tmp_path, monkeypatch, cases):
    """A copy of the golden files of `cases` under tmp_path, taken as the
    golden directory, with the first number of each stdout.txt moved."""
    monkeypatch.setattr(regenerate, "GOLDEN", tmp_path)
    moved = {}
    for case in cases:
        shutil.copytree(GOLDEN / case, tmp_path / case)
        path = tmp_path / case / regenerate.STDOUT
        moved[case] = NUMBER.sub(lambda m: repr(float(m.group()) + 0.5), path.read_text(), count=1)
        path.write_text(moved[case])
    return moved


def test_regenerate_writes_only_the_named_cases(tmp_path, monkeypatch, capsys):
    moved = _golden_copy(tmp_path, monkeypatch, ["roundtrip", "doubling"])
    assert regenerate.main(["roundtrip"]) == 0
    assert capsys.readouterr().out == (
        f"wrote {tmp_path / 'roundtrip'}: largest relative change 1\n"
    )
    for name in ("report.csv", regenerate.STDOUT):
        golden = (GOLDEN / "roundtrip" / name).read_text()
        assert (tmp_path / "roundtrip" / name).read_text() == golden
    assert (tmp_path / "doubling" / regenerate.STDOUT).read_text() == moved["doubling"]


def test_regenerate_check_prints_the_change_and_writes_nothing(tmp_path, monkeypatch, capsys):
    moved = _golden_copy(tmp_path, monkeypatch, ["roundtrip"])
    before = {p.name: p.stat().st_mtime_ns for p in (tmp_path / "roundtrip").iterdir()}
    # a moved number fails the check
    assert regenerate.main(["--check", "roundtrip"]) == 1
    assert capsys.readouterr().out == (
        f"checked {tmp_path / 'roundtrip'}: largest relative change 1\n"
    )
    assert (tmp_path / "roundtrip" / regenerate.STDOUT).read_text() == moved["roundtrip"]
    assert {p.name: p.stat().st_mtime_ns for p in (tmp_path / "roundtrip").iterdir()} == before
    with pytest.raises(SystemExit):
        regenerate.main(["--check", "no-such-case"])


def test_regenerate_check_passes_only_byte_identical_cases(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regenerate, "GOLDEN", tmp_path)
    for case in ("roundtrip", "doubling"):
        shutil.copytree(GOLDEN / case, tmp_path / case)
    assert regenerate.main(["--check", "roundtrip", "doubling"]) == 0
    assert capsys.readouterr().out == "".join(
        f"checked {tmp_path / case}: largest relative change 0\n"
        for case in ("roundtrip", "doubling")
    )
    # "depth 04" moves no number, but it is a changed byte
    path = tmp_path / "doubling" / regenerate.STDOUT
    text = path.read_text()
    assert "at depth 4," in text
    path.write_text(text.replace("at depth 4,", "at depth 04,"))
    assert regenerate.main(["--check", "roundtrip", "doubling"]) == 1
    assert capsys.readouterr().out.endswith(
        f"checked {tmp_path / 'doubling'}: largest relative change 0\n"
    )
