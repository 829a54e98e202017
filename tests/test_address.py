import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetrace import BoundaryFunction, TreeFunction, extend, generate
from treetrace.address import (
    _ORDER,
    CHUNK_ROWS,
    cell_leaves,
    check_digits,
    child_minus_parent,
    digits_index,
    index_digits,
    level_addresses,
    level_slice,
)
from treetrace.harness import _FAMILY_CODES

# ------------------------------------------------------------------ oracle


def oracle_address(K, level, index):
    digits = []
    for _ in range(level):
        index, d = divmod(index, K)
        digits.append(str(d))
    return "".join(reversed(digits))


def split_levels(F):
    """The level-order values of a tree function as one array per level."""
    return [F.values[level_slice(F.K, n)] for n in range(F.depth + 1)]


def oracle_write(path, K, depth, levels):
    """The original per-row writer of both function types."""
    with open(path, "w", newline="") as fh:
        fh.write("K,N\n")
        fh.write(f"{K},{depth}\n")
        fh.write("address,value\n")
        first = depth + 1 - len(levels)
        for n, arr in enumerate(levels, start=first):
            for i, v in enumerate(arr):
                fh.write(f"{oracle_address(K, n, i)},{v:.17g}\n")


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 2.2250738585072014e-308]
values_pool = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False)),
    min_size=1,
    max_size=12,
)


def fill(pool, size, seed):
    """An array of `size` values drawn from `pool` (every entry used if room)."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(pool), size)
    idx[: min(size, len(pool))] = np.arange(min(size, len(pool)))
    return np.asarray(pool, dtype=float)[idx]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([2, 3, 10]),
    st.integers(1, 4),
    values_pool,
    st.integers(0, 2**32 - 1),
)
def test_writer_matches_per_row_oracle_and_roundtrips_bitwise(K, depth, pool, seed):
    u = BoundaryFunction(K, depth, fill(pool, K**depth, seed))
    F = TreeFunction(K, depth, np.concatenate([fill(pool, K**n, seed + n) for n in range(depth + 1)]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        u.to_csv(tmp / "u.csv")
        oracle_write(tmp / "u0.csv", K, depth, [u.values])
        assert (tmp / "u.csv").read_bytes() == (tmp / "u0.csv").read_bytes()
        assert same_bits(BoundaryFunction.from_csv(tmp / "u.csv").values, u.values)

        F.to_csv(tmp / "F.csv")
        oracle_write(tmp / "F0.csv", K, depth, split_levels(F))
        assert (tmp / "F.csv").read_bytes() == (tmp / "F0.csv").read_bytes()
        assert same_bits(TreeFunction.from_csv(tmp / "F.csv").values, F.values)


def chunk_rows(K):
    """Rows per chunk of the codec: the largest power of K that is at most
    CHUNK_ROWS (a level with fewer rows is one chunk)."""
    rows = K
    while rows * K <= CHUNK_ROWS:
        rows *= K
    return rows


def test_writer_matches_oracle_across_chunks(tmp_path):
    # leaf levels of 4, 9 and 10 chunks of K^m rows (4096, 2187 and 1000),
    # in both file kinds, with values over the whole float range
    for K, depth in ((2, 14), (3, 9), (10, 4)):
        assert K**depth >= 4 * chunk_rows(K) and chunk_rows(K) * K > CHUNK_ROWS
        rng = np.random.default_rng(K)

        def draw(size):
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
            values[: len(SPECIAL)] = SPECIAL[:size]
            return values

        u = BoundaryFunction(K, depth, draw(K**depth))
        F = TreeFunction(K, depth, np.concatenate([draw(K**n) for n in range(depth + 1)]))
        for fn, levels in ((u, [u.values]), (F, split_levels(F))):
            fn.to_csv(tmp_path / "new.csv")
            oracle_write(tmp_path / "old.csv", K, depth, levels)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
            assert same_bits(type(fn).from_csv(tmp_path / "new.csv").values, fn.values)


def test_k_above_ten_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="K <= 10"):
        BoundaryFunction(11, 1, np.zeros(11)).to_csv(tmp_path / "u.csv")
    with pytest.raises(ValueError, match="K <= 10"):
        TreeFunction(12, 1, np.zeros(13)).to_csv(tmp_path / "F.csv")
    (tmp_path / "k11.csv").write_text("K,N\n11,1\naddress,value\n")
    with pytest.raises(ValueError, match="K <= 10"):
        BoundaryFunction.from_csv(tmp_path / "k11.csv")


# ------------------------------------------------------------------ reader


def write_rows(path, K, depth, rows):
    path.write_text(f"K,N\n{K},{depth}\naddress,value\n" + "".join(r + "\n" for r in rows))
    return path


GOOD = ["00,1", "01,2", "10,3", "11,4"]


def test_reader_accepts_canonical_file_and_trailing_blank_lines(tmp_path):
    path = write_rows(tmp_path / "u.csv", 2, 2, GOOD + ["", "  ", ""])
    assert list(BoundaryFunction.from_csv(path).values) == [1.0, 2.0, 3.0, 4.0]
    path.write_text(path.read_text().rstrip("\n \t"))  # no final newline
    assert list(BoundaryFunction.from_csv(path).values) == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize(
    "rows, line",
    [
        (["00,1", "01,2", "1,3", "11,4"], 6),  # short address
        (["00,1", "01,2", "100,3", "11,4"], 6),  # long address
        (["00,1", "01,2", "02,3", "11,4"], 6),  # digit 2 with K = 2
        (["00,1", "01,2", "11,4"], 6),  # missing row
        (["00,1", "01,2", "10,3"], 7),  # file ends early
        (GOOD + ["01,5"], 8),  # duplicate row
        (["00,1", "01,2", "01,5", "10,3", "11,4"], 6),  # duplicate inside
        (["00,1", "10,3", "01,2", "11,4"], 5),  # permuted rows
        (["00,1", "01,2", "", "10,3", "11,4"], 6),  # blank line inside
        (["00,1", "01,2;3", "10,3", "11,4"], 5),  # no comma
        (["00,1", "01,2,3", "10,3", "11,4"], 5),  # three fields
        (["00,1", "01,abc", "10,3", "11,4"], 5),  # not a number
        (["00,1", "01,nan", "10,3", "11,4"], 5),  # not finite
    ],
)
def test_reader_rejects_malformed_rows_naming_the_line(tmp_path, rows, line):
    path = write_rows(tmp_path / "u.csv", 2, 2, rows)
    with pytest.raises(ValueError, match=f"line {line}:"):
        BoundaryFunction.from_csv(path)


def test_reader_rejects_a_file_of_the_other_kind(tmp_path):
    u = generate("iid-uniform", K=2, depth=3, seed=1)
    u.to_csv(tmp_path / "u.csv")
    extend(u).to_csv(tmp_path / "F.csv")
    with pytest.raises(ValueError, match="line 4: expected address '', got '000'"):
        TreeFunction.from_csv(tmp_path / "u.csv")
    with pytest.raises(ValueError, match="line 4: expected address '000', got ''"):
        BoundaryFunction.from_csv(tmp_path / "F.csv")


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("K;N\n2,1\naddress,value\n0,1\n1,2\n", 1),
        ("K,N\n2\naddress,value\n0,1\n1,2\n", 2),
        ("K,N\n2,0\naddress,value\n", 2),
        ("K,N\n2,1\naddr,value\n0,1\n1,2\n", 3),
    ],
)
def test_reader_rejects_bad_headers(tmp_path, text, line):
    path = tmp_path / "u.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line}:"):
        BoundaryFunction.from_csv(path)


def test_reader_names_the_line_beyond_the_first_chunk(tmp_path):
    F = extend(generate("iid-uniform", K=2, depth=13, seed=2))
    F.to_csv(tmp_path / "F.csv")
    lines = (tmp_path / "F.csv").read_text().splitlines()
    # the first leaf row sits after the header and levels 0..12
    row = 3 + 2**13 + CHUNK_ROWS + 7
    assert lines[row - 1].startswith(format(CHUNK_ROWS + 7, "013b") + ",")
    lines[row - 1] = lines[row]
    (tmp_path / "F.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line {row}:"):
        TreeFunction.from_csv(tmp_path / "F.csv")


def test_reader_names_the_line_in_the_second_chunk_at_k_3(tmp_path):
    # a leaf level of 3^8 rows is three chunks of 2187; the bad row is the
    # eighth of the second
    F = extend(generate("iid-uniform", K=3, depth=8, seed=2))
    F.to_csv(tmp_path / "F.csv")
    lines = (tmp_path / "F.csv").read_text().splitlines()
    assert chunk_rows(3) == 2187
    # the first leaf row sits after the header and levels 0..7
    row = 4 + (3**8 - 1) // 2 + 2187 + 7
    address = np.base_repr(2187 + 7, 3).zfill(8)
    assert lines[row - 1].startswith(address + ",")
    lines[row - 1] = lines[row]
    (tmp_path / "F.csv").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        TreeFunction.from_csv(tmp_path / "F.csv")
    got = np.base_repr(2187 + 8, 3).zfill(8)
    assert str(err.value) == f"line {row}: expected address '{address}', got '{got}'; {_ORDER}"


# --------------------------------------------------------------- addressing


def test_level_addresses_values():
    assert level_addresses(2, 0, 0, 1) == [""]
    assert level_addresses(2, 2, 0, 4) == ["00", "01", "10", "11"]
    assert level_addresses(3, 3, 7, 8) == ["021"]
    assert level_addresses(10, 3, 998, 1000) == ["998", "999"]
    for K, level in ((2, 5), (3, 4), (10, 2)):
        assert level_addresses(K, level, 0, K**level) == [
            oracle_address(K, level, i) for i in range(K**level)
        ]
    with pytest.raises(ValueError, match="K <= 10"):
        level_addresses(11, 1, 0, 11)


def test_index_digits_roundtrip():
    for K, level in ((2, 5), (3, 4), (10, 3)):
        for i in range(K**level):
            digits = index_digits(K, level, i)
            assert len(digits) == level
            assert digits_index(K, digits) == i
    assert index_digits(3, 3, 7) == (0, 2, 1)
    assert index_digits(2, 0, 0) == ()
    with pytest.raises(ValueError):
        index_digits(2, 3, 8)
    with pytest.raises(ValueError):
        index_digits(2, 3, -1)


def test_check_digits_validation():
    assert check_digits(3, [0, "2", 1]) == (0, 2, 1)
    assert check_digits(2, (), max_level=0) == ()
    with pytest.raises(ValueError, match="digit 2 out of range for K=2"):
        check_digits(2, (0, 2))
    with pytest.raises(ValueError, match="digit -1"):
        digits_index(3, (-1,))
    with pytest.raises(ValueError, match="longer than depth 2"):
        check_digits(2, (0, 0, 0), max_level=2)


def test_cell_leaves_blocks():
    assert cell_leaves(2, 3, (1,)) == slice(4, 8)
    assert cell_leaves(3, 2, ()) == slice(0, 9)
    assert cell_leaves(3, 2, (2, 1)) == slice(7, 8)
    with pytest.raises(ValueError):
        cell_leaves(2, 2, (0, 0, 0))


def test_child_cell_masses_sum_to_parent():
    # a cell's mass is its share of the leaves; the children's leaf blocks
    # tile the parent's, so their masses add up to the parent's exactly
    depth = 4

    def mass(K, digits):
        block = cell_leaves(K, depth, digits)
        return Fraction(block.stop - block.start, K**depth)

    for K in (2, 3):
        assert mass(K, ()) == 1
        for digits in ((), (0,), (K - 1, 0), (K - 1, 0, 1)):
            kids = [digits + (d,) for d in range(K)]
            blocks = [cell_leaves(K, depth, c) for c in kids]
            parent = cell_leaves(K, depth, digits)
            assert blocks[0].start == parent.start and blocks[-1].stop == parent.stop
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert sum(mass(K, c) for c in kids) == mass(K, digits)
            assert all(mass(K, digits) == K * mass(K, c) for c in kids)
            assert mass(K, digits) == Fraction(1, K ** len(digits))
    assert mass(2, (0, 1, 1)) == Fraction(1, 8)
    assert mass(3, (0, 2)) == Fraction(1, 9)


def test_child_minus_parent_values():
    # levels [1], [3, 5], [0, 1, 2, 3] in level order: one row per parent
    values = np.array([1.0, 3.0, 5.0, 0.0, 1.0, 2.0, 3.0])
    diffs = child_minus_parent(2, values)
    assert diffs.tolist() == [[2.0, 4.0], [-3.0, -2.0], [-3.0, -2.0]]
    assert child_minus_parent(2, values[:1]).shape == (0, 2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 10]), st.integers(1, 5), st.data())
def test_level_order_rows_pair_each_vertex_with_its_parent(K, depth, data):
    size = level_slice(K, depth).stop
    assert [level_slice(K, n).stop for n in range(depth)] == [
        level_slice(K, n + 1).start for n in range(depth)
    ]
    values = np.random.default_rng(depth).uniform(size=size)
    diffs = child_minus_parent(K, values)
    assert diffs.shape == (level_slice(K, depth).start, K)
    for n in data.draw(st.lists(st.integers(0, depth - 1), min_size=1, max_size=5)):
        rows = diffs[level_slice(K, n)]
        i = data.draw(st.integers(0, K**n - 1))
        c = data.draw(st.integers(0, K - 1))
        child = index_digits(K, n + 1, i * K + c)
        assert child[:-1] == index_digits(K, n, i) and child[-1] == c
        parent_value = values[level_slice(K, n)][digits_index(K, child[:-1])]
        child_value = values[level_slice(K, n + 1)][digits_index(K, child)]
        assert rows[i, c] == child_value - parent_value


def oracle_level_averages(u):
    """The former list form: the leaves, then each level's block means,
    bottom up, returned top down."""
    out = [u.values]
    cur = u.values
    for _ in range(u.depth):
        cur = cur.reshape(-1, u.K).mean(axis=1)
        out.append(cur)
    return out[::-1]


# bounded so that no block sum overflows
finite_pool = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.floats(-1e300, 1e300)), min_size=1, max_size=12
)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 10]), st.integers(1, 5), finite_pool, st.integers(0, 2**32 - 1))
def test_level_averages_match_the_per_level_oracle_bitwise(K, depth, pool, seed):
    u = BoundaryFunction(K, depth, fill(pool, K**depth, seed))
    averages = u.level_averages()
    assert same_bits(averages, np.concatenate(oracle_level_averages(u)))
    assert same_bits(averages[level_slice(K, depth)], u.values)


@pytest.mark.parametrize("K, depth", [(2, 7), (2, 16), (3, 5)])
def test_random_vertex_stream_matches_per_level_draws(K, depth):
    F = generate("random-vertex", K=K, depth=depth, seed=11)
    rng = np.random.default_rng([_FAMILY_CODES["random-vertex"], 11, depth, K])
    levels = [rng.uniform(size=K**n) for n in range(depth + 1)]
    assert same_bits(F.values, np.concatenate(levels))


def test_vertex_distance_validates_addresses():
    # the addresses of a vertex pair at K = 2, depth 3
    with pytest.raises(ValueError, match="digit 2"):
        check_digits(2, (0, 2), 3)
    with pytest.raises(ValueError, match="longer than depth"):
        check_digits(2, (0, 0, 0, 0), 3)
