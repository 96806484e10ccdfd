import csv
import io
import itertools
import math
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from glasscreen import data_pipeline
from glasscreen.data_pipeline import (
    CandidateCapError,
    CleanCounts,
    ComponentSchema,
    DataFormatError,
    EmptyClassError,
    GridConfig,
    TgBand,
    TripletIndexSampler,
    augment,
    clean_with_counts,
    enumerate_candidates,
    fit_normalization,
    load_candidates,
    load_dataset,
    normalize,
    split,
    transform_labels,
    write_dataset,
    write_table,
)
from glasscreen.numeric_core import RandomSource
from glasscreen.synthetic import generate_raw_samples
from sample_tables import assert_same_table, concat, labeled, table

SCHEMA3 = ComponentSchema(("A", "B", "C"))


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            ComponentSchema(("A", "A"))

    def test_rejects_single_component(self):
        with pytest.raises(ValueError):
            ComponentSchema(("A",))

    def test_schema_from_csv(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C,Tg\n0.5,0.3,0.2,400\n")
        assert load_dataset(p)[1].names == ("A", "B", "C")

    def test_schema_requires_tg_column(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C\n0.5,0.3,0.2\n")
        with pytest.raises(DataFormatError, match="Tg"):
            load_dataset(p)

    # a header ComponentSchema refuses is a data error that names the file
    @pytest.mark.parametrize("load, tg", [(load_dataset, ",Tg"), (load_candidates, "")],
                             ids=["dataset", "candidates"])
    @pytest.mark.parametrize("names, message", [
        ("A,A", "component names must be unique"),
        ("A,", "component names must be non-empty"),
        ("A", "schema needs at least 2 components")], ids=["duplicate", "empty", "one"])
    def test_refused_header_names_the_file(self, tmp_path, load, tg, names, message):
        p = write_csv(tmp_path / "t.csv", f"{names}{tg}\n")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: {message}$"):
            load(p)


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        p = write_csv(tmp_path / "d.csv",
                      "A,B,C,Tg\n0.5,0.3,0.2,400\n0.6,0.2,0.2,500\n0.1,0.1,0.8,\n")
        samples, schema = load_dataset(p)
        assert schema == SCHEMA3 and len(samples) == 3
        assert samples.tg[0] == 400.0
        assert samples.has_tg.tolist() == [True, True, False]
        assert np.array_equal(samples.fractions[1], [0.6, 0.2, 0.2])

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C,Tg\n0.5,0.3,0.2,400\n0.5,oops,0.2,400\n")
        with pytest.raises(DataFormatError, match="row 2"):
            load_dataset(p)

    def test_wrong_column_count_names_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C,Tg\n0.5,0.3,400\n")
        with pytest.raises(DataFormatError, match="row 1"):
            load_dataset(p)

    def test_header_only_gives_empty_list(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", "A,B,C,Tg\n")
        samples, _ = load_dataset(p)
        assert len(samples) == 0 and samples.fractions.shape == (0, 3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "absent.csv")

    # a bad byte in the header, or in the body after a bad row (the bad row
    # is not reported first)
    @pytest.mark.parametrize("blob", [
        b"A,B\xff,C,Tg\n0.5,0.3,0.2,400\n",
        b"A,B,C,Tg\n0.5,oops,0.2,400\n0.5,0.3,0.2,4\xff0\n"], ids=["header", "body"])
    def test_non_utf8_table_names_the_file(self, tmp_path, blob):
        p = tmp_path / "d.csv"
        p.write_bytes(blob)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: not UTF-8 text"):
            load_dataset(p)

    @pytest.mark.parametrize("cell, tg", [
        ("", None), ("  ", None), ("\t", None), ('""', None), ('" "', None),
        (" 400 ", 400.0), ('"400"', 400.0),
        ("\x1c400", "row 2: non-numeric Tg cell"), ("4OO", "row 2: non-numeric Tg cell")],
        ids=["empty", "spaces", "tab", "quoted-empty", "quoted-space", "padded", "quoted",
             "control-char", "letters"])
    def test_tg_cell_forms(self, tmp_path, cell, tg):
        """An empty or whitespace Tg cell is a missing Tg; any other cell is
        read by ``float``, which rejects U+001C..U+001F around a number."""
        p = write_csv(tmp_path / "d.csv", f"A,B,C,Tg\n0.5,0.3,0.2,400\n0.5,0.3,0.2,{cell}\n")
        if isinstance(tg, str):
            with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: {tg}$"):
                load_dataset(p)
            return
        samples, _ = load_dataset(p)
        assert samples.has_tg.tolist() == [True, tg is not None]
        np.testing.assert_equal(samples.tg[1], math.nan if tg is None else tg)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tables_match_row_parse(self, data):
        schema, text, plain = data.draw(dataset_tables(), label="table")
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "d.csv", text)
            assert_loads_like_reference(path, schema)
            with open(path, newline="", encoding="utf-8") as fh:
                next(csv.reader(fh))
                body = fh.read()
            fast = data_pipeline._parse_table_fast(path, body, schema.n + 1)
        assert (fast is not None) == plain

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_tables_match_row_parse(self, data):
        schema, text, _ = data.draw(dataset_tables(), label="table")
        text = mutate_table(data, text, schema.n + 1, ["blank", "extra", "missing", "non_numeric"])
        with tempfile.TemporaryDirectory() as tmp:
            assert_loads_like_reference(write_csv(Path(tmp) / "d.csv", text), schema)


def reference_dataset(path, n):
    """The data rows by ``csv`` and one ``float`` per cell as [(fractions,
    tg)], an empty Tg cell as None; or the text of the error for the first
    bad row."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    samples = []
    for index, row in enumerate(rows, start=1):
        if len(row) != n + 1:
            return f"{path}: row {index}: expected {n + 1} columns, got {len(row)}"
        try:
            fractions = np.array([float(cell) for cell in row[:-1]], dtype=np.float64)
        except ValueError:
            return f"{path}: row {index}: non-numeric fraction cell"
        if not row[-1].strip():
            samples.append((fractions, None))
            continue
        try:
            samples.append((fractions, float(row[-1])))
        except ValueError:
            return f"{path}: row {index}: non-numeric Tg cell"
    return samples


def assert_loads_like_reference(path, schema):
    """load_dataset gives reference_dataset's rows (equal fraction bytes, the
    same Tg bytes or None) or raises a DataFormatError with its text."""
    expected = reference_dataset(path, schema.n)
    if isinstance(expected, str):
        with pytest.raises(DataFormatError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value) == expected
        return
    got, got_schema = load_dataset(path)
    assert got_schema == schema and len(got) == len(expected)
    assert got.fractions.dtype == np.float64 and got.fractions.flags.c_contiguous
    assert got.fractions.tobytes() == b"".join(fractions.tobytes() for fractions, _ in expected)
    assert got.has_tg.tolist() == [tg is not None for _, tg in expected]
    assert got.tg[got.has_tg].tobytes() == np.array(
        [tg for _, tg in expected if tg is not None], dtype=np.float64).tobytes()
    for row, (_, tg) in zip(got, expected):
        assert row.tg is None if tg is None else type(row.tg) is float


def reference_candidate_text(schema, rows):
    """The candidate table written one ``repr`` per cell."""
    lines = [",".join(schema.names)] + [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


class TestLoadCandidates:
    @pytest.mark.parametrize("text,row", [
        ("A,B,C\n0.5,0.3,0.2\n0.5,0.5\n0.2,0.2\n", 2),
        ("A,B,C\n0.5,0.3,0.2\n0.1,0.1,0.8\n0.5,0.3,0.2,0.0\n", 3),
    ])
    def test_wrong_column_count_names_first_bad_row(self, tmp_path, text, row):
        p = write_csv(tmp_path / "c.csv", text)
        with pytest.raises(DataFormatError, match=f"row {row}: expected 3 columns"):
            load_candidates(p)

    def test_non_numeric_cell_names_first_bad_row(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "A,B,C\n0.5,0.3,0.2\n0.5,oops,0.2\nx,0.3,0.2\n")
        with pytest.raises(DataFormatError, match="row 2: non-numeric cell"):
            load_candidates(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_cell_names_first_bad_row(self, tmp_path, cell):
        p = write_csv(tmp_path / "c.csv",
                      f"A,B,C\n0.5,0.3,0.2\n0.5,0.3,0.2\n0.5,{cell},0.2\n{cell},0.3,0.2\n")
        with pytest.raises(DataFormatError, match="row 3: non-finite cell"):
            load_candidates(p)

    def test_header_only_gives_empty_table(self, tmp_path):
        for text in ("A,B,C\n", "A,B,C\r\n", "A,B,C"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy's loadtxt warns on a table without data
                got, schema = load_candidates(write_csv(tmp_path / "c.csv", text))
            assert got.shape == (0, 3)
            assert got.dtype == np.float64
            assert schema == SCHEMA3

    @pytest.mark.parametrize("blob", [
        b"A,B\xff,C\n0.5,0.3,0.2\n",
        b"A,B,C\n0.5,oops,0.2\n0.5,0.3,0.\xff2\n"], ids=["header", "body"])
    def test_non_utf8_table_names_the_file(self, tmp_path, blob):
        p = tmp_path / "c.csv"
        p.write_bytes(blob)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: not UTF-8 text"):
            load_candidates(p)

    # the width a checkpoint expects is screen's check, in test_cli
    def test_header_mismatch_and_empty_file(self, tmp_path):
        got, schema = load_candidates(write_csv(tmp_path / "c.csv", "A,B\n0.5,0.5\n"))
        assert got.tobytes() == np.array([[0.5, 0.5]]).tobytes() and schema.names == ("A", "B")
        with pytest.raises(DataFormatError, match="empty file"):
            load_candidates(write_csv(tmp_path / "e.csv", ""))

    def test_quoted_cells_parse_as_numbers(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", 'A,B,C\n"0.5","0.25",0.25\n0.1," 0.2",0.7\n')
        assert np.array_equal(load_candidates(p)[0], [[0.5, 0.25, 0.25], [0.1, 0.2, 0.7]])

    def test_result_is_c_contiguous_float64(self, tmp_path):
        rows = np.array([[0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.0, 1.0]])
        p = write_csv(tmp_path / "c.csv", reference_candidate_text(SCHEMA3, rows))
        got, schema = load_candidates(p)
        assert schema == SCHEMA3
        assert got.flags["C_CONTIGUOUS"]
        assert got.dtype == np.float64
        assert got.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("body,message", [
        ("0.5,0.3,0.2\n\n0.1,0.1,0.8\n", "row 2: expected 3 columns, got 0"),
        ("\n0.5,0.3,0.2\n", "row 1: expected 3 columns, got 0"),
        ("0.5,0.3,0.2\n\n", "row 2: expected 3 columns, got 0"),
        ("0.5,0.3,0.2\r\n\r\n", "row 2: expected 3 columns, got 0"),
        ("0.5,0.3,0.2\n  \n", "row 2: expected 3 columns, got 1"),
        ("0.5,0.3,0.2\r0.1,0.1,0.8\n\n0.2,0.2,0.6\n", "row 3: expected 3 columns, got 0"),
        ("0.5\t0.3\t0.2\n", "row 1: expected 3 columns, got 1"),
        ("0.5,0.3,0.2\n#0.5,0.3,0.2\n", "row 2: non-numeric cell"),
        ("0.5,0.3,0.2 # note\n", "row 1: non-numeric cell"),
        ("0.5,0.3,\x1c0.2\n", "row 1: non-numeric cell"),
        ("0.5,0.3,\n", "row 1: non-numeric cell"),  # a blank last cell is no missing Tg here
    ])
    def test_malformed_body_names_first_bad_row(self, tmp_path, body, message):
        p = write_csv(tmp_path / "c.csv", "A,B,C\n" + body)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: {message}$"):
            load_candidates(p)

    @pytest.mark.parametrize("body,rows", [
        ("1_0,0.5,0.25\n", [[10.0, 0.5, 0.25]]),  # float reads underscores; numpy does not
        ("0.5,0.3,0.2\r0.1,0.1,0.8", [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]),
        ('0.5,0.3,"0.2\n"\n', [[0.5, 0.3, 0.2]]),  # one row over two lines
    ])
    def test_tables_the_fast_parse_leaves_to_the_row_parse(self, tmp_path, body, rows):
        p = write_csv(tmp_path / "c.csv", "A,B,C\n" + body)
        assert load_candidates(p)[0].tobytes() == np.array(rows).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_well_formed_tables_match_row_parse(self, data):
        n, text = data.draw(candidate_tables(), label="table")
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "c.csv", text)
            expected = reference_candidates(path, n)
            got, schema = load_candidates(path)
            with open(path, newline="", encoding="utf-8") as fh:
                next(csv.reader(fh))
                body = fh.read()
            assert data_pipeline._parse_table_fast(path, body, n) is not None
        assert got.tobytes() == expected.tobytes()
        assert got.shape == expected.shape and got.flags["C_CONTIGUOUS"]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_tables_raise_the_row_parse_error(self, data):
        n, text = data.draw(candidate_tables(), label="table")
        text = mutate_table(data, text, n, ["blank", "extra", "missing", "non_numeric",
                                            "non_finite", "comment"])
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "c.csv", text)
            expected = reference_candidates(path, n)
            assert isinstance(expected, str)
            with pytest.raises(DataFormatError) as excinfo:
                load_candidates(path)
        assert str(excinfo.value) == expected


def reference_candidates(path, n):
    """The data rows by ``csv`` and one ``float`` per cell, or the text of the
    error for the first bad row (column count and non-numeric cells first,
    then non-finite ones)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    values = []
    for index, row in enumerate(rows, start=1):
        if len(row) != n:
            return f"{path}: row {index}: expected {n} columns, got {len(row)}"
        try:
            values.append([float(cell) for cell in row])
        except ValueError:
            return f"{path}: row {index}: non-numeric cell"
    table = np.array(values, dtype=np.float64).reshape(-1, n)
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        return f"{path}: row {bad[0] + 1}: non-finite cell"
    return table


# values that round-trip or stay finite when written in each form
CELL_FORMATS = (repr, "{:.17g}".format, "{:.20e}".format, "{:.6f}".format)
CELL_WRAPS = ("{}", '"{}"', " {} ", "{}  ", '" {}"', "\t{}")


# finite values, -0.0 and subnormals included, in random forms (repr, fixed,
# exponent; quoted or space-padded)
FINITE_CELL = st.tuples(
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072009e-308, 1 / 3]),
    st.sampled_from(CELL_FORMATS), st.sampled_from(CELL_WRAPS),
).map(lambda t: t[2].format(t[1](t[0])))


def table_text(draw, header, rows):
    """The header and rows joined by commas, each line ended by \n, \r\n or
    \r and the last one possibly by nothing."""
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(rows) + 1,
                            max_size=len(rows) + 1))
    if draw(st.booleans()):
        endings[-1] = ""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return "".join(line + end for line, end in zip(lines, endings))


@st.composite
def candidate_tables(draw):
    """(n, text) of a candidate table: component header, then rows of
    FINITE_CELLs, in table_text's line forms."""
    n = draw(st.integers(2, 5))
    rows = draw(st.lists(st.lists(FINITE_CELL, min_size=n, max_size=n), min_size=1, max_size=12))
    return n, table_text(draw, [f"C{i}" for i in range(n)], rows)


@st.composite
def dataset_tables(draw):
    """(schema, text, plain) of a composition/Tg table in table_text's line
    forms. Cells are FINITE_CELLs, or in some tables also nan/inf cells and
    empty Tg cells; ``plain`` says that every cell is a finite number."""
    n = draw(st.integers(2, 5))
    non_finite = ["nan", "inf", "-inf", "NaN", " -Infinity", "1e999", '"nan"']
    empty = ["", " ", '""']
    cell = FINITE_CELL
    tg = FINITE_CELL
    if draw(st.booleans()):
        cell = FINITE_CELL | st.sampled_from(non_finite)
        tg = cell | st.sampled_from(empty)
    rows = draw(st.lists(st.tuples(st.lists(cell, min_size=n, max_size=n), tg).map(
        lambda t: t[0] + [t[1]]), min_size=1, max_size=12))
    plain = not any(c in non_finite + empty for row in rows for c in row)
    schema = ComponentSchema(tuple(f"C{i}" for i in range(n)))
    return schema, table_text(draw, list(schema.names) + ["Tg"], rows), plain


def mutate_table(data, text, n_columns, mutations):
    """``text`` with one data line changed by a mutation drawn from
    ``mutations``: a blank line inserted above it, or one of its cells
    appended, deleted or replaced by a non-numeric, non-finite or comment
    cell."""
    lines = text.splitlines(keepends=True)
    row = data.draw(st.integers(1, len(lines) - 1), label="row")
    line = lines[row].rstrip("\r\n")
    ending = lines[row][len(line):]
    cells = line.split(",")
    mutation = data.draw(st.sampled_from(mutations), label="mutation")
    if mutation == "blank":
        above = lines[row - 1]
        lines.insert(row, above[len(above.rstrip("\r\n")):])
    else:
        col = data.draw(st.integers(0, n_columns - 1), label="column")
        if mutation == "extra":
            cells.append("0.5")
        elif mutation == "missing":
            del cells[col]
        elif mutation == "non_numeric":
            cells[col] = data.draw(st.sampled_from(["abc", "0.5.5", "", "1e", "0x10"]))
        elif mutation == "non_finite":
            cells[col] = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"]))
        else:
            cells[col] = data.draw(st.sampled_from(["#", "# 0.5", cells[col] + " #"]))
        lines[row] = ",".join(cells) + ending
    return "".join(lines)


# cell values that share bits or compare equal, as bit patterns: -0.0 beside
# 0.0, quiet and signalling nans of both signs and several payloads, +-inf,
# subnormals and ordinary floats
WRITER_POOL = np.array([
    0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000, 0xFFF8000000000000,
    0x7FF8000000000001, 0x7FF0000000000001, 0xFFF0000000000002, 0x7FF0000000000000,
    0xFFF0000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
], dtype=np.uint64).view(np.float64)
WRITER_POOL = np.concatenate([WRITER_POOL, [1 / 3, 2 / 3, 0.1 + 0.2, 0.05, 1.0, -1e300]])


def reference_table_text(names, columns):
    """A table written as the deleted per-table writers wrote it: one f-string
    ``repr`` per cell of each column's Python values."""
    rows = zip(*(column.tolist() for column in columns))
    return "".join([",".join(names) + "\n"] + [",".join(f"{v!r}" for v in row) + "\n"
                                                for row in rows])


def mixed_columns(m):
    """1 to 5 columns of m rows each: int64 over its whole range, or float64
    from WRITER_POOL or from any float."""
    return st.lists(st.one_of(
        arrays(np.int64, m, elements=st.integers(-2 ** 63, 2 ** 63 - 1)),
        arrays(np.intp, m, elements=st.integers(0, WRITER_POOL.size - 1)).map(
            WRITER_POOL.__getitem__),
        arrays(np.float64, m, elements=st.floats()),
    ), min_size=1, max_size=5)


class TestWriteTable:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: arrays(
        np.intp, st.tuples(st.integers(0, 40), st.just(n)),
        elements=st.integers(0, WRITER_POOL.size - 1))).map(WRITER_POOL.__getitem__))
    @example(np.array([
        [0.0, -0.0, 1.0],
        [-0.0, 1 / 3, 2 / 3],
        [1 / 7, 6 / 7, 5e-324],
        [0.1 + 0.2, 1e-300, 0.7],
    ]))
    def test_matches_per_cell_repr(self, rows):
        schema = ComponentSchema(tuple("ABCDE"[:rows.shape[1]]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.csv"
            write_table(path, schema.names, rows.T)
            assert path.read_text(encoding="utf-8") == reference_candidate_text(schema, rows)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 30).flatmap(mixed_columns))
    @example([np.array([3, -1, 3], dtype=np.int64),
              np.array([-0.0, 0.0, 5e-324]),
              np.array([np.inf, -np.inf, np.nan])])
    @example([np.zeros(0, dtype=np.int64), np.zeros(0)])
    def test_mixed_int_and_float_columns_match_per_cell_f_strings(self, columns):
        names = [f"c{j}" for j in range(len(columns))]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            write_table(path, names, columns)
            assert path.read_text(encoding="utf-8") == reference_table_text(names, columns)

    @pytest.mark.parametrize("dtype", [np.int32, np.float32, np.uint64, bool, object, ">f8"])
    def test_other_dtype_is_refused(self, tmp_path, dtype):
        columns = (np.arange(3, dtype=np.int64), np.arange(3).astype(dtype))
        with pytest.raises(ValueError, match="float64 or int64 columns"):
            write_table(tmp_path / "t.csv", ("a", "b"), columns)

    def test_many_chunks_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        grid_values = rng.integers(0, 21, size=(9_000, 3)) * 0.05
        rows = np.where(rng.random((9_000, 3)) < 0.1, rng.random((9_000, 3)), grid_values)
        path = tmp_path / "c.csv"
        write_table(path, SCHEMA3.names, rows.T)
        assert path.read_text(encoding="utf-8") == reference_candidate_text(SCHEMA3, rows)
        assert load_candidates(path)[0].tobytes() == rows.tobytes()

    def test_empty_table_is_header_only(self, tmp_path):
        write_table(tmp_path / "c.csv", SCHEMA3.names, np.zeros((0, 3)).T)
        assert (tmp_path / "c.csv").read_text(encoding="utf-8") == "A,B,C\n"


class TestWriteDataset:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda n: st.lists(st.tuples(
        st.lists(st.floats() | st.sampled_from([-0.0, 5e-324]), min_size=n, max_size=n),
        st.none() | st.floats() | st.integers(-1000, 1000)), max_size=8)))
    def test_matches_csv_writer(self, rows):
        n = len(rows[0][0]) if rows else 3
        schema = ComponentSchema(tuple(f"C{i}" for i in range(n)))
        samples = table(np.array([f for f, _ in rows], dtype=np.float64).reshape(len(rows), n),
                        [tg for _, tg in rows])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            write_dataset(path, schema, samples)
            assert path.read_bytes() == csv_writer_bytes(schema, samples)

    def test_many_chunks_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = table(rng.random((1_300, 3)),
                        [None if i % 7 == 0 else 400.0 + i for i in range(1_300)])
        write_dataset(tmp_path / "d.csv", SCHEMA3, samples)
        assert (tmp_path / "d.csv").read_bytes() == csv_writer_bytes(SCHEMA3, samples)


def csv_writer_bytes(schema, samples):
    """The table as ``csv.writer`` writes it row by row, one ``repr`` per cell
    and an empty cell for a missing Tg."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(list(schema.names) + ["Tg"])
    for s in samples:
        writer.writerow([repr(float(v)) for v in s.fractions]
                        + ["" if s.tg is None else repr(float(s.tg))])
    return text.getvalue().encode("utf-8")


def kept_rows(raw, min_sum, max_sum):
    return clean_with_counts(raw, min_sum, max_sum)[0]


class TestClean:
    def sample(self, total, tg=450.0):
        return table([[total / 2, total / 2]], [tg])

    def test_in_band_kept(self):
        assert len(kept_rows(self.sample(0.97), 0.95, 1.05)) == 1

    def test_below_threshold_removed(self):
        assert len(kept_rows(self.sample(0.90), 0.95, 1.05)) == 0

    def test_missing_tg_removed(self):
        assert len(kept_rows(self.sample(1.00, tg=None), 0.95, 1.05)) == 0

    def test_sum_jitter_drops_rows_only_beyond_the_sum_band(self):
        raw = generate_raw_samples(n_samples=4000, seed=42, sum_jitter=0.03)
        totals = raw.fractions.sum(axis=1)
        assert 0.97 - 1e-12 <= totals.min() and totals.max() <= 1.03 + 1e-12
        assert clean_with_counts(raw, 0.95, 1.05)[1].dropped_sum == 0
        raw = generate_raw_samples(n_samples=4000, seed=42, sum_jitter=0.1)
        assert clean_with_counts(raw, 0.95, 1.05)[1].dropped_sum > 0

    def test_negative_fraction_removed(self):
        bad = table([[1.2, -0.2]], [400.0])
        kept, counts = clean_with_counts(bad, 0.95, 1.05)
        assert len(kept) == 0 and counts.dropped_negative == 1

    def test_non_finite_rows_removed_and_counted(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", "A,B,C,Tg\n"
                         "0.5,0.3,0.2,nan\n"
                         "0.5,0.3,0.2,inf\n"
                         "nan,0.5,0.5,500\n"
                         "0.5,0.3,0.2,-inf\n"
                         "0.5,0.3,0.2,520\n"
                         "0.5,0.3,0.2,\n")
        kept, counts = clean_with_counts(load_dataset(path)[0], 0.95, 1.05)
        assert kept.tg.tolist() == [520.0]
        assert counts.dropped_non_finite == 4
        assert (counts.dropped_sum, counts.dropped_missing_tg, counts.dropped_negative) == (0, 1, 0)

    def test_order_preserved_and_idempotent(self):
        rows = table([[t / 2, t / 2] for t in (0.97, 0.90, 1.04, 1.2)], [450.0] * 4)
        once = kept_rows(rows, 0.95, 1.05)
        assert_same_table(once, rows[[0, 2]])
        assert_same_table(kept_rows(once, 0.95, 1.05), once)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            kept_rows(table(np.zeros((0, 2)), []), 1.05, 0.95)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_per_row_filter(self, data):
        raw, min_sum, max_sum = data.draw(clean_problems(), label="problem")
        with np.errstate(invalid="ignore"):  # inf + -inf in a row sum
            kept, counts = clean_with_counts(raw, min_sum, max_sum)
            expected_kept, expected_counts = reference_clean(
                [(s.fractions, s.tg) for s in raw], min_sum, max_sum)
        assert counts == expected_counts
        assert_same_table(kept, raw[np.array(expected_kept, dtype=np.int64)])


def reference_clean(raw, min_sum, max_sum):
    """The per-row filter over [(fractions, tg)] rows, a missing Tg as None:
    each row's own sum, and the first rule it breaks of non-finite, negative,
    sum and missing Tg. Returns the kept row indices and the counts."""
    counts = CleanCounts(read=len(raw))
    kept = []
    for index, (fractions, tg) in enumerate(raw):
        total = float(fractions.sum())
        if not math.isfinite(total) or (tg is not None and not math.isfinite(tg)):
            counts.dropped_non_finite += 1
        elif np.any(fractions < 0):
            counts.dropped_negative += 1
        elif not min_sum <= total <= max_sum:
            counts.dropped_sum += 1
        elif tg is None:
            counts.dropped_missing_tg += 1
        else:
            kept.append(index)
    counts.kept = len(kept)
    return kept, counts


def reference_labels(rows, band):
    """The per-row labelling of [(fractions, tg)] rows: [(fractions copy, y, tg)]."""
    out = []
    for fractions, tg in rows:
        if tg is None:
            raise DataFormatError("transform_labels requires every sample to carry a Tg")
        out.append((fractions.copy(), int(band.low <= tg < band.high), float(tg)))
    return out


def reference_split(samples, train_fraction, seed):
    """The list split: the rows at a seeded permutation's first ceil(N *
    train_fraction) indices, then the rest."""
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    n_train = math.ceil(n * train_fraction - 1e-9)
    perm = RandomSource(seed).permutation(n)
    return [samples[i] for i in perm[:n_train]], [samples[i] for i in perm[n_train:]]


def reference_stats(train):
    """Mean and population std of stacked (fractions, y, tg) rows, flat columns 1."""
    x = np.stack([fractions for fractions, _, _ in train])
    std = x.std(axis=0)
    return x.mean(axis=0), np.where(std <= 1e-12, 1.0, std)


@st.composite
def clean_problems(draw):
    """(raw, min_sum, max_sum): rows of 2 to 12 fractions, some negative or
    non-finite, with finite, non-finite or missing Tg; each bound is a row's
    own sum, one ulp below or above it, or a value near 1."""
    n = draw(st.integers(2, 12))
    fraction = st.floats(0.0, 0.5) | st.sampled_from([0.0, -0.0, 0.1, 1 / 3, 5e-324])
    bad = st.sampled_from([-0.05, -5e-324, np.nan, np.inf, -np.inf])
    row = st.lists(fraction, min_size=n, max_size=n) | st.lists(
        fraction | bad, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=15))
    tgs = draw(st.lists(st.none() | st.floats(300.0, 900.0) | st.sampled_from(
        [np.nan, np.inf, -np.inf]), min_size=len(rows), max_size=len(rows)))
    raw = table(rows, tgs)
    with np.errstate(invalid="ignore"):
        totals = [t for t in (float(s.fractions.sum()) for s in raw) if math.isfinite(t)]

    def bound():
        if not totals or draw(st.booleans()):
            return draw(st.floats(0.5, 1.5))
        total = draw(st.sampled_from(totals))
        return float(np.nextafter(total, draw(st.sampled_from([-np.inf, total, np.inf]))))

    low, high = sorted([bound(), bound()])
    return raw, low, high


@st.composite
def pipeline_tables(draw):
    """(csv text, schema, min_sum, max_sum, band, train_fraction, seed): a
    clean_problems table as CSV text, each cell ``repr`` of its value and a
    missing Tg an empty cell; each band edge is a row's Tg or a value in the
    Tg range, so the half-open rule decides some labels."""
    raw, min_sum, max_sum = draw(clean_problems())
    schema = ComponentSchema(tuple(f"C{i}" for i in range(raw.fractions.shape[1])))
    text = ",".join(schema.names) + ",Tg\n" + "".join(
        ",".join(map(repr, s.fractions.tolist())) + "," + ("" if s.tg is None else repr(s.tg))
        + "\n" for s in raw)
    edges = raw.tg[raw.has_tg & np.isfinite(raw.tg)].tolist()
    low = draw(st.sampled_from(edges) if edges and draw(st.booleans())
               else st.floats(300.0, 800.0))
    above = [t for t in edges if t > low]
    band = TgBand(low, draw(st.sampled_from(above)) if above and draw(st.booleans())
                  else low + draw(st.floats(1.0, 400.0)))
    return (text, schema, min_sum, max_sum, band, draw(st.floats(0.05, 0.95)),
            draw(st.integers(0, 2**32 - 1)))


class TestTablePipeline:
    @settings(max_examples=200, deadline=None)
    @given(pipeline_tables())
    def test_matches_row_pipeline(self, problem):
        """load -> clean -> label -> split -> fit_normalization on the table
        gives the bytes of the per-row pipeline it replaced."""
        text, schema, min_sum, max_sum, band, fraction, seed = problem
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "d.csv", text)
            raw, _ = load_dataset(path)
            reference_raw = reference_dataset(path, schema.n)
        with np.errstate(invalid="ignore"):  # inf + -inf in a row sum
            kept, counts = clean_with_counts(raw, min_sum, max_sum)
            kept_index, expected_counts = reference_clean(reference_raw, min_sum, max_sum)
        assert counts == expected_counts
        labeled_table = transform_labels(kept, band)
        expected = reference_labels([reference_raw[i] for i in kept_index], band)

        def assert_rows(got, rows):
            assert got.fractions.tobytes() == b"".join(f.tobytes() for f, _, _ in rows)
            assert got.y.tobytes() == np.array([y for _, y, _ in rows], dtype=np.int64).tobytes()
            assert got.tg.tobytes() == np.array([tg for _, _, tg in rows],
                                                dtype=np.float64).tobytes()

        assert_rows(labeled_table, expected)
        if len(expected) < 2:
            with pytest.raises(ValueError, match="at least 2 samples"):
                split(labeled_table, fraction, seed)
            return
        train, val = split(labeled_table, fraction, seed)
        expected_train, expected_val = reference_split(expected, fraction, seed)
        assert_rows(train, expected_train)
        assert_rows(val, expected_val)
        stats = fit_normalization(train)
        mean, std = reference_stats(expected_train)
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.std.tobytes() == std.tobytes()


class TestSamples:
    def test_columns_are_checked(self):
        with pytest.raises(ValueError, match="columns"):
            table([[0.5, 0.5], [0.2, 0.8]], [500.0])
        with pytest.raises(ValueError, match="columns"):
            table([0.5, 0.5], [500.0, 600.0])

    def test_rows_are_read_only(self):
        t = table([[0.5, 0.5], [0.2, 0.8]], [500.0, None], y=[1, 0])
        rows = list(t)
        assert [(r.tg, r.y) for r in rows] == [(500.0, 1), (None, 0)]
        assert type(rows[0].y) is int
        with pytest.raises(ValueError, match="read-only"):
            rows[0].fractions[0] = 1.0
        assert t.fractions.flags.writeable

    def test_sub_table_indexing(self):
        t = table([[0.5, 0.5], [0.2, 0.8], [0.1, 0.9]], [500.0, None, 700.0], y=[1, 0, 0])
        sub = t[np.array([2, 0])]
        assert sub.fractions.tolist() == [[0.1, 0.9], [0.5, 0.5]]
        assert sub.has_tg.tolist() == [True, True] and sub.y.tolist() == [0, 1]
        assert_same_table(t[t.y == 0], t[1:])


class TestTransformLabels:
    BAND = TgBand(500.0, 600.0)

    @pytest.mark.parametrize("tg,expected", [(550.0, 1), (600.0, 0), (499.999, 0), (500.0, 1)])
    def test_half_open_band(self, tg, expected):
        sample = table([[0.5, 0.5]], [tg])
        assert transform_labels(sample, self.BAND).y.tolist() == [expected]

    def test_fractions_copied_unchanged(self):
        fr = np.array([[0.4, 0.6]])
        out = transform_labels(table(fr, [550.0]), self.BAND)
        assert np.array_equal(out.fractions, fr)
        assert not np.shares_memory(out.fractions, fr)

    def test_band_validates(self):
        with pytest.raises(ValueError):
            TgBand(600.0, 500.0)

    @given(st.floats(-100, 1200), st.floats(0, 1000), st.floats(1, 500))
    def test_label_matches_band_predicate(self, tg, low, width):
        band = TgBand(low, low + width)
        out = transform_labels(table([[0.5, 0.5]], [tg]), band)
        assert out.y.dtype == np.int64
        assert out.y.tolist() == [int(band.low <= tg < band.high)]


class TestSplit:
    def make(self, n):
        return table(np.tile([1.0, 0.0], (n, 1)), [float(i) for i in range(n)], y=np.zeros(n))

    def test_ceiling_on_train_side(self):
        train, val = split(self.make(10), 0.8, seed=0)
        assert (len(train), len(val)) == (8, 2)
        train, val = split(self.make(35176), 0.8, seed=0)
        assert (len(train), len(val)) == (28141, 7035)
        train, val = split(self.make(11), 0.8, seed=0)
        assert (len(train), len(val)) == (9, 2)  # ceil(8.8)

    def test_deterministic(self):
        data = self.make(10)
        first = split(data, 0.8, seed=7)
        second = split(data, 0.8, seed=7)
        assert first[0].tg.tolist() == second[0].tg.tolist()
        assert first[1].tg.tolist() == second[1].tg.tolist()

    def test_minimal_case(self):
        train, val = split(self.make(2), 0.5, seed=0)
        assert len(train) == 1 and len(val) == 1

    @given(st.integers(2, 40), st.floats(0.05, 0.95), st.integers(0, 10))
    def test_partition(self, n, fraction, seed):
        data = self.make(n)
        train, val = split(data, fraction, seed)
        assert len(train) + len(val) == n
        assert sorted(train.tg.tolist() + val.tg.tolist()) == [float(i) for i in range(n)]
        assert not set(train.tg.tolist()) & set(val.tg.tolist())

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            split(self.make(1), 0.5, seed=0)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            split(self.make(5), 1.0, seed=0)


class TestNormalization:
    def test_constant_column_guard(self):
        data = concat(labeled([0.3, v], 0, 0.0) for v in (0.0, 1.0))
        stats = fit_normalization(data)
        assert stats.mean[0] == pytest.approx(0.3)
        assert stats.std[0] == 1.0
        assert stats.mean[1] == 0.5 and stats.std[1] == 0.5  # two-point population std

    def test_train_only_fit(self):
        train = concat([labeled([0.2, 0.8], 0, 0.0), labeled([0.4, 0.6], 1, 0.0)])
        stats1 = fit_normalization(train)
        stats2 = fit_normalization(train)  # validation set plays no role
        assert np.array_equal(stats1.mean, stats2.mean)

    def test_centered_and_unit_points(self):
        stats = fit_normalization(concat([labeled([0.0, 0.0], 0, 0.0),
                                          labeled([1.0, 2.0], 0, 0.0)]))
        assert np.allclose(normalize(stats.mean, stats), [0.0, 0.0])
        assert np.allclose(normalize(stats.mean + stats.std, stats), [1.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        data = concat(labeled(rng.random(4), 0, 0.0) for _ in range(20))
        stats = fit_normalization(data)
        x = rng.random(4)
        back = normalize(x, stats) * stats.std + stats.mean
        assert np.max(np.abs(back - x)) < 1e-12

    def test_self_normalization_is_standard(self):
        rng = np.random.default_rng(1)
        data = concat(labeled(rng.random(5), 0, 0.0) for _ in range(50))
        stats = fit_normalization(data)
        z = normalize(data.fractions, stats)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9

    def test_dimension_mismatch(self):
        stats = fit_normalization(concat([labeled([0.1, 0.9], 0, 0.0),
                                          labeled([0.3, 0.7], 0, 0.0)]))
        with pytest.raises(ValueError):
            normalize(np.ones(3), stats)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            fit_normalization(table(np.zeros((0, 2)), [], y=[]))


class TestAugment:
    @given(st.lists(st.floats(0, 1), min_size=1, max_size=6), st.integers(0, 100))
    def test_sigma_zero_is_identity(self, values, seed):
        x = np.array(values)
        out = augment(x, 0.0, RandomSource(seed))
        assert np.array_equal(out, x)

    def test_zero_entry_stays_zero(self):
        out = augment(np.array([0.0, 0.5]), 0.3, RandomSource(1))
        assert out[0] == 0.0

    def test_monte_carlo_moments(self):
        # ratio x'/x over 1e5 draws should recover the (1, sigma) moments
        rng = RandomSource(77)
        x = np.ones(100_000)
        ratio = augment(x, 0.05, rng) / x
        assert 0.999 <= ratio.mean() <= 1.001
        assert 0.049 <= ratio.std() <= 0.051

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="std"):
            augment(np.ones(3), -0.1, RandomSource(0))


def draw_triplets(train, anchors, rng):
    """[(anchor, positive, negative)] row indices, one triplet per anchor index."""
    sampler = TripletIndexSampler(train.y)
    positives, negatives = sampler.draw(np.array(anchors), rng)
    return list(zip(anchors, positives.tolist(), negatives.tolist()))


def scalar_draws(labels, anchors, seed):
    """Reference triplet draw: one scalar PCG64 call for the positive, then
    one for the negative, per anchor in anchor order. Returns the positives,
    the negatives and the generator afterwards."""
    gen = np.random.Generator(np.random.PCG64(seed))
    positives, negatives = [], []
    for a in anchors:
        same = np.flatnonzero(labels == labels[a])
        other = np.flatnonzero(labels != labels[a])
        r = int(gen.integers(0, same.size - 1))
        if r >= int(np.flatnonzero(same == a)[0]):
            r += 1
        positives.append(int(same[r]))
        negatives.append(int(other[int(gen.integers(0, other.size))]))
    return positives, negatives, gen


class TestSampleTriplet:
    def test_forced_choices(self):
        train = concat([labeled([1, 0], 1, 550.0), labeled([0, 1], 1, 560.0),
                        labeled([0.5, 0.5], 0, 700.0)])
        [(anchor, positive, negative)] = draw_triplets(train, [0], RandomSource(0))
        assert (anchor, positive, negative) == (0, 1, 2)

    def test_single_member_class_always_chosen(self):
        train = concat([labeled([1, 0], 0, 700.0), labeled([0, 1], 0, 710.0),
                        labeled([0.5, 0.5], 1, 550.0)])
        for seed in range(5):
            [(_, positive, negative)] = draw_triplets(train, [0], RandomSource(seed))
            assert (positive, negative) == (1, 2)

    def test_all_one_class_errors(self):
        train = concat([labeled([1, 0], 1, 550.0), labeled([0, 1], 1, 560.0)])
        with pytest.raises(EmptyClassError, match="widen"):
            draw_triplets(train, [0], RandomSource(0))

    def test_positive_never_anchor(self):
        train = concat([labeled([1, 0], 1, 500.0 + i) for i in range(4)]
                       + [labeled([0, 1], 0, 900.0)])
        for _, positive, negative in draw_triplets(train, [2] * 200, RandomSource(3)):
            assert positive != 2
            assert train.y[positive] == 1 and train.y[negative] == 0

    def test_anchor_class_without_positive_errors(self):
        train = concat([labeled([1, 0], 1, 550.0), labeled([0, 1], 1, 560.0),
                        labeled([0.5, 0.5], 0, 700.0)])
        with pytest.raises(EmptyClassError, match="widen"):
            draw_triplets(train, [0, 2], RandomSource(0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=3, max_size=40), st.data(),
           st.integers(0, 2**32 - 1))
    def test_batched_draw_matches_scalar_stream(self, label_list, data, seed):
        labels = np.array(label_list)
        counts = np.bincount(labels, minlength=2)
        assume(counts.min() >= 1 and counts.max() >= 2)
        # anchors from classes with a positive to draw
        eligible = [i for i, y in enumerate(label_list) if counts[y] >= 2]
        anchors = data.draw(st.lists(st.sampled_from(eligible), max_size=60), label="anchors")
        rng = RandomSource(seed)
        positives, negatives = TripletIndexSampler(labels).draw(np.array(anchors, dtype=np.int64), rng)
        ref_pos, ref_neg, ref_gen = scalar_draws(labels, anchors, seed)
        assert positives.tolist() == ref_pos
        assert negatives.tolist() == ref_neg
        assert rng.uniform() == ref_gen.random()


def brute_force_grid(n, ticks, max_nonzero, lo=None, hi=None):
    """Independent enumeration oracle: filter the full cartesian tick grid."""
    lo = lo or [0] * n
    hi = hi or [ticks] * n
    found = []
    for combo in itertools.product(range(ticks + 1), repeat=n):
        if sum(combo) != ticks:
            continue
        if sum(1 for t in combo if t > 0) > max_nonzero:
            continue
        if any(t < lo[i] or t > hi[i] for i, t in enumerate(combo)):
            continue
        found.append(combo)
    return found


class TestEnumerateCandidates:
    def test_three_components_half_step(self):
        got = enumerate_candidates(SCHEMA3, GridConfig(step=0.5, max_nonzero=3))
        expected = np.array([
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 1.0, 0.0],
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 1.0],
        ])
        assert got.shape == (6, 3)
        assert np.max(np.abs(got - expected)) < 1e-12  # exact order required

    def test_int64_step_bound_counts_components(self):
        grid = GridConfig(step=2.0 ** -60, max_nonzero=2, cap=10)
        with pytest.raises(CandidateCapError):  # 3 * 2**60 ticks fit in int64
            enumerate_candidates(ComponentSchema(("A", "B")), grid)
        with pytest.raises(ValueError, match=r"too fine for 8 components"):  # 9 * 2**60 do not
            enumerate_candidates(ComponentSchema(tuple("ABCDEFGH")), grid)

    # 1 / step rounds to m - 1.2e-4 at this m, so a bound of 1 must not be
    # converted to ticks by division, with bounds given or not
    @pytest.mark.parametrize("bounds", [None, [(0.0, 1.0)] * 2])
    def test_unit_bound_keeps_the_top_tick_at_any_step(self, bounds):
        grid = GridConfig(step=1 / 897040837611, max_nonzero=1, bounds=bounds)
        got = enumerate_candidates(ComponentSchema(("A", "B")), grid)
        assert np.array_equal(got, [[1.0, 0.0], [0.0, 1.0]])

    def test_two_components_unit_step(self):
        got = enumerate_candidates(ComponentSchema(("A", "B")), GridConfig(step=1.0, max_nonzero=2))
        assert np.array_equal(got, [[1.0, 0.0], [0.0, 1.0]])

    def test_count_matches_stars_and_bars(self):
        schema = ComponentSchema(("A", "B", "C", "D"))
        got = enumerate_candidates(schema, GridConfig(step=0.25, max_nonzero=4))
        assert got.shape[0] == 35  # C(7,3)
        assert len(brute_force_grid(4, 4, 4)) == 35

    @pytest.mark.parametrize("n,step,max_nonzero", [(3, 0.25, 2), (4, 0.2, 3), (5, 0.5, 2)])
    def test_matches_brute_force(self, n, step, max_nonzero):
        schema = ComponentSchema(tuple(f"C{i}" for i in range(n)))
        got = enumerate_candidates(schema, GridConfig(step=step, max_nonzero=max_nonzero))
        ticks = round(1.0 / step)
        oracle = brute_force_grid(n, ticks, max_nonzero)
        assert got.shape[0] == len(oracle)
        got_set = {tuple(np.round(row / step).astype(int)) for row in got}
        assert got_set == set(oracle)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_order_matches_sorted_brute_force(self, data):
        n = data.draw(st.integers(2, 4), label="n")
        m = data.draw(st.integers(1, 6), label="ticks")
        max_nonzero = data.draw(st.integers(1, n), label="max_nonzero")
        tick_bounds = data.draw(st.none() | st.lists(
            st.tuples(st.integers(0, m), st.integers(0, m)).map(sorted),
            min_size=n, max_size=n), label="tick_bounds")
        grid = GridConfig(step=1.0 / m, max_nonzero=max_nonzero,
                          bounds=None if tick_bounds is None
                          else [(lo / m, hi / m) for lo, hi in tick_bounds])
        got = enumerate_candidates(ComponentSchema(tuple(f"C{i}" for i in range(n))), grid)
        lo, hi = (None, None) if tick_bounds is None else map(list, zip(*tick_bounds))
        oracle = sorted(brute_force_grid(n, m, max_nonzero, lo, hi), reverse=True)
        expected = np.array(oracle, dtype=np.int64).reshape(len(oracle), n) * grid.step
        assert np.array_equal(got, expected)  # same rows in descending lexicographic order
        if tick_bounds is None:  # no bounds is the lattice of (0, 1) on every component
            unit = GridConfig(step=grid.step, max_nonzero=max_nonzero, bounds=[(0.0, 1.0)] * n)
            explicit = enumerate_candidates(ComponentSchema(tuple(f"C{i}" for i in range(n))),
                                            unit)
            assert got.tobytes() == explicit.tobytes()

    def test_bounds_respected(self):
        grid = GridConfig(step=0.25, max_nonzero=3,
                          bounds=[(0.25, 1.0), (0.0, 0.5), (0.0, 1.0)])
        got = enumerate_candidates(SCHEMA3, grid)
        oracle = brute_force_grid(3, 4, 3, lo=[1, 0, 0], hi=[4, 2, 4])
        assert got.shape[0] == len(oracle)
        assert np.all(got[:, 0] >= 0.25 - 1e-12)
        assert np.all(got[:, 1] <= 0.5 + 1e-12)

    @pytest.mark.parametrize("infinite, finite", [
        ((0.0, math.inf), (0.0, 1.0)), ((-math.inf, 0.5), (-1.0, 0.5)),
        ((math.inf, math.inf), (2.0, 3.0)), ((-math.inf, -math.inf), (-3.0, -2.0)),
        ((-math.inf, math.inf), (-1.0, 2.0)),
    ])
    def test_infinite_bound_end_acts_as_an_end_outside_the_unit_interval(self, infinite,
                                                                          finite):
        def lattice(bound):
            grid = GridConfig(step=0.25, max_nonzero=3, bounds=[(0.0, 1.0), bound, (0.0, 1.0)])
            return enumerate_candidates(SCHEMA3, grid)

        assert np.array_equal(lattice(infinite), lattice(finite))

    def test_sums_and_uniqueness(self):
        schema = ComponentSchema(tuple(f"C{i}" for i in range(5)))
        got = enumerate_candidates(schema, GridConfig(step=0.2, max_nonzero=5))
        assert np.max(np.abs(got.sum(axis=1) - 1.0)) < 1e-9
        assert len({tuple(row) for row in got}) == got.shape[0]

    def test_cap_errors(self):
        schema = ComponentSchema(tuple(f"C{i}" for i in range(5)))
        with pytest.raises(CandidateCapError, match="coarser"):
            enumerate_candidates(schema, GridConfig(step=0.2, max_nonzero=5, cap=10))

    @pytest.mark.parametrize("n,step,max_nonzero,bounds", [
        (5, 0.2, 5, None),
        (6, 0.05, 2, [(0.0, 0.6), (0.1, 1.0)] + [(0.0, 1.0)] * 4),
        (4, 0.1, 2, [(0.0, 0.3)] * 3 + [(0.0, 1.0)]),
    ])
    def test_cap_is_exact(self, n, step, max_nonzero, bounds):
        schema = ComponentSchema(tuple(f"C{i}" for i in range(n)))
        size = enumerate_candidates(
            schema, GridConfig(step=step, max_nonzero=max_nonzero, bounds=bounds)).shape[0]
        at_cap = enumerate_candidates(
            schema, GridConfig(step=step, max_nonzero=max_nonzero, bounds=bounds, cap=size))
        assert at_cap.shape[0] == size
        with pytest.raises(CandidateCapError):
            enumerate_candidates(schema, GridConfig(step=step, max_nonzero=max_nonzero,
                                                    bounds=bounds, cap=size - 1))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_cap_raises_iff_lattice_exceeds_it(self, data):
        n = data.draw(st.integers(2, 5), label="n")
        m = data.draw(st.integers(1, 8), label="ticks")
        max_nonzero = data.draw(st.integers(1, n), label="max_nonzero")
        tick_bounds = data.draw(st.none() | st.lists(
            st.tuples(st.integers(0, m), st.integers(0, m)).map(sorted),
            min_size=n, max_size=n), label="tick_bounds")
        lo, hi = (None, None) if tick_bounds is None else map(list, zip(*tick_bounds))
        size = len(brute_force_grid(n, m, max_nonzero, lo, hi))
        cap = data.draw(st.integers(1, size + 2), label="cap")
        grid = GridConfig(step=1.0 / m, max_nonzero=max_nonzero, cap=cap,
                          bounds=None if tick_bounds is None
                          else [(a / m, b / m) for a, b in tick_bounds])
        schema = ComponentSchema(tuple(f"C{i}" for i in range(n)))
        if size > cap:
            with pytest.raises(CandidateCapError):
                enumerate_candidates(schema, grid)
        else:
            assert enumerate_candidates(schema, grid).shape[0] == size

    def test_cap_checked_before_lattice_is_built(self):
        # C(1007, 7) ~ 1.9e17 rows: the cap must fire long before they exist
        schema = ComponentSchema(tuple(f"C{i}" for i in range(8)))
        start = time.perf_counter()
        with pytest.raises(CandidateCapError):
            enumerate_candidates(schema, GridConfig(step=0.001, max_nonzero=8))
        assert time.perf_counter() - start < 1.0

    def test_step_must_divide_one(self):
        with pytest.raises(ValueError, match="divide"):
            GridConfig(step=0.3, max_nonzero=2)

    def test_max_nonzero_bounded_by_n(self):
        with pytest.raises(ValueError):
            enumerate_candidates(SCHEMA3, GridConfig(step=0.5, max_nonzero=4))
