"""The garage CSV's batched split and join against the csv module itself.

`parse_raw` splits a batch with no quote, NUL or bare CR at every comma and
hands the first other batch, and the rest of the file, to `csv.reader`;
`write_csv` makes each column's batch text in one pass and joins the rows,
and writes a batch with a cell that needs quotes, or of another kind, with
`csv.writer`.  Here `csv.reader` and `csv.writer` are the oracles, and
`_PARSE_ROWS` is 2, so a small file spans many batches.  The table image
that `prepare` writes beside its CSV must give what the CSV text gives.
"""

import csv
import io
import json
import random
import tempfile
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuelgap import cli, data
from fuelgap.cli import main
from fuelgap.data import (
    GarageTable,
    compute_gaps,
    parse_raw,
    trim_outliers,
    write_csv,
)
from fuelgap.errors import ParseError

HEADER = ("garage_id,my_mpg_1,epa_mpg_1,my_mpg_2,epa_mpg_2,model_year_1,model_year_2,"
          "us_division,note")


@pytest.fixture(autouse=True)
def two_row_batches(monkeypatch):
    monkeypatch.setattr(data, "_PARSE_ROWS", 2)


def row(i: int, note: str = "n") -> str:
    return f"g{i},{20 + i}.5,25,{22 + i},3{i % 10}.25,1999,2004,Pacific,{note}"


def integral(cell: str) -> int:
    """The model year of a cell that float() reads as an integral value."""
    value = float(cell)
    if not value.is_integer():
        raise ValueError(f"model year {cell!r} is not an integer")
    return int(value)


def reader_outcome(text: str) -> GarageTable | str:
    """`reader_table(text)`, or the ParseError text that parse_raw should
    raise for the csv.Error of `csv.reader` (NUL before Python 3.11)."""
    rows = 0                            # the header is row 0
    try:
        for cells in csv.reader(io.StringIO(text, newline="")):
            rows += bool(cells)
    except csv.Error as exc:
        return f"row {rows}: {exc}"
    return reader_table(text)


def reader_table(text: str) -> GarageTable:
    """The table of `text` built row by row from `csv.reader`'s rows."""
    header, *rows = filter(None, csv.reader(io.StringIO(text, newline="")))
    cells = {name: [r[i] for r in rows] for i, name in enumerate(header)}

    def pair(base, kind):
        return np.array([[kind(a), kind(b)] for a, b in
                         zip(cells[f"{base}_1"], cells[f"{base}_2"])]).reshape(-1, 2)

    def strings(name):
        return np.array(cells[name], dtype=object)

    return GarageTable(garage_id=strings("garage_id"), my_mpg=pair("my_mpg", float),
                       epa_mpg=pair("epa_mpg", float),
                       model_year=pair("model_year", integral),
                       us_division=strings("us_division"),
                       covariates={"note": strings("note")})


def assert_same_table(got: GarageTable, want: GarageTable) -> None:
    for name in ("garage_id", "my_mpg", "epa_mpg", "model_year", "us_division"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes() if a.dtype != object else a.tolist() == b.tolist()
    assert list(got.covariates) == list(want.covariates)
    for name, column in got.covariates.items():
        assert column.dtype == object
        assert column.tolist() == want.covariates[name].tolist()


def lf(*lines: str) -> str:
    return "\n".join([HEADER, *lines]) + "\n"


# a cell one character over the csv module's field size limit
BIG = "x" * (csv.field_size_limit() + 1)
QUOTED = [row(4, '"a,b"'), row(5, '"two\nlines"'), row(6, '"say ""hi"""')]

INPUTS = {
    "lf": lf(*map(row, range(7))),
    "crlf": lf(*map(row, range(7))).replace("\n", "\r\n"),
    "mixed-line-ends": "\r\n".join([HEADER, *map(row, range(3))]) + "\n"
                       + "\n".join(map(row, range(3, 7))) + "\r\n",
    "no-final-newline": lf(*map(row, range(7)))[:-1],
    "blank-lines": lf("", row(0), "", "", row(1), row(2), "\r", row(3), "", row(4)),
    "only-crlf-lines": "\r\n".join([HEADER, "", row(0), "", "", row(1), row(2), "",
                                    row(3), row(4)]) + "\r\n\r\n",
    # batches of two lines: the quoted cells first come in the third
    "quoted-from-batch-3": lf(*map(row, range(4)), *QUOTED, row(7)),
    "quoted-crlf-from-batch-3": lf(*map(row, range(4)), *QUOTED, row(7))
    .replace("\n", "\r\n"),
    "bare-cr": "\n".join([HEADER, row(0), row(1), row(2), row(3) + "\r" + row(4),
                          row(5)]) + "\n",
    "bare-cr-line-ends": "\r".join([HEADER, *map(row, range(5))]) + "\r",
    "nul-in-batch-2": lf(*map(row, range(3)), row(3, "a\0b"), row(4)),
}


def assert_same_outcome(read, text: str) -> None:
    """`read()` gives the table `csv.reader` gives for `text`, or raises the
    ParseError of its csv.Error."""
    want = reader_outcome(text)
    if isinstance(want, str):
        with pytest.raises(ParseError) as err:
            read()
        assert str(err.value) == want
    else:
        assert_same_table(read(), want)


class TestParseMatchesReader:
    @pytest.mark.parametrize("name", INPUTS)
    def test_same_table_as_csv_reader(self, name):
        text = INPUTS[name]
        assert_same_outcome(lambda: parse_raw(io.StringIO(text, newline="")), text)

    @pytest.mark.parametrize("name", INPUTS)
    def test_same_table_from_a_file(self, name, tmp_path):
        path = tmp_path / "garages.csv"
        path.write_bytes(INPUTS[name].encode())
        assert_same_outcome(lambda: parse_raw(path), INPUTS[name])

    def test_bare_cr_inside_a_line_is_the_csv_error(self):
        # without universal newlines a CR inside a line is csv.reader's fault,
        # reported at its row
        text = lf(row(0), row(1), row(2) + "\r" + row(3))
        with pytest.raises(csv.Error) as want:
            list(csv.reader(io.StringIO(text)))
        with pytest.raises(ParseError) as got:
            parse_raw(io.StringIO(text))
        assert (got.value.row, str(got.value)) == (3, f"row 3: {want.value}")

    def test_field_over_the_csv_limit_is_the_csv_error(self):
        note = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(ParseError, match="row 2: field larger than field limit"):
            parse_raw(io.StringIO(lf(row(0), row(1, note))))

    @pytest.mark.parametrize("text,at", [
        pytest.param(lf(row(0)).replace("note", BIG, 1), 0, id="header"),
        pytest.param(lf(row(0, BIG), row(1)), 1, id="batch-1"),
        pytest.param(lf(row(0), row(1), row(2, BIG)), 3, id="after-plain-batch-1"),
        # the quoted note of row 5 hands the rest of the file to csv.reader
        pytest.param(lf(*map(row, range(4)), row(4, '"a,b"'), row(5), row(6, BIG)), 7,
                     id="after-the-handover"),
        pytest.param(lf(*map(row, range(4)), row(4, '"a,b"'), row(5, BIG)), 6,
                     id="second-row-of-a-reader-batch"),
    ])
    def test_csv_error_is_a_parse_error_at_its_row(self, text, at):
        with pytest.raises(ParseError) as err:
            parse_raw(io.StringIO(text))
        assert (err.value.row, str(err.value)) == \
            (at, f"row {at}: field larger than field limit ({csv.field_size_limit()})")

    def test_earlier_fault_in_the_batch_comes_first(self):
        lines = [row(0), row(1), "g2,20,25,abc,30,1999,2004,Pacific,n", row(3, BIG)]
        with pytest.raises(ParseError) as err:
            parse_raw(io.StringIO(lf(*lines)))
        assert str(err.value) == "row 3: field 'my_mpg_2' is not a number: 'abc'"

    def test_csv_error_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        raw.write_text(lf(row(0), row(1, BIG)))
        assert main(["prepare", "--input", str(raw), "--out", str(tmp_path / "p.csv")]) == 2
        assert "error: row 2: field larger than field limit" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("fault,message", [
        ("g9,20,25,22,30,1999,2004", "row is missing columns ['us_division', 'note']"),
        (row(9) + ",extra", "row has more fields than the header"),
        ("g9,20,25,abc,30,1999,2004,Pacific,n",
         "field 'my_mpg_2' is not a number: 'abc'"),
        ("g9,20,25,22,30,2010,2004,Pacific,n",
         "vehicle 1 must be the older vehicle (model_year_1=2010 > model_year_2=2004)"),
    ], ids=["short-row", "long-row", "bad-number", "newer-vehicle-1"])
    @pytest.mark.parametrize("at", [1, 2, 3, 6, 7, 8])
    def test_same_error_before_and_after_the_handover(self, fault, message, at):
        # the quoted note of row 5 hands the rest of the file to csv.reader
        lines = [row(i) for i in range(9)]
        lines[4] = row(4, '"a,b"')
        lines[at - 1] = fault
        for text in (lf(*lines), lf(*lines).replace("\n", "\r\n")):
            with pytest.raises(ParseError) as err:
                parse_raw(io.StringIO(text))
            assert (err.value.row, str(err.value)) == (at, f"row {at}: {message}")

    @pytest.mark.parametrize("at", [1, 7])
    def test_short_row_beside_a_long_row(self, at):
        # one field too few, then one too many: the batch's comma count is right
        lines = [row(i) for i in range(9)]
        lines[4] = row(4, '"a,b"')
        lines[at - 1] = "g9,20,25,22,30,1999,2004,Pacific"
        lines[at] += ",extra"
        with pytest.raises(ParseError) as err:
            parse_raw(io.StringIO(lf(*lines)))
        assert (err.value.row, str(err.value)) == (at, f"row {at}: row is missing "
                                                       "columns ['note']")

    def test_every_plain_batch_splits_as_csv_reader_does(self):
        # random lines over an alphabet of the characters that matter to a
        # CSV reader; every block the fast path takes must split alike
        rng = random.Random(16)
        alphabet = ["a", "1", ",", " ", "\t", "\r", "\n", "\r\n", '"', "\0", "\\", "'",
                    "\x0b", "\x0c", "\x1c", " ", "\u0085", "é"]
        taken = 0
        for _ in range(3000):
            lines = ["".join(rng.choices(alphabet, k=rng.randint(0, 6)))
                     for _ in range(rng.randint(1, 4))]
            block = io.StringIO("\n".join(lines) + rng.choice(["", "\n", "\r\n"]),
                                newline="").readlines()
            split = data._plain_lines(block)
            if split is not None:
                taken += 1
                want = list(filter(None, csv.reader(block)))
                assert [line.split(",") for line in split] == want, block
        assert taken > 500


# note cells over the characters that matter to a CSV reader: quotes, bare
# CR, LF and control characters other than NUL (which csv.reader refused
# before Python 3.11); rows whole, quoted, ragged or blank; any line end
NOTE = st.lists(st.sampled_from(["a", "1", ",", " ", '"', "\r", "\n", "\r\n", "\t",
                                 "\x01", "\x0b", "\x0c", "\x1c", "\x7f", "\x85", "é"]),
                max_size=5).map("".join)
LINE = st.one_of(
    st.builds(row, st.integers(0, 9), st.sampled_from(["n", "", "a b", "é"])),
    st.builds(row, st.integers(0, 9), NOTE),
    st.builds(row, st.integers(0, 9), NOTE.map(lambda s: '"' + s.replace('"', '""') + '"')),
    st.builds(lambda i, k: ",".join((row(i).split(",") + ["x"])[:k]),
              st.integers(0, 9), st.integers(1, 10)),
    st.just(""))
FILE = st.lists(st.tuples(LINE, st.sampled_from(["\n", "\r\n", "\r"])), max_size=10).map(
    lambda lines: HEADER + "\n" + "".join(line + end for line, end in lines))


def parse_outcome(text: str):
    """The table of `text`, or the text of its ParseError."""
    try:
        return parse_raw(io.StringIO(text, newline=""))
    except ParseError as err:
        return str(err)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(FILE)
def test_split_path_agrees_with_the_csv_path(text):
    # the str.split path, with its handover, against csv.reader from the
    # first line; hypothesis takes no function-scoped fixture, so the
    # patches are made here
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_PARSE_ROWS", 2)
        split = parse_outcome(text)
        patch.setattr(data, "_plain_lines", lambda block: None)
        reader = parse_outcome(text)
    if isinstance(reader, str):
        assert split == reader
    else:
        assert isinstance(split, GarageTable)
        assert_same_table(split, reader)


MPG_FIELDS = ("my_mpg_1", "epa_mpg_1", "my_mpg_2", "epa_mpg_2")
YEAR_FIELDS = ("model_year_1", "model_year_2")
# cells that are good in some numeric fields and bad in others
ODD_CELLS = ["", " ", "abc", "nan", "inf", "1e400", "-1", "1e300", "2001.5"]


def odd_row(i: int, cells: list[tuple[int, str]], swap: bool) -> str:
    """A good row with its model years swapped if `swap`, then each (numeric
    field index, cell) of `cells` put in place."""
    fields = row(i).split(",")
    if swap:
        fields[5], fields[6] = fields[6], fields[5]
    for at, cell in cells:
        fields[1 + at] = cell
    return ",".join(fields)


def reference_fault(line: str) -> str | None:
    """The message of a line's first fault, field by field in field order."""
    fields = line.split(",")
    for name, cell in zip(MPG_FIELDS, fields[1:5]):
        if not cell.strip():
            return f"missing required numeric field {name!r}"
        try:
            value = float(cell)
        except ValueError:
            return f"field {name!r} is not a number: {cell!r}"
        if not 0 < value < float("inf"):
            return f"nonpositive mpg in field {name!r}: {cell!r}"
    years = []
    for name, cell in zip(YEAR_FIELDS, fields[5:7]):
        if not cell.strip():
            return f"missing required numeric field {name!r}"
        try:
            value = float(cell)
        except ValueError:
            value = float("nan")
        if not (abs(value) < 2.0 ** 63 and value.is_integer()):
            return f"field {name!r} is not an integer: {cell!r}"
        years.append(int(value))
    if years[0] > years[1]:
        return (f"vehicle 1 must be the older vehicle "
                f"(model_year_1={years[0]} > model_year_2={years[1]})")
    return None


ODD_LINE = st.builds(odd_row, st.integers(0, 9),
                     st.lists(st.tuples(st.integers(0, 5), st.sampled_from(ODD_CELLS)),
                              max_size=3),
                     st.booleans())


def insert_lines(lines: list[str], inserts: list[tuple[int, str]]) -> list[str]:
    for at, line in inserts:
        lines.insert(at, line)
    return lines


# good rows with up to three odd rows among them
ODD_FILE = st.builds(insert_lines, st.lists(st.builds(row, st.integers(0, 9)), max_size=6),
                     st.lists(st.tuples(st.integers(0, 6), ODD_LINE), max_size=3)).filter(bool)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ODD_FILE, st.sampled_from([2, 3]))
def test_first_fault_in_file_order_matches_a_row_by_row_check(lines, batch_rows):
    # the whole-column rule against a reference that checks one row at a
    # time: the same first fault by row and message, or the same table
    text = lf(*lines)
    faults = [(r, fault) for r, fault in enumerate(map(reference_fault, lines), 1) if fault]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_PARSE_ROWS", batch_rows)
        if faults:
            r, fault = faults[0]
            with pytest.raises(ParseError) as err:
                parse_raw(io.StringIO(text, newline=""))
            assert (err.value.row, str(err.value)) == (r, f"row {r}: {fault}")
        else:
            assert_same_table(parse_raw(io.StringIO(text, newline="")), reader_table(text))


# cells whose text csv.writer writes unquoted, quoted, or otherwise specially
CELLS = [None, "", "plain", "a,b", 'say "hi"', "a\rb", "a\nb", "a\r\nb", "a\0b", " pad ",
         float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 0.1, 1 / 3,
         np.float64(0.1), np.int64(7), 0, -12, 2 ** 70, True, False, "None"]
# the str CELLS written as they are, outside a one-column table
PLAIN = ("", "plain", " pad ", "None")


def cells(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def writer_bytes(header, columns) -> bytes | str:
    """What csv.writer writes for the header and then the rows of `columns`,
    or the text of the csv.Error it raises (for NUL before Python 3.11)."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    try:
        writer.writerows(zip(*map(cells, columns)))
    except csv.Error as exc:
        return f"csv.Error: {exc}"
    return out.getvalue().encode()


def outcome(path, write) -> bytes | str:
    """The bytes that `write()` writes to `path`, or the text of its csv.Error."""
    try:
        write()
    except csv.Error as exc:
        return f"csv.Error: {exc}"
    return path.read_bytes()


def written(path, write, monkeypatch) -> tuple[bytes | str, list[list]]:
    """The outcome of `write()`, and the batches of rows it hands to csv.writer."""
    batches = []

    def recording_writer(fh):
        writer = csv.writer(fh)

        class Recorder:
            writerow = writer.writerow

            def writerows(self, rows):
                batches.append(rows := list(rows))
                writer.writerows(rows)

        return Recorder()

    with monkeypatch.context() as patch:
        patch.setattr(data, "csv", types.SimpleNamespace(writer=recording_writer))
        return outcome(path, write), batches


def objects(values) -> np.ndarray:
    """An object array of `values` as they are (np.array would convert some)."""
    values = list(values)
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


class TestWriteMatchesWriter:
    @pytest.mark.parametrize("cell", CELLS, ids=repr)
    def test_one_cell_in_every_position(self, cell, tmp_path, monkeypatch):
        # in batches of two rows, only the batch of row 5 holds the cell, so
        # only it may go to csv.writer, and only if the cell is not plain
        path = tmp_path / "out.csv"
        column = [f"c{i}" for i in range(8)]
        column[5] = cell
        plain = type(cell) is str and cell in PLAIN
        for form in (objects, list):
            for at in range(3):
                columns = [objects(f"g{i}" for i in range(8)), np.arange(8) / 4,
                           np.arange(8) - 3]
                columns[at] = form(column)
                got, fallen = written(path, lambda: write_csv(path, ["id", "x", "n"], columns),
                                      monkeypatch)
                assert got == writer_bytes(["id", "x", "n"], columns)
                assert fallen == ([] if plain else [list(zip(*map(cells, columns)))[4:6]])
            # a one-column table writes an empty cell as ""
            got, fallen = written(path, lambda: write_csv(path, ["c"], [form(column)]),
                                  monkeypatch)
            assert got == writer_bytes(["c"], [column])
            assert fallen == ([] if plain and cell else [[("c4",), (cell,)]])

    @pytest.mark.parametrize("columns", [
        lambda: [["", "x"]], lambda: [[None, "x"]], lambda: [["x", "y"]],
        lambda: [("a", ""), ("b", "")], lambda: [np.array([1.0, 2.0])],
    ], ids=["empty-cell-row", "none-row", "one-column", "empty-cells", "one-float-column"])
    def test_short_and_odd_rows(self, columns, tmp_path):
        path = tmp_path / "out.csv"
        header = ["h"] * len(columns())
        write_csv(path, header, columns())
        assert path.read_bytes() == writer_bytes(header, columns())

    @pytest.mark.parametrize("column", [[""], [None], ["", ""], ["x", "", "y", None, "z"],
                                        ["x", "y", "", "z"]])
    @pytest.mark.parametrize("form", [list, objects], ids=["list", "object-array"])
    def test_one_column_with_empty_and_none_cells(self, column, form, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        got, fallen = written(path, lambda: write_csv(path, ["h"], [form(column)]),
                              monkeypatch)
        assert got == writer_bytes(["h"], [column])
        batches = [column[i:i + 2] for i in range(0, len(column), 2)]
        assert fallen == [list(zip(b)) for b in batches if "" in b or None in b]

    def test_numeric_columns_are_never_quoted(self, tmp_path, monkeypatch):
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e-300, 0.1, 1 / 3,
                           1.7976931348623157e308, 1e16, 123456789.0])
        n = len(floats)
        columns = [
            floats, -floats,
            np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, *range(-5, 5)]),
            np.array([np.iinfo(np.uint64).max, *range(n - 1)], dtype=np.uint64),
            np.arange(n) % 3 == 0, (floats / 3e290).astype(np.float32),
            np.arange(n, dtype=np.int8),
        ]
        header = [f"c{i}" for i in range(len(columns))]
        path = tmp_path / "out.csv"
        got, fallen = written(path, lambda: write_csv(path, header, columns), monkeypatch)
        assert got == writer_bytes(header, columns)
        assert fallen == []
        for column in columns:      # a one-column table too
            write_csv(path, ["h"], [column])
            assert path.read_bytes() == writer_bytes(["h"], [column])

    def test_numbers_in_an_object_covariate_column(self, tmp_path, monkeypatch):
        # a table built in code may hold numbers, or None, among the strings
        # of a covariate; the batches that hold one go to csv.writer
        extra = objects(["a", "b", 1, 2.5, "c", "d", np.float64(0.1), np.int64(7), "e", "f",
                         True, None, "g", -0.0])
        n = len(extra)
        table = compute_gaps(GarageTable(
            garage_id=objects(f"g{i}" for i in range(n)),
            my_mpg=np.arange(2 * n).reshape(n, 2) / 3 + 10, epa_mpg=np.full((n, 2), 25.0),
            model_year=np.tile([1999, 2004], (n, 1)), us_division=objects(["Pacific"] * n),
            covariates={"extra": extra, "note": objects(["n"] * n)}))
        path = tmp_path / "out.csv"
        got, fallen = written(path, lambda: data.write_garage_csv(table, path), monkeypatch)
        columns = [table.garage_id, table.my_mpg[:, 0], table.epa_mpg[:, 0],
                   table.my_mpg[:, 1], table.epa_mpg[:, 1], table.model_year[:, 0],
                   table.model_year[:, 1], table.us_division, extra, table.covariates["note"],
                   table.gap[:, 0], table.gap[:, 1]]
        header = [*data.GARAGE_COLUMNS, "extra", "note", *data.GAP_COLUMNS]
        assert got == writer_bytes(header, columns)
        rows = list(zip(*map(cells, columns)))
        assert fallen == [rows[i:i + 2] for i in (2, 6, 10, 12)]

    def test_unequal_columns_are_refused(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=r"^columns of unequal lengths \[2, 3\]$"):
            write_csv(path, ["a", "b", "c"], [["x", "y", "z"], np.arange(2), ["u", "v", "w"]])
        assert not path.exists()

    def test_no_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[], np.arange(0)])
        assert path.read_bytes() == b"a,b\r\n"

    def test_random_cells(self, tmp_path):
        # random tables over columns of every kind: numeric numpy columns,
        # str columns that may need quotes, and columns of any CELLS
        rng = random.Random(16)
        alphabet = ["a", "1", ",", " ", '"', "\r", "\n", "\0", "é", ""]

        def column(n):
            kind = rng.choice(["float", "int", "bool", "str", "cells"])
            if kind == "float":
                return np.array([rng.uniform(-1e3, 1e3) for _ in range(n)])
            if kind == "int":
                return np.array([rng.randint(-2 ** 63, 2 ** 63 - 1) for _ in range(n)])
            if kind == "bool":
                return np.array([rng.random() < 0.5 for _ in range(n)])
            if kind == "str":
                values = ["".join(rng.choices(alphabet, k=rng.randint(0, 2)))
                          if rng.random() < 0.2 else f"s{i}" for i in range(n)]
            else:
                values = [rng.choice(CELLS) if rng.random() < 0.2 else f"v{i}"
                          for i in range(n)]
            return rng.choice([list, objects])(values)

        path = tmp_path / "out.csv"
        for _ in range(300):
            n = rng.randint(0, 9)
            columns = [column(n) for _ in range(rng.randint(1, 4))]
            header = [f"c{i}" for i in range(len(columns))]
            assert outcome(path, lambda: write_csv(path, header, columns)) == \
                writer_bytes(header, columns)


# any text but NUL (which csv.writer refuses before Python 3.11) and lone
# surrogates (which UTF-8 cannot hold)
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0"),
               max_size=5)
# MPG figures whose ratios stay finite
POSITIVE = st.floats(min_value=1e-150, max_value=1e150)
YEAR = st.integers(-2 ** 63, 2 ** 63 - 1)


@st.composite
def gap_tables(draw, text=TEXT) -> data.GapTable:
    n = draw(st.integers(0, 7))

    def strings() -> np.ndarray:
        return objects(draw(st.lists(text, min_size=n, max_size=n)))

    def numbers(elements) -> list:
        return draw(st.lists(st.tuples(elements, elements), min_size=n, max_size=n))

    names = draw(st.lists(st.sampled_from(["note", "a,b", 'say "hi"', "é", " pad", "x\ny"]),
                          unique=True, max_size=3))
    return compute_gaps(GarageTable(
        garage_id=strings(), my_mpg=np.array(numbers(POSITIVE), dtype=float).reshape(n, 2),
        epa_mpg=np.array(numbers(POSITIVE), dtype=float).reshape(n, 2),
        model_year=np.sort(np.array(numbers(YEAR), dtype=np.int64).reshape(n, 2), axis=1),
        us_division=strings(), covariates={name: strings() for name in names}))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gap_tables())
def test_written_table_reads_back(table):
    # write_garage_csv, then parse_raw, in batches of two rows: the same
    # table, gap bits included
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_PARSE_ROWS", 2)
        path = Path(tmp) / "garages.csv"
        data.write_garage_csv(table, path)
        again = compute_gaps(parse_raw(path))
    assert_same_table(again, table)
    assert again.gap.tobytes() == table.gap.tobytes()


@pytest.mark.parametrize("cell,year", [
    ("9007199254740993", 2 ** 53 + 1), (" 9007199254740993 ", 2 ** 53 + 1),
    ("9.007199254740993e15", 2 ** 53 + 1), ("+9_007_199_254_740_993", 2 ** 53 + 1),
    ("9223372036854775807", 2 ** 63 - 1), ("-9223372036854775808", -2 ** 63),
    ("1e16", 10 ** 16), ("9223372036854775808", None), ("-9223372036854775809", None),
    ("9007199254740993.5", None), ("1e19", None), ("1e400", None),
], ids=repr)
def test_model_year_is_read_exactly(cell, year):
    # float holds integers exactly only up to 2^53; beyond it a year is
    # read again from its text, so no year is rounded and all of int64 fits
    text = lf(f"g0,20,25,22,30,{cell},{cell},Pacific,n")
    if year is None:
        with pytest.raises(ParseError) as err:
            parse_raw(io.StringIO(text))
        assert str(err.value) == f"row 1: field 'model_year_1' is not an integer: {cell!r}"
    else:
        assert parse_raw(io.StringIO(text)).model_year.tolist() == [[year, year]]


def test_rounded_years_keep_their_order():
    # 2^53 + 1 reads as the float 2^53: only its exact value is newer
    for years, fault in [((2 ** 53 + 1, 2 ** 53), True),
                         ((2 ** 53, 2 ** 53 + 1), False)]:
        text = lf("g0,20,25,22,30,{},{},Pacific,n".format(*years))
        if fault:
            with pytest.raises(ParseError, match="vehicle 1 must be the older vehicle "
                               rf"\(model_year_1={years[0]} > model_year_2={years[1]}\)"):
                parse_raw(io.StringIO(text))
        else:
            assert parse_raw(io.StringIO(text)).model_year.tolist() == [list(years)]


def test_prepare_output_reads_back_as_the_kept_table(tmp_path):
    rng = np.random.default_rng(16)
    n = 41
    epa = rng.uniform(10, 50, (n, 2))
    mpg = epa * rng.normal(0.85, 0.01, (n, 2))
    mpg[7, 0] = 3 * epa[7, 0]               # the one garage trimmed
    mpg, epa = mpg.tolist(), epa.tolist()
    lines = [f"g{i},{mpg[i][0]!r},{epa[i][0]!r},{mpg[i][1]!r},{epa[i][1]!r},"
             f"{1990 + i % 9},2004,Pacific,{rng.uniform():.17g}" for i in range(n)]
    raw = tmp_path / "raw.csv"
    raw.write_text(lf(*lines))
    out = tmp_path / "prepared.csv"
    assert main(["prepare", "--input", str(raw), "--out", str(out), "--trim-sd", "3"]) == 0
    kept, removed, _ = trim_outliers(compute_gaps(parse_raw(raw)))
    assert removed.garage_id.tolist() == ["g7"]
    again = compute_gaps(parse_raw(out))
    assert_same_table(again, kept)
    assert again.gap.tobytes() == kept.gap.tobytes()


@pytest.mark.parametrize("first", ["garage_id", '"garage_id"'])
def test_byte_order_mark_is_not_part_of_the_header(first, tmp_path):
    # spreadsheet "CSV UTF-8" exports begin with U+FEFF, read as text by utf-8
    text = INPUTS["lf"].replace("garage_id", first, 1)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(("\ufeff" + text).encode())
    want = parse_raw(plain)
    assert_same_table(parse_raw(marked), want)
    assert_same_table(parse_raw(io.StringIO("\ufeff" + text, newline="")), want)
    outputs = []
    for path in (plain, marked):
        out = path.with_name(f"{path.stem}.prepared.csv")
        assert main(["prepare", "--input", str(path), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# the table image that `prepare` writes beside its CSV

# text cells over the characters that matter to the CSV and to the image:
# its separators, all but NUL (which csv.writer refuses before Python 3.11)
SEPARATED = st.lists(st.sampled_from(["a", ",", '"', "\r", "\n", "\r\n", "\x1f", "\x1e",
                                      "\x1d", "\x1c", "é", " "]), max_size=4).map("".join)


def write_with_image(table: GarageTable, path: Path) -> Path | None:
    """`table` as a garage CSV at `path` and as its image; the image's path."""
    data.write_garage_csv(table, path)
    return data.write_table_image(table, path, data.file_sha256(path))


def read_both(path: Path) -> tuple[GarageTable, dict, GarageTable]:
    """parse_raw of `path` with its origin, and the table of the CSV text alone."""
    origin = {}
    table = parse_raw(path, origin=origin)
    with open(path, newline="", encoding="utf-8") as fh:
        return table, origin, parse_raw(fh)


def assert_same_layout(got: GarageTable, want: GarageTable) -> None:
    assert_same_table(got, want)
    for name in ("my_mpg", "epa_mpg", "model_year"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == \
               (b.flags.c_contiguous, b.flags.f_contiguous), name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(gap_tables(st.one_of(TEXT, SEPARATED)))
def test_image_serves_the_table_the_csv_holds(table):
    # NUL is never in these cells, so a separator is always free
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_PARSE_ROWS", 2)
        path = Path(tmp) / "garages.csv"
        assert write_with_image(table, path) == data.image_path(path)
        got, origin, want = read_both(path)
        assert origin == {"source": "image", "sha256": data.file_sha256(path)}
    assert_same_layout(got, want)
    assert_same_table(got, table)


def one_column_table(cells: list[str]) -> GarageTable:
    n = len(cells)
    return GarageTable(
        garage_id=objects(cells), my_mpg=np.full((n, 2), 20.5), epa_mpg=np.full((n, 2), 25.0),
        model_year=np.tile([1999, 2004], (n, 1)), us_division=objects(cells),
        covariates={"note": objects(cells), "a,b\x1f": objects(["x"] * n)})


class TestTableImage:
    @pytest.mark.parametrize("cells", [
        [], ["plain"], [""], ["a,b"], ['say "hi"'], ["two\r\nlines"], ["\r"], ["\n"],
        ["\x1f"], ["\x1f\x1e\x1d\x1c"], ["a\x1fb", "c\x1ed", ""],
    ], ids=repr)
    def test_no_row_or_a_few(self, cells, tmp_path):
        path = tmp_path / "garages.csv"
        assert write_with_image(one_column_table(cells), path) is not None
        got, origin, want = read_both(path)
        assert origin["source"] == "image"
        assert_same_layout(got, want)
        assert_same_table(got, one_column_table(cells))

    @pytest.mark.parametrize("cells", [["a", "\x1f\x1e\x1d\x1c\0"], ["\x1f\x1e", "\x1d\x1c\0"],
                                       ["x", 1.5], ["x", None]], ids=repr)
    def test_no_free_separator_or_a_cell_not_text_is_no_image(self, cells, tmp_path):
        # written by write_table_image alone: csv.writer refuses NUL before 3.11
        path = tmp_path / "garages.csv"
        stale = data.image_path(path)
        stale.write_bytes(b"an older image")
        table = one_column_table(["a", "b"])
        table.covariates["note"] = objects(cells)
        assert data.write_table_image(table, path, "sha256:" + "0" * 64) is None
        assert not stale.exists()

    def test_other_columns_or_a_stream_read_the_csv(self, tmp_path, monkeypatch):
        path = tmp_path / "garages.csv"
        write_with_image(one_column_table(["a", "b"]), path)
        hashed = []
        monkeypatch.setattr(data, "file_sha256", lambda p: hashed.append(p) or "sha256:")
        for read in (lambda origin: parse_raw(path, "epa_mpg", "my_mpg", origin=origin),
                     lambda origin: parse_raw(io.StringIO(path.read_text()), origin=origin)):
            origin = {}
            read(origin)
            assert origin == {"source": "csv"}
        assert hashed == []


def prepared(tmp_path: Path, name: str = "prepared.csv") -> Path:
    """A prepared CSV with its image, from 40 garages with a numeric note."""
    rng = np.random.default_rng(38)
    n = 40
    epa = rng.uniform(15, 45, (n, 2))
    mpg = (epa * rng.normal(0.85, 0.03, (n, 2))).tolist()
    epa = epa.tolist()
    raw = tmp_path / "raw.csv"
    raw.write_text(lf(*(f"g{i},{mpg[i][0]!r},{epa[i][0]!r},{mpg[i][1]!r},{epa[i][1]!r},"
                        f"{1990 + i % 9},2004,Pacific,{rng.uniform():.17g}" for i in range(n))))
    out = tmp_path / name
    assert main(["prepare", "--input", str(raw), "--out", str(out)]) == 0
    return out


def fit(data_path: Path, tmp_path: Path) -> tuple[bytes, dict]:
    """The sure fit JSON of `data_path`, and its manifest."""
    spec, out = tmp_path / "spec.json", tmp_path / "fit.json"
    spec.write_text(json.dumps({"equations": [
        {"name": name, "terms": [{"column": "note"}]} for name in ("vehicle_1", "vehicle_2")]}))
    assert main(["fit", "--data", str(data_path), "--spec", str(spec), "--estimator", "sure",
                 "--out", str(out)]) == 0
    return out.read_bytes(), json.loads((tmp_path / "fit.json.manifest.json").read_text())


def flip_last_gap_digit(csv_path: Path, image: Path) -> None:
    # gap columns are derived, and skipped when read: the same table
    text = csv_path.read_bytes()
    csv_path.write_bytes(text[:-3] + bytes([text[-3] ^ 1]) + text[-2:])


def truncate(csv_path: Path, image: Path) -> None:
    image.write_bytes(image.read_bytes()[:-5])


def with_an_object_array(csv_path: Path, image: Path) -> None:
    # the note column's record, the last, becomes an object array
    with open(image, "rb") as fh:
        records = [np.load(fh) for _ in range(7)]
        assert not fh.read()
    with open(image, "wb") as fh:
        for record in records[:-1] + [objects(["n"] * 40)]:
            np.save(fh, record)


def breaking_the_row_rule(change):
    def write(csv_path: Path, image: Path) -> None:
        table = parse_raw(io.StringIO(csv_path.read_text(), newline=""))
        change(table)
        data.write_table_image(table, csv_path, data.file_sha256(csv_path))
    return write


def of_another_csv(csv_path: Path, image: Path) -> None:
    table = parse_raw(io.StringIO(csv_path.read_text(), newline=""))
    data.write_table_image(table, csv_path, "sha256:" + "0" * 64)


class TestImageInThePipeline:
    def test_prepare_lists_the_image_and_fit_reads_it(self, tmp_path):
        out = prepared(tmp_path)
        image = data.image_path(out)
        manifest = json.loads((tmp_path / "prepared.csv.manifest.json").read_text())
        assert list(manifest["outputs"]) == [str(out), str(image),
                                             str(tmp_path / "prepared.report.json")]
        assert manifest["outputs"][str(image)] == data.file_sha256(image)
        _, manifest = fit(out, tmp_path)
        assert manifest["table_source"] == "image"
        assert manifest["inputs"][str(out)] == data.file_sha256(out)

    def test_two_prepares_write_the_same_image(self, tmp_path):
        a, b = prepared(tmp_path, "a.csv"), prepared(tmp_path, "b.csv")
        assert data.image_path(a).read_bytes() == data.image_path(b).read_bytes()

    @pytest.mark.parametrize("spoil", [
        flip_last_gap_digit, truncate, with_an_object_array, of_another_csv,
        breaking_the_row_rule(lambda t: t.my_mpg.__setitem__((3, 1), -t.my_mpg[3, 1])),
        breaking_the_row_rule(lambda t: t.epa_mpg.__setitem__((5, 0), np.inf)),
        breaking_the_row_rule(lambda t: t.model_year.__setitem__((7, 0), 2010)),
        lambda csv_path, image: image.unlink(),
    ], ids=["csv-edited", "truncated", "object-array", "another-digest", "negative-mpg",
            "infinite-epa", "newer-vehicle-1", "no-image"])
    def test_the_csv_serves_when_the_image_does_not_hold(self, spoil, tmp_path):
        out = prepared(tmp_path)
        served, _ = fit(out, tmp_path)
        spoil(out, data.image_path(out))
        again, manifest = fit(out, tmp_path)
        assert manifest["table_source"] == "csv"
        assert manifest["inputs"][str(out)] == data.file_sha256(out)
        assert again == served

    def test_each_command_hashes_each_file_once(self, tmp_path, monkeypatch):
        hashed = []
        real = data.file_sha256

        def counted(path):
            hashed.append(Path(path))
            return real(path)

        monkeypatch.setattr(data, "file_sha256", counted)
        monkeypatch.setattr(cli, "file_sha256", counted)
        out = prepared(tmp_path)
        assert Counter(hashed) == Counter([tmp_path / "raw.csv", out, data.image_path(out),
                                           tmp_path / "prepared.report.json"])
        hashed.clear()
        fit(out, tmp_path)
        assert Counter(hashed) == Counter([out, tmp_path / "spec.json", tmp_path / "fit.json"])
