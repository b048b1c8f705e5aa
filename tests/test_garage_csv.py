"""The garage CSV's batched split and join against the csv module itself.

`parse_raw` splits a batch with no quote, NUL or bare CR at every comma and
hands the first other batch, and the rest of the file, to `csv.reader`;
`write_csv` joins a batch whose cells need no quotes and writes any other
batch with `csv.writer`.  Here `csv.reader` and `csv.writer` are the
oracles, and `_PARSE_ROWS` is 2, so a small file spans many batches.
"""

import csv
import io
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuelgap import data
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


class TestParseMatchesReader:
    @pytest.mark.parametrize("name", INPUTS)
    def test_same_table_as_csv_reader(self, name):
        text = INPUTS[name]
        assert_same_table(parse_raw(io.StringIO(text, newline="")), reader_table(text))

    @pytest.mark.parametrize("name", INPUTS)
    def test_same_table_from_a_file(self, name, tmp_path):
        path = tmp_path / "garages.csv"
        path.write_bytes(INPUTS[name].encode())
        assert_same_table(parse_raw(path), reader_table(INPUTS[name]))

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


def writer_bytes(header, rows) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


class TestWriteMatchesWriter:
    @pytest.mark.parametrize("cell", CELLS, ids=repr)
    def test_one_cell_in_every_position(self, cell, tmp_path):
        rows = [("a", 1.5, 2), ["b", 2.5, 3], (cell, 1.0, 4), ("c", cell, 5),
                ("d", 3.0, cell), ("e", 4.0, 6), [cell], ("f", 5.0, 7)]
        path = tmp_path / "out.csv"
        write_csv(path, ["id", "x", "n"], rows)
        assert path.read_bytes() == writer_bytes(["id", "x", "n"], rows)

    @pytest.mark.parametrize("rows", [
        lambda: [[""], ["x"]], lambda: [[None], ["x"]], lambda: [[], ["x"]],
        lambda: [["x"], ["y"]], lambda: [("a", "b"), ("", "")], lambda: [(1.0,), (2.0,)],
        lambda: [iter(["a", "b"]), ("c", "d")], lambda: ["ab", "cd"],
    ], ids=["empty-cell-row", "none-row", "empty-row", "one-column", "empty-cells",
            "one-float-column", "iterator-row", "string-rows"])
    def test_short_and_odd_rows(self, rows, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["h"], rows())
        assert path.read_bytes() == writer_bytes(["h"], rows())

    def test_random_cells(self, tmp_path):
        rng = random.Random(16)
        rows = [[rng.choice(CELLS) if rng.random() < 0.1 else rng.uniform(-1e3, 1e3)
                 for _ in range(rng.randint(1, 4))] for _ in range(400)]
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], iter(rows))
        assert path.read_bytes() == writer_bytes(["a", "b"], rows)


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
