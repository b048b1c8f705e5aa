"""Ingestion and preparation of paired two-vehicle garage records.

The pipeline runs: parse raw CSV -> compute gap ratios -> trim outliers ->
encode design matrices.  A gap is the ratio of user-reported MPG to the
official test-cycle rating for the same vehicle; vehicle 1 is always the
older model year.

Garages are held column by column, never as one object per row.
`parse_raw` returns a `GarageTable`: MPG figures and model years are numpy
arrays of shape (n, 2), column 0 for vehicle 1, and garage ids, divisions
and covariates are object arrays of the verbatim CSV strings.
`compute_gaps` adds the (n, 2) gap array (`GapTable`); trimming, encoding
and summaries work on whole columns and select rows with `take`.

A garage row is valid under one rule, checked on whole columns: positive,
finite MPG figures, integral model years in the int64 range, and vehicle 1
no newer than vehicle 2.  A ParseError names the first fault in file order:
the first bad row, and in it the first bad field (user_1, epa_1, user_2,
epa_2, year_1, year_2), then the year order.

The garage CSV is read and written `_PARSE_ROWS` rows at a time, so neither
direction holds more than one batch of text.  A batch with no quote, NUL or
bare CR is split with `str.split` at every comma, as `csv.reader` would
split it; from the first batch that is not so plain, `csv.reader` splits
the rest of the file.  Every CSV the package writes goes through
`write_csv`, which takes the table as equal-length columns.  In each batch,
every column becomes text in one pass: the repr of each value of a numeric
numpy column, which never needs quoting, or a column of str cells as it
is, once its joined text holds no comma, quote, CR, LF or NUL.  The rows
are then joined in one piece, byte for byte what `csv.writer` writes.  A
batch with a cell of any other kind (None, a number in an object column),
a cell that needs quoting, or an empty cell in a one-column table goes
through `csv.writer` instead.

Beside the CSV it writes, `fuelgap prepare` writes the table's image
(`write_table_image`, at `image_path`), so that a later read need not parse
the text again.  The image is a run of pickle-free `np.save` records: its
format and the CSV's `file_sha256`; my_mpg, epa_mpg and model_year as they
are; then each text column (garage_id, us_division, the covariates in
order) as one UTF-8 buffer, a separator that none of its cells holds and
then its name and cells joined by that separator.  A column that holds
every separator, or a cell that is not a str, means no image.  `parse_raw`
of a path with the default MPG columns returns the image's table
(`read_table_image`) only if the image names the digest of the CSV's
bytes, its arrays have a GarageTable's shapes and dtypes, and they keep the
row rule; otherwise the text is parsed.  Either way the table is the same.
"""

from __future__ import annotations

import csv
import hashlib
import zipfile
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DegenerateDataError, ParseError, SpecError
from .modelspec import ModelSpec
from .sure import DesignMatrices

# the garage CSV: these columns, then the covariates, then (prepared data)
# the gaps; `parse_raw` reads it and `write_garage_csv` writes it
GARAGE_COLUMNS = ("garage_id", "my_mpg_1", "epa_mpg_1", "my_mpg_2", "epa_mpg_2",
                  "model_year_1", "model_year_2", "us_division")
GAP_COLUMNS = ("gap_1", "gap_2")
_ID, _YEAR_1, _YEAR_2, _DIVISION = GARAGE_COLUMNS[0], *GARAGE_COLUMNS[5:]
# the garage columns that other MPG columns (--mpg-columns) cannot replace
REQUIRED_COLUMNS = (_ID, _YEAR_1, _YEAR_2, _DIVISION)
NOT_REPORTED = "Not reported"

# model-year bins used for grouped summaries; configurable at the CLI
DEFAULT_YEAR_BINS = ((1984, 1988), (1989, 1993), (1994, 1998),
                     (1999, 2003), (2004, 2008), (2009, 2014))

# rows per batch, read or written: bounds the CSV text held at once, and a
# batch is split (or joined) by str methods or by the csv module as a whole
_PARSE_ROWS = 4096
# a model year must be integral and fit the int64 column that holds it;
# from _EXACT_LIMIT on, float may round a year, so it is read again exactly
_YEAR_LIMIT = 2.0 ** 63
_EXACT_LIMIT = 2.0 ** 53
# the table image beside a prepared CSV (`write_table_image`); a text
# column is joined by the first of the separators that none of its cells holds
_IMAGE_FORMAT = "fuelgap table image 1"
_IMAGE_SEPARATORS = "\x1f\x1e\x1d\x1c\0"


@dataclass(frozen=True)
class GarageTable:
    """Garages as columns: raw MPG figures plus covariates of both vehicles.

    my_mpg, epa_mpg (float) and model_year (int) have shape (n, 2), column 0
    for vehicle 1.  garage_id, us_division and each covariate (in header
    order) are object arrays of the verbatim CSV strings; a table built in
    code may hold numbers in a covariate column.
    """

    garage_id: np.ndarray = field(repr=False)
    my_mpg: np.ndarray = field(repr=False)
    epa_mpg: np.ndarray = field(repr=False)
    model_year: np.ndarray = field(repr=False)
    us_division: np.ndarray = field(repr=False)
    covariates: dict[str, np.ndarray] = field(repr=False)

    def __len__(self) -> int:
        return self.garage_id.shape[0]

    def take(self, rows) -> GarageTable:
        """The rows picked by an index array or boolean mask, in that order."""
        picked = {}
        for f in fields(self):
            value = getattr(self, f.name)
            picked[f.name] = ({name: column[rows] for name, column in value.items()}
                              if isinstance(value, dict) else value[rows])
        return type(self)(**picked)


@dataclass(frozen=True)
class GapTable(GarageTable):
    """A garage table with gap = my_mpg / epa_mpg, shape (n, 2)."""

    gap: np.ndarray = field(repr=False)


def _floats(cells) -> np.ndarray:
    """float() of every cell; NaN where float() fails."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        out = np.empty(len(cells))
        for j, cell in enumerate(cells):
            try:
                out[j] = float(cell)
            except ValueError:
                out[j] = np.nan
        return out


def _plain_lines(block: list[str]) -> list[str] | None:
    """The non-blank lines of `block`, line ends removed, if `csv.reader` would
    split each one at every comma; None if it might not.

    That holds when the text has no quote, no NUL (which `csv.reader`
    refuses before Python 3.11), no CR outside a CRLF and no line longer
    than the csv field size limit.
    """
    text = "".join(block)
    if '"' in text or "\0" in text \
            or max(map(len, block), default=0) > csv.field_size_limit():
        return None
    crs = text.count("\r")
    lines = text.split("\r\n")
    if len(lines) != crs + 1:           # a CR outside a CRLF
        return None
    if text.count("\n") != crs:         # a line that ends in LF alone
        lines = "\n".join(lines).split("\n")
    return list(filter(None, lines))


def _columns(batch: list, width: int, plain: bool) -> list:
    """The columns of a batch of rows of `width` fields each.

    The rows are `csv.reader` rows, or `plain` lines of `_plain_lines`,
    which are split here at every comma in one pass over the batch.
    """
    if not plain:
        return list(zip(*batch))
    flat = ",".join(batch).split(",")
    return [flat[i::width] for i in range(width)]


def _fault(cell: str, name: str, year: bool) -> str:
    """The message for a cell that breaks the row rule in its own field."""
    if not cell.strip():
        return f"missing required numeric field {name!r}"
    if year:
        return f"field {name!r} is not an integer: {cell!r}"
    try:
        float(cell)
    except ValueError:
        return f"field {name!r} is not a number: {cell!r}"
    return f"nonpositive mpg in field {name!r}: {cell!r}"


def _good_mpg(mpg: np.ndarray) -> np.ndarray:
    """The row rule of MPG figures: True where one is positive and finite."""
    return (mpg > 0) & (mpg < np.inf)


def _exact_year(cell: str) -> int | None:
    """The model year that `cell` spells, read exactly; None unless it is an
    integer in the int64 range.

    For a cell whose float is 2^53 or more in magnitude, which float may
    have rounded.  Such cells are rare, so decimal is imported only here.
    """
    from decimal import Decimal

    try:
        value = Decimal(cell)
        if value.is_finite() and value == value.to_integral_value() \
                and -2 ** 63 <= value < 2 ** 63:
            return int(value)
    except (ArithmeticError, ValueError):
        pass
    return None


def _parse_batch(columns: list, first: int, numeric: list[tuple[int, str]]):
    """my_mpg, epa_mpg and model_year, each (n, 2), of a batch's columns.

    The row rule is one (n, 7) matrix over whole columns: the six fields
    that `numeric` lists as (column index, name), then the year order.  Its
    first False in row-major order is the first fault in file order, raised
    as a ParseError at its row (`first` is the batch's first row).  A year
    is read through float, and read again exactly (`_exact_year`) where
    float may have rounded it.
    """
    mpg = np.column_stack([_floats(columns[i]) for i, _ in numeric[:4]])
    years = np.column_stack([_floats(columns[i]) for i, _ in numeric[4:]])
    ok = np.empty((len(mpg), 7), dtype=bool)
    ok[:, :4] = _good_mpg(mpg)
    ok[:, 4:6] = (np.abs(years) < _YEAR_LIMIT) & (years == np.floor(years))
    rounded = np.abs(years) >= _EXACT_LIMIT
    # a year that fails its own check stands in as 0; its own fault comes first
    years = np.where(ok[:, 4:6], years, 0).astype(np.int64)
    for row, v in zip(*map(np.ndarray.tolist, np.nonzero(rounded))):
        year = _exact_year(columns[numeric[4 + v][0]][row])
        ok[row, 4 + v] = year is not None
        years[row, v] = year or 0
    ok[:, 6] = years[:, 0] <= years[:, 1]
    if not ok.all():
        row, cell = divmod(int(np.argmin(ok)), 7)
        if cell < 6:
            i, name = numeric[cell]
            raise ParseError(first + row, _fault(columns[i][row], name, cell >= 4))
        raise ParseError(first + row, f"vehicle 1 must be the older vehicle (model_year_1="
                                      f"{years[row, 0]} > model_year_2={years[row, 1]})")
    return mpg[:, [0, 2]], mpg[:, [1, 3]], years


def parse_raw(source, user_col: str = "my_mpg", epa_col: str = "epa_mpg", *,
              origin: dict | None = None) -> GarageTable:
    """Parse a header-bearing CSV into a garage table.

    `source` is a path or an open text stream, not bytes; a leading
    byte-order mark is not part of the header.  `user_col` and
    `epa_col` pick the numerator/denominator column bases (suffixed _1/_2),
    so label-based ratings can be substituted for the default test-cycle
    columns.  Each row must have the header's width, positive finite MPG
    figures, integer model years and vehicle 1 no newer than vehicle 2.  The
    first fault in file order (by row, then field: user_1, epa_1, user_2,
    epa_2, year_1, year_2, the year order), or text that `csv.reader`
    refuses, raises a ParseError at its row (0 for the header; blank lines
    are not counted); nothing is silently dropped.  The gap columns of a
    prepared CSV (GAP_COLUMNS) are derived, so they are skipped:
    `compute_gaps` computes the gaps again from the MPG columns picked.

    A path read with the default MPG columns that has a table image beside
    it is hashed, and the image serves the table if it is the image of
    these bytes (`read_table_image`); in every other case the text does.
    `origin`, if given, receives "source", "image" or "csv", and "sha256",
    the path's `file_sha256`, if it was hashed.
    """
    origin = {} if origin is None else origin
    origin["source"] = "csv"
    if isinstance(source, (str, Path)):
        if (user_col, epa_col) == ("my_mpg", "epa_mpg") and image_path(source).is_file():
            origin["sha256"] = file_sha256(source)
            table = read_table_image(source, origin["sha256"])
            if table is not None:
                origin["source"] = "image"
                return table
        with open(source, newline="", encoding="utf-8") as fh:
            return parse_raw(fh, user_col=user_col, epa_col=epa_col)
    lines = iter(source)
    first = next(lines, None)
    if first is not None:   # spreadsheet "CSV UTF-8" exports begin with a byte-order mark
        lines = chain([first.removeprefix("\ufeff")], lines)
    try:
        header = next(csv.reader(lines), None)
    except csv.Error as exc:
        raise ParseError(0, str(exc)) from exc
    if header is None:
        raise ParseError(0, "input is empty (no header row)")
    position = {name: i for i, name in enumerate(header)}
    if len(position) < len(header):
        repeated = [name for name in position if header.count(name) > 1]
        raise ParseError(0, f"header repeats column names {repeated}")
    mpg_columns = tuple(f"{base}_{v}" for base in (user_col, epa_col) for v in (1, 2))
    missing = [c for c in REQUIRED_COLUMNS + mpg_columns if c not in header]
    if missing:
        raise ParseError(0, f"header is missing required columns {missing}")
    numeric = [(position[name], name) for name in
               (f"{user_col}_1", f"{epa_col}_1", f"{user_col}_2", f"{epa_col}_2",
                _YEAR_1, _YEAR_2)]
    special = set(REQUIRED_COLUMNS) | set(mpg_columns) | set(GAP_COLUMNS)
    text = {name: [] for name in (_ID, _DIVISION,
                                  *(c for c in position if c not in special))}
    # my_mpg, epa_mpg and model_year per batch; the empty first one fixes
    # the shapes of a file with no rows
    numbers = [(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2), dtype=np.int64))]
    width = len(header)
    parsed = 0

    def add(batch: list, plain: bool) -> None:
        """Check and keep a batch of csv.reader rows, or of plain lines."""
        nonlocal parsed
        widths = [line.count(",") + 1 for line in batch] if plain else list(map(len, batch))
        if widths.count(width) != len(batch):
            # the rows before the first misshapen one are checked first
            cut = next(j for j, w in enumerate(widths) if w != width)
            if cut:
                _parse_batch(_columns(batch[:cut], width, plain), parsed + 1, numeric)
            short = header[widths[cut]:]    # [] for a row that is too long
            raise ParseError(parsed + cut + 1, f"row is missing columns {short}" if short
                             else "row has more fields than the header")
        if batch:                       # a block of blank lines is no batch
            columns = _columns(batch, width, plain)
            numbers.append(_parse_batch(columns, parsed + 1, numeric))
            for name, values in text.items():
                values.extend(columns[position[name]])
            parsed += len(batch)

    while (block := list(islice(lines, _PARSE_ROWS))) \
            and (batch := _plain_lines(block)) is not None:
        del block                       # split already: one copy of the text at a time
        add(batch, plain=True)
    # the csv module reads on from the first block that is not plain
    rows = filter(None, csv.reader(chain(block, lines)))
    while True:
        batch = []
        try:
            batch.extend(islice(rows, _PARSE_ROWS))   # keeps the rows before a fault
        except csv.Error as exc:
            add(batch, plain=False)                   # an earlier row's fault comes first
            raise ParseError(parsed + 1, str(exc)) from exc
        if not batch:
            break
        add(batch, plain=False)

    strings = {name: np.array(values, dtype=object) for name, values in text.items()}
    my_mpg, epa_mpg, model_year = (np.concatenate(parts) for parts in zip(*numbers))
    return GarageTable(garage_id=strings.pop(_ID), my_mpg=my_mpg, epa_mpg=epa_mpg,
                       model_year=model_year, us_division=strings.pop(_DIVISION),
                       covariates=strings)


def compute_gaps(table: GarageTable) -> GapTable:
    """Gap ratio per vehicle: user-reported MPG over the official rating."""
    return GapTable(**{f.name: getattr(table, f.name) for f in fields(GarageTable)},
                    gap=table.my_mpg / table.epa_mpg)


@dataclass(frozen=True)
class TrimReport:
    n_input: int
    n_kept: int
    n_removed: int
    removed_ids: tuple[str, ...]
    mu: tuple[float, float]
    sd: tuple[float, float]
    n_outside: tuple[int, int]
    multiplier: float


def trim_outliers(table: GapTable, c: float = 3.0
                  ) -> tuple[GapTable, GapTable, TrimReport]:
    """Single-pass mean +/- c*SD trim over both gap series.

    Both intervals are computed from the full input (sample SD, N-1
    denominator); an observation is removed iff either gap falls outside its
    interval.  There is no re-iteration after removal, so the per-vehicle
    outside counts always sum (minus overlaps) to the union count.  Returns
    the kept rows, the removed rows and the report.
    """
    if not 0 < c < np.inf:
        raise ValueError(f"multiplier must be positive and finite, got {c}")
    if len(table) < 3:
        raise DegenerateDataError("insufficient sample for trimming (need >= 3)")
    # axis-0 moments of the C-ordered (n, 2) array: per-column 1-D moments
    # would differ in the last bits
    gaps = np.ascontiguousarray(table.gap)
    mu = gaps.mean(axis=0)
    sd = gaps.std(axis=0, ddof=1)
    lo = mu - c * sd
    hi = mu + c * sd
    outside = (gaps < lo) | (gaps > hi)
    removed_mask = outside.any(axis=1)
    kept, removed = table.take(~removed_mask), table.take(removed_mask)
    report = TrimReport(
        n_input=len(table),
        n_kept=len(kept),
        n_removed=len(removed),
        removed_ids=tuple(removed.garage_id.tolist()),
        mu=(float(mu[0]), float(mu[1])),
        sd=(float(sd[0]), float(sd[1])),
        n_outside=(int(outside[:, 0].sum()), int(outside[:, 1].sum())),
        multiplier=float(c),
    )
    return kept, removed, report


def _resolve(table: GarageTable, column: str) -> np.ndarray:
    """One column of the table by name: a covariate, or a field such as my_mpg_1."""
    if column in table.covariates:
        return table.covariates[column]
    if column in (_ID, _DIVISION):
        return getattr(table, column)
    base, _, vehicle = column.rpartition("_")
    if base in ("my_mpg", "epa_mpg", "model_year", "gap") and vehicle in ("1", "2") \
            and hasattr(table, base):
        return getattr(table, base)[:, int(vehicle) - 1]
    raise SpecError(f"variable {column!r} not found in the data")


def _continuous(values: np.ndarray, column: str) -> np.ndarray:
    try:
        col = values.astype(float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"variable {column!r} is declared continuous but "
                        f"holds non-numeric values: {exc}") from exc
    if not np.isfinite(col).all():
        raise SpecError(f"variable {column!r} holds non-finite values")
    return col


def _labels(values: np.ndarray) -> np.ndarray:
    """The categorical label of each value, as an object array: its text, or
    NOT_REPORTED for a blank value.  The one rule of dummies and group keys."""
    if values.dtype == object and all(type(v) is str and v.strip() for v in set(values)):
        return values
    labels = [str(v) for v in values.tolist()]
    return np.array([label if label.strip() else NOT_REPORTED for label in labels],
                    dtype=object)


def _indicator(values: np.ndarray, level: str) -> np.ndarray:
    """1.0 where a value's label is `level`, so a blank level matches nothing."""
    return (_labels(values) == level).astype(float)


def encode_design(table: GarageTable, spec: ModelSpec) -> DesignMatrices:
    """Encode the table's rows into the two design matrices declared by `spec`."""
    return encode_columns(len(table), lambda column: _resolve(table, column), spec)


def encode_columns(n: int, lookup: Callable[[str], np.ndarray],
                   spec: ModelSpec) -> DesignMatrices:
    """The two design matrices that `spec` declares over n rows.

    `lookup` returns a source column by name.  One 0/1 column per non-base
    category level, continuous columns passed through unchanged, and a
    leading intercept column of ones when enabled.  A blank categorical
    value's label is the explicit "Not reported" level (`_labels`).  Column
    rank is left to the estimators (sure._equation_ols).
    """
    if not n:
        raise SpecError("cannot encode an empty table")
    matrices = []
    for eq in spec.equations:
        columns = [np.ones(n)] if eq.intercept else []
        for term in eq.terms:
            values = lookup(term.column)
            columns.append(_continuous(values, term.column) if term.level is None
                           else _indicator(values, term.level))
        matrices.append(np.column_stack(columns))

    eq1, eq2 = spec.equations
    return DesignMatrices(
        x1=matrices[0], x2=matrices[1],
        names1=eq1.design_names, names2=eq2.design_names,
        random1=eq1.random_design_indices, random2=eq2.random_design_indices,
        eq_names=(eq1.name, eq2.name),
    )


def responses(table: GapTable) -> tuple[np.ndarray, np.ndarray]:
    """Gap-ratio response vectors (y1, y2) aligned with the design rows."""
    return table.gap[:, 0].copy(), table.gap[:, 1].copy()


def gap_correlation(table: GapTable) -> float:
    """Sample Pearson correlation between the two gap series."""
    if len(table) < 3:
        raise DegenerateDataError("need at least 3 observations for a correlation")
    g1, g2 = responses(table)
    d1 = g1 - g1.mean()
    d2 = g2 - g2.mean()
    v1 = float(d1 @ d1)
    v2 = float(d2 @ d2)
    if v1 == 0.0 or v2 == 0.0:
        raise DegenerateDataError("degenerate series: zero variance in a gap series")
    return float(np.clip(d1 @ d2 / np.sqrt(v1 * v2), -1.0, 1.0))


def model_year_bin(year: int, bins=DEFAULT_YEAR_BINS) -> str:
    for lo, hi in bins:
        if lo <= year <= hi:
            return f"{lo}-{hi}"
    return "outside"


# the columns of the groups CSV after the grouping keys
GROUP_SUMMARY_COLUMNS = ("n", "mean_gap_1", "mean_gap_2")


@dataclass(frozen=True)
class GroupSummaryRow:
    key: tuple[str, ...]
    n: int
    mean_gap_1: float
    mean_gap_2: float


def _group_codes(table: GarageTable, key: str, bins) -> tuple[np.ndarray, list[str]]:
    """Each row's code under one grouping key, and the sorted labels it indexes."""
    if key in ("model_year_bin_1", "model_year_bin_2"):
        years, rows = np.unique(table.model_year[:, int(key[-1]) - 1], return_inverse=True)
        names = [model_year_bin(year, bins) for year in years.tolist()]
    else:
        labels = _labels(_resolve(table, key)).tolist()
        index = {label: i for i, label in enumerate(dict.fromkeys(labels))}
        names = list(index)
        rows = np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))
    ordered = sorted(set(names))
    rank = dict(zip(ordered, range(len(ordered))))
    return np.array([rank[name] for name in names], dtype=np.int64)[rows], ordered


def group_summary(table: GapTable, keys: list[str],
                  bins=DEFAULT_YEAR_BINS) -> list[GroupSummaryRow]:
    """Mean gaps per observed key combination, in deterministic sorted order.

    Keys may be covariate columns, table fields, or the derived
    model_year_bin_1 / model_year_bin_2 labels.  A value's label is that of
    its dummy (`_labels`), so a blank value is in the NOT_REPORTED group.
    Rows are grouped by one stable sort of integer codes of their labels,
    and each mean runs over its group's rows in file order.
    """
    if not keys:
        raise SpecError("at least one grouping key is required")
    coded = [_group_codes(table, key, bins) for key in keys]
    # one code per row whose order is the order of the label tuples
    code, size = np.zeros(len(table), dtype=np.int64), 1
    for rows, names in coded:
        if size * len(names) >= 2 ** 63:    # renumber: fewer codes than rows
            code = np.unique(code, return_inverse=True)[1]
            size = len(table)
        code = code * len(names) + rows
        size *= len(names)
    order = np.argsort(code, kind="stable")
    code = code[order]
    starts = np.flatnonzero(np.diff(code, prepend=-1))
    ends = [*starts[1:].tolist(), len(table)]
    gap_1, gap_2 = table.gap[order, 0], table.gap[order, 1]
    return [GroupSummaryRow(key=tuple(names[rows[at]] for rows, names in coded),
                            n=end - start,
                            mean_gap_1=float(np.mean(gap_1[start:end])),
                            mean_gap_2=float(np.mean(gap_2[start:end])))
            for start, end, at in zip(starts.tolist(), ends, order[starts].tolist())]


def write_group_summary_csv(rows: list[GroupSummaryRow], keys: list[str], path) -> None:
    write_csv(path, [*keys, *GROUP_SUMMARY_COLUMNS], list(zip(
        *([*row.key, row.n, row.mean_gap_1, row.mean_gap_2] for row in rows))))


def _column_text(batch, alone: bool) -> list[str] | None:
    """The text `csv.writer` writes for the cells of `batch`, one batch of a
    column, if no cell needs quoting; None if one might, or if a cell is of
    another kind.

    A numeric numpy column's cells are ints, floats or bools, which
    `csv.writer` writes by their repr (a float's shortest repr) and never
    quotes.  Other cells must all be str and hold no comma, quote, CR, LF
    or NUL, and the one column of a table must have no empty cell, which
    `csv.writer` writes as `""`.
    """
    if isinstance(batch, np.ndarray) and batch.dtype.kind in "biuf":
        return list(map(repr, batch.tolist()))
    cells = _cells(batch)
    try:
        text = ",".join(cells)
    except TypeError:               # a cell that is not a str
        return None
    if text.count(",") != len(cells) - 1 or '"' in text or "\r" in text \
            or "\n" in text or "\0" in text or alone and "" in cells:
        return None
    return cells


def _cells(batch) -> list:
    return batch.tolist() if isinstance(batch, np.ndarray) else list(batch)


def write_csv(path, header, columns) -> None:
    """Write a header row and then the rows of `columns`, equal-length
    sequences such as numpy arrays or lists, as UTF-8 CSV: the bytes that
    `csv.writer` writes for those rows.

    A float is written by repr, so it reads back to the same bits.  Rows
    are written `_PARSE_ROWS` at a time, each column's batch made text in
    one pass (`_column_text`) and the rows joined in one piece; a batch
    with a cell that needs quoting, or of another kind than a number of a
    numeric numpy column or a str, is written by `csv.writer`.
    """
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, n, _PARSE_ROWS):
            batch = [column[start:start + _PARSE_ROWS] for column in columns]
            text = [_column_text(cells, len(columns) == 1) for cells in batch]
            if None in text:
                writer.writerows(zip(*map(_cells, batch)))
            else:
                fh.write("\r\n".join(map(",".join, zip(*text))))
                fh.write("\r\n")


def write_garage_csv(table: GarageTable, path) -> None:
    """Write every column of `table` in the garage CSV layout `parse_raw` reads.

    The garage columns, the covariates in table order, then for a GapTable
    the two gaps.
    """
    columns = [table.garage_id, table.my_mpg[:, 0], table.epa_mpg[:, 0],
               table.my_mpg[:, 1], table.epa_mpg[:, 1], table.model_year[:, 0],
               table.model_year[:, 1], table.us_division, *table.covariates.values()]
    header = [*GARAGE_COLUMNS, *table.covariates]
    if isinstance(table, GapTable):
        columns += [table.gap[:, 0], table.gap[:, 1]]
        header += GAP_COLUMNS
    write_csv(path, header, columns)


def file_sha256(path) -> str:
    """"sha256:" and the hex SHA-256 of the file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def image_path(csv_path) -> Path:
    """Where the table image of a garage CSV lies: `<name>.image` beside it."""
    path = Path(csv_path)
    return path.parent / (path.name + ".image")


def _image_head(digest: str) -> np.ndarray:
    """The first record of a table image: its format and the CSV's digest."""
    return _utf8(f"{_IMAGE_FORMAT} {digest}")


def _utf8(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8)


def _image_text(name: str, column: np.ndarray) -> str | None:
    """One text column of a table image: a separator that neither `name`
    nor any cell holds, then the name and the cells joined by it; None if
    every separator is taken or a cell is not a str."""
    cells = [name, *column.tolist()]
    for separator in _IMAGE_SEPARATORS:
        try:
            text = separator.join(cells)
        except TypeError:
            return None
        if text.count(separator) == len(cells) - 1:
            return separator + text
    return None


def write_table_image(table: GarageTable, csv_path, digest: str) -> Path | None:
    """Write the image of `table` beside `csv_path`, the garage CSV that
    holds the same table as text and whose `file_sha256` is `digest`.

    Returns the image's path, or None if a text column has no free
    separator or a cell that is not a str: then no image is written, and
    an older one beside the CSV is removed.
    """
    texts = [_image_text(name, column) for name, column in
             ((_ID, table.garage_id), (_DIVISION, table.us_division),
              *table.covariates.items())]
    path = image_path(csv_path)
    if None in texts:
        path.unlink(missing_ok=True)
        return None
    with open(path, "wb") as fh:
        for record in (_image_head(digest), table.my_mpg, table.epa_mpg, table.model_year,
                       *map(_utf8, texts)):
            np.save(fh, np.ascontiguousarray(record), allow_pickle=False)
    return path


def read_table_image(csv_path, digest: str) -> GarageTable | None:
    """The table that the image beside `csv_path` holds, if the image names
    `digest` (the CSV's `file_sha256`), its arrays have a GarageTable's
    shapes and dtypes and they keep the row rule; None otherwise, or if
    there is no image or it cannot be read whole.
    """
    records = []
    try:
        with open(image_path(csv_path), "rb") as fh:
            while fh.peek(1):
                records.append(np.load(fh, allow_pickle=False))
    except (OSError, ValueError, zipfile.BadZipFile):
        return None
    if len(records) < 6 or not all(isinstance(r, np.ndarray) for r in records):
        return None                     # np.load reads a zip archive as a whole
    head, my_mpg, epa_mpg, model_year, *buffers = records
    n = len(model_year) if model_year.ndim else -1
    if not np.array_equal(head, _image_head(digest)) \
            or [(a.dtype, a.shape) for a in (my_mpg, epa_mpg, model_year)] \
            != [(np.dtype(float), (n, 2))] * 2 + [(np.dtype(np.int64), (n, 2))] \
            or any(b.dtype != np.uint8 or b.ndim != 1 or not b.size for b in buffers) \
            or not (_good_mpg(my_mpg).all() and _good_mpg(epa_mpg).all()
                    and (model_year[:, 0] <= model_year[:, 1]).all()):
        return None
    try:
        texts = [buffer.tobytes().decode() for buffer in buffers]
    except UnicodeDecodeError:
        return None
    columns = [text[1:].split(text[0]) for text in texts]
    names = [name for name, *_ in columns]
    if names[:2] != [_ID, _DIVISION] or len(set(names)) < len(names) \
            or any(len(cells) != n + 1 for cells in columns):
        return None
    strings = {name: np.array(cells, dtype=object) for name, *cells in columns}
    return GarageTable(garage_id=strings.pop(_ID), my_mpg=np.ascontiguousarray(my_mpg),
                       epa_mpg=np.ascontiguousarray(epa_mpg),
                       model_year=np.ascontiguousarray(model_year),
                       us_division=strings.pop(_DIVISION), covariates=strings)
