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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DegenerateDataError, ParseError, SpecError
from .modelspec import ModelSpec
from .sure import full_rank_qr

REQUIRED_COLUMNS = ("garage_id", "model_year_1", "model_year_2", "us_division")
NOT_REPORTED = "Not reported"

# model-year bins used for grouped summaries; configurable at the CLI
DEFAULT_YEAR_BINS = ((1984, 1988), (1989, 1993), (1994, 1998),
                     (1999, 2003), (2004, 2008), (2009, 2014))

# rows parsed per batch: bounds the numeric text held at once
_PARSE_ROWS = 4096
# a model year must fit the int64 column that holds it
_YEAR_LIMIT = 2.0 ** 63


@dataclass(frozen=True)
class GarageTable:
    """Garages as columns: raw MPG figures plus covariates of both vehicles.

    my_mpg, epa_mpg (float) and model_year (int) have shape (n, 2), column 0
    for vehicle 1.  garage_id, us_division and each covariate (in header
    order) are object arrays of the verbatim CSV strings.
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


def _positive_float(raw: str | None, row: int, column: str) -> float:
    if raw is None or raw.strip() == "":
        raise ParseError(row, f"missing required numeric field {column!r}")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(row, f"field {column!r} is not a number: {raw!r}") from exc
    if not 0 < value < np.inf:
        raise ParseError(row, f"nonpositive mpg in field {column!r}: {raw!r}")
    return value


def _required_int(raw: str | None, row: int, column: str) -> int:
    if raw is None or raw.strip() == "":
        raise ParseError(row, f"missing required numeric field {column!r}")
    try:
        value = float(raw)
        if abs(value) < _YEAR_LIMIT:        # neither NaN nor infinite nor too large
            return int(value)
    except ValueError:
        pass
    raise ParseError(row, f"field {column!r} is not an integer: {raw!r}")


def _check_row(row: list[str], row_number: int, numeric: list[tuple[int, str]]) -> None:
    """Check one row field by field, in field order; raise at the first fault.

    `numeric` lists (index, name) of the four MPG fields, then the two
    model years.
    """
    for i, name in numeric[:4]:
        _positive_float(row[i], row_number, name)
    year1, year2 = (_required_int(row[i], row_number, name) for i, name in numeric[4:])
    if year1 > year2:
        raise ParseError(row_number,
                         f"vehicle 1 must be the older vehicle "
                         f"(model_year_1={year1} > model_year_2={year2})")


def _check_width(row: list[str], row_number: int, header: list[str]) -> None:
    if len(row) > len(header):
        raise ParseError(row_number, "row has more fields than the header")
    if len(row) < len(header):
        raise ParseError(row_number, f"row is missing columns {header[len(row):]}")


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


def _parse_batch(rows: list[list[str]], columns: list[tuple[str, ...]], first: int,
                 numeric: list[tuple[int, str]]):
    """my_mpg, epa_mpg and model_year, each (n, 2), of rows of full width.

    `columns` are the rows transposed.  Every field takes the fast path, a
    bulk float(); a row where any field fails is checked again field by
    field, which raises with the message and row number (`first` is the
    first row's) of its first fault.
    """
    mpg = np.column_stack([_floats(columns[i]) for i, _ in numeric[:4]])
    years = np.column_stack([_floats(columns[i]) for i, _ in numeric[4:]])
    bad = ~((mpg > 0) & (mpg < np.inf)).all(axis=1) \
        | ~(np.abs(years) < _YEAR_LIMIT).all(axis=1)
    if not bad.any():
        years = years.astype(np.int64)
        bad = years[:, 0] > years[:, 1]
    for j in np.flatnonzero(bad).tolist():
        _check_row(rows[j], first + j, numeric)
    return mpg[:, [0, 2]], mpg[:, [1, 3]], years


def parse_raw(source, user_col: str = "my_mpg", epa_col: str = "epa_mpg") -> GarageTable:
    """Parse a header-bearing CSV stream into a garage table.

    `source` may be a path or an open text/byte stream.  `user_col` and
    `epa_col` pick the numerator/denominator column bases (suffixed _1/_2),
    so label-based ratings can be substituted for the default test-cycle
    columns.  Any row with a missing field, an unparseable number, or a
    nonpositive MPG aborts the parse with its row number; nothing is
    silently dropped.  Blank lines are skipped and not counted.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            return parse_raw(fh, user_col=user_col, epa_col=epa_col)
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")

    reader = csv.reader(source)
    header = next(reader, None)
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
                "model_year_1", "model_year_2")]
    special = set(REQUIRED_COLUMNS) | set(mpg_columns)
    text = {name: [] for name in ("garage_id", "us_division",
                                  *(c for c in position if c not in special))}
    # my_mpg, epa_mpg and model_year per batch; the empty first one fixes
    # the shapes of a file with no rows
    numbers = [(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2), dtype=np.int64))]

    rows = filter(None, reader)
    parsed = 0
    while batch := list(islice(rows, _PARSE_ROWS)):
        widths = list(map(len, batch))
        if widths.count(len(header)) != len(batch):
            # the rows before the first misshapen one are checked first
            cut = next(j for j, w in enumerate(widths) if w != len(header))
            if cut:
                _parse_batch(batch[:cut], list(zip(*batch[:cut])), parsed + 1, numeric)
            _check_width(batch[cut], parsed + cut + 1, header)
        columns = list(zip(*batch))
        numbers.append(_parse_batch(batch, columns, parsed + 1, numeric))
        for name, values in text.items():
            values.extend(columns[position[name]])
        parsed += len(batch)

    strings = {name: np.array(values, dtype=object) for name, values in text.items()}
    my_mpg, epa_mpg, model_year = (np.concatenate(parts) for parts in zip(*numbers))
    return GarageTable(garage_id=strings.pop("garage_id"), my_mpg=my_mpg, epa_mpg=epa_mpg,
                       model_year=model_year, us_division=strings.pop("us_division"),
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

    def as_dict(self) -> dict:
        return {
            "n_input": self.n_input,
            "n_kept": self.n_kept,
            "n_removed": self.n_removed,
            "removed_ids": list(self.removed_ids),
            "mu": list(self.mu),
            "sd": list(self.sd),
            "n_outside": list(self.n_outside),
            "multiplier": self.multiplier,
        }


def trim_outliers(table: GapTable, c: float = 3.0
                  ) -> tuple[GapTable, GapTable, TrimReport]:
    """Single-pass mean +/- c*SD trim over both gap series.

    Both intervals are computed from the full input (sample SD, N-1
    denominator); an observation is removed iff either gap falls outside its
    interval.  There is no re-iteration after removal, so the per-vehicle
    outside counts always sum (minus overlaps) to the union count.  Returns
    the kept rows, the removed rows and the report.
    """
    if c <= 0:
        raise ValueError(f"multiplier must be positive, got {c}")
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


@dataclass(frozen=True)
class DesignMatrices:
    """Row-aligned design matrices for the two equations.

    random1/random2 hold the column indices whose coefficients the spec
    marks random-normal, in design order.
    """

    x1: np.ndarray = field(repr=False)
    x2: np.ndarray = field(repr=False)
    names1: tuple[str, ...]
    names2: tuple[str, ...]
    random1: tuple[int, ...]
    random2: tuple[int, ...]


def _resolve(table: GarageTable, column: str) -> np.ndarray:
    """One column of the table by name: a covariate, or a field such as my_mpg_1."""
    if column in table.covariates:
        return table.covariates[column]
    if column in ("garage_id", "us_division"):
        return getattr(table, column)
    base, _, vehicle = column.rpartition("_")
    if base in ("my_mpg", "epa_mpg", "model_year", "gap") and vehicle in ("1", "2") \
            and hasattr(table, base):
        return getattr(table, base)[:, int(vehicle) - 1]
    raise SpecError(f"variable {column!r} not found in the data")


def _continuous(values: np.ndarray, column: str) -> np.ndarray:
    try:
        col = np.fromiter(map(float, values), float, len(values))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"variable {column!r} is declared continuous but "
                        f"holds non-numeric values: {exc}") from exc
    if not np.isfinite(col).all():
        raise SpecError(f"variable {column!r} holds non-finite values")
    return col


def _indicator(values: np.ndarray, level: str) -> np.ndarray:
    """1.0 where a value's label is `level`; a blank value's label is NOT_REPORTED."""
    labels = values if values.dtype == object else np.array(
        [str(v) for v in values.tolist()], dtype=object)
    if not level.strip():           # a blank value is never its own label
        return np.zeros(len(labels))
    hits = labels == level
    if level == NOT_REPORTED:
        hits |= np.array([not v.strip() for v in labels.tolist()], dtype=bool)
    return hits.astype(float)


def encode_design(table: GarageTable, spec: ModelSpec) -> DesignMatrices:
    """Encode the table's rows into the two design matrices declared by `spec`.

    One 0/1 column per non-base category level, continuous columns passed
    through unchanged, and a leading intercept column of ones when enabled.
    Missing categorical values count as the explicit "Not reported" level.
    Both matrices must have full column rank.
    """
    if not len(table):
        raise SpecError("cannot encode an empty table")
    matrices = []
    for eq in spec.equations:
        columns = [np.ones(len(table))] if eq.intercept else []
        for term in eq.terms:
            values = _resolve(table, term.column)
            columns.append(_continuous(values, term.column) if term.level is None
                           else _indicator(values, term.level))
        matrices.append(np.column_stack(columns))

    eq1, eq2 = spec.equations
    design = DesignMatrices(
        x1=matrices[0], x2=matrices[1],
        names1=eq1.design_names, names2=eq2.design_names,
        random1=eq1.random_design_indices, random2=eq2.random_design_indices,
    )
    full_rank_qr(design.x1, design.names1)
    full_rank_qr(design.x2, design.names2)
    return design


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


@dataclass(frozen=True)
class GroupSummaryRow:
    key: tuple[str, ...]
    n: int
    mean_gap_1: float
    mean_gap_2: float


def _group_labels(table: GarageTable, key: str, bins) -> list[str]:
    if key in ("model_year_bin_1", "model_year_bin_2"):
        years = table.model_year[:, int(key[-1]) - 1].tolist()
        label = {year: model_year_bin(year, bins) for year in set(years)}
        return [label[year] for year in years]
    return [str(v) for v in _resolve(table, key).tolist()]


def group_summary(table: GapTable, keys: list[str],
                  bins=DEFAULT_YEAR_BINS) -> list[GroupSummaryRow]:
    """Mean gaps per observed key combination, in deterministic sorted order.

    Keys may be covariate columns, table fields, or the derived
    model_year_bin_1 / model_year_bin_2 labels.  Each mean runs over its
    group's rows in file order.
    """
    if not keys:
        raise SpecError("at least one grouping key is required")
    groups: dict[tuple[str, ...], list[int]] = {}
    for row, key in enumerate(zip(*(_group_labels(table, k, bins) for k in keys))):
        groups.setdefault(key, []).append(row)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        rows.append(GroupSummaryRow(
            key=key,
            n=len(members),
            mean_gap_1=float(np.mean(table.gap[members, 0])),
            mean_gap_2=float(np.mean(table.gap[members, 1])),
        ))
    return rows


def write_group_summary_csv(rows: list[GroupSummaryRow], keys: list[str], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(keys) + ["n", "mean_gap_1", "mean_gap_2"])
        for row in rows:
            writer.writerow(list(row.key) + [row.n,
                                             repr(row.mean_gap_1), repr(row.mean_gap_2)])
