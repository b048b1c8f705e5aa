"""Ingestion and preparation of paired two-vehicle garage records.

The pipeline runs: parse raw CSV -> compute gap ratios -> trim outliers ->
encode design matrices.  A gap is the ratio of user-reported MPG to the
official test-cycle rating for the same vehicle; vehicle 1 is always the
older model year.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DegenerateDataError, ParseError, SpecError
from .modelspec import ModelSpec
from .sure import full_rank_qr

REQUIRED_COLUMNS = ("garage_id", "model_year_1", "model_year_2", "us_division")
NOT_REPORTED = "Not reported"

# model-year bins used for grouped summaries; configurable at the CLI
DEFAULT_YEAR_BINS = ((1984, 1988), (1989, 1993), (1994, 1998),
                     (1999, 2003), (2004, 2008), (2009, 2014))


@dataclass(frozen=True)
class RawGarageRecord:
    """One garage: raw MPG figures plus covariates for both vehicles."""

    garage_id: str
    my_mpg_1: float
    epa_mpg_1: float
    my_mpg_2: float
    epa_mpg_2: float
    model_year_1: int
    model_year_2: int
    us_division: str
    covariates: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class PairedGapObservation:
    """Gap ratios for the two vehicles of one garage, covariates attached."""

    garage_id: str
    gap_1: float
    gap_2: float
    my_mpg_1: float
    epa_mpg_1: float
    my_mpg_2: float
    epa_mpg_2: float
    model_year_1: int
    model_year_2: int
    us_division: str
    covariates: dict[str, str] = field(default_factory=dict)

    def gap(self, vehicle: int) -> float:
        return self.gap_1 if vehicle == 1 else self.gap_2


def _positive_float(raw: str | None, row: int, column: str) -> float:
    if raw is None or raw.strip() == "":
        raise ParseError(row, f"missing required numeric field {column!r}")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ParseError(row, f"field {column!r} is not a number: {raw!r}") from exc
    if not np.isfinite(value) or value <= 0:
        raise ParseError(row, f"nonpositive mpg in field {column!r}: {raw!r}")
    return value


def _required_int(raw: str | None, row: int, column: str) -> int:
    if raw is None or raw.strip() == "":
        raise ParseError(row, f"missing required numeric field {column!r}")
    try:
        return int(float(raw))
    except ValueError as exc:
        raise ParseError(row, f"field {column!r} is not an integer: {raw!r}") from exc


def parse_raw(source, user_col: str = "my_mpg",
              epa_col: str = "epa_mpg") -> list[RawGarageRecord]:
    """Parse a header-bearing CSV stream into raw garage records.

    `source` may be a path or an open text/byte stream.  `user_col` and
    `epa_col` pick the numerator/denominator column bases (suffixed _1/_2),
    so label-based ratings can be substituted for the default test-cycle
    columns.  Any row with a missing field, an unparseable number, or a
    nonpositive MPG aborts the parse with its row number; nothing is
    silently dropped.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as fh:
            return parse_raw(fh, user_col=user_col, epa_col=epa_col)
    if isinstance(source, bytes):
        source = io.StringIO(source.decode("utf-8"))
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")

    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ParseError(0, "input is empty (no header row)")
    mpg_columns = tuple(f"{base}_{v}" for base in (user_col, epa_col) for v in (1, 2))
    missing = [c for c in REQUIRED_COLUMNS + mpg_columns if c not in reader.fieldnames]
    if missing:
        raise ParseError(0, f"header is missing required columns {missing}")
    special = set(REQUIRED_COLUMNS) | set(mpg_columns)

    records = []
    for row_number, row in enumerate(reader, start=1):
        if None in row and row[None]:
            raise ParseError(row_number, "row has more fields than the header")
        if any(v is None for v in row.values()):
            short = [k for k, v in row.items() if v is None]
            raise ParseError(row_number, f"row is missing columns {short}")
        my1 = _positive_float(row[f"{user_col}_1"], row_number, f"{user_col}_1")
        epa1 = _positive_float(row[f"{epa_col}_1"], row_number, f"{epa_col}_1")
        my2 = _positive_float(row[f"{user_col}_2"], row_number, f"{user_col}_2")
        epa2 = _positive_float(row[f"{epa_col}_2"], row_number, f"{epa_col}_2")
        year1 = _required_int(row["model_year_1"], row_number, "model_year_1")
        year2 = _required_int(row["model_year_2"], row_number, "model_year_2")
        if year1 > year2:
            raise ParseError(row_number,
                             f"vehicle 1 must be the older vehicle "
                             f"(model_year_1={year1} > model_year_2={year2})")
        covariates = {k: v for k, v in row.items() if k not in special and k is not None}
        records.append(RawGarageRecord(
            garage_id=row["garage_id"], my_mpg_1=my1, epa_mpg_1=epa1,
            my_mpg_2=my2, epa_mpg_2=epa2, model_year_1=year1, model_year_2=year2,
            us_division=row["us_division"], covariates=covariates))
    return records


def compute_gaps(records: Iterable[RawGarageRecord]) -> list[PairedGapObservation]:
    """Gap ratio per vehicle: user-reported MPG over the official rating."""
    return [
        PairedGapObservation(
            garage_id=r.garage_id,
            gap_1=r.my_mpg_1 / r.epa_mpg_1,
            gap_2=r.my_mpg_2 / r.epa_mpg_2,
            my_mpg_1=r.my_mpg_1, epa_mpg_1=r.epa_mpg_1,
            my_mpg_2=r.my_mpg_2, epa_mpg_2=r.epa_mpg_2,
            model_year_1=r.model_year_1, model_year_2=r.model_year_2,
            us_division=r.us_division, covariates=dict(r.covariates))
        for r in records
    ]


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


def trim_outliers(obs: list[PairedGapObservation], c: float = 3.0
                  ) -> tuple[list[PairedGapObservation], list[PairedGapObservation], TrimReport]:
    """Single-pass mean +/- c*SD trim over both gap series.

    Both intervals are computed from the full input (sample SD, N-1
    denominator); an observation is removed iff either gap falls outside its
    interval.  There is no re-iteration after removal, so the per-vehicle
    outside counts always sum (minus overlaps) to the union count.
    """
    if c <= 0:
        raise ValueError(f"multiplier must be positive, got {c}")
    if len(obs) < 3:
        raise DegenerateDataError("insufficient sample for trimming (need >= 3)")
    gaps = np.array([[o.gap_1, o.gap_2] for o in obs])
    mu = gaps.mean(axis=0)
    sd = gaps.std(axis=0, ddof=1)
    lo = mu - c * sd
    hi = mu + c * sd
    outside = (gaps < lo) | (gaps > hi)
    removed_mask = outside.any(axis=1)
    kept = [o for o, bad in zip(obs, removed_mask) if not bad]
    removed = [o for o, bad in zip(obs, removed_mask) if bad]
    report = TrimReport(
        n_input=len(obs),
        n_kept=len(kept),
        n_removed=len(removed),
        removed_ids=tuple(o.garage_id for o in removed),
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

    @property
    def n(self) -> int:
        return self.x1.shape[0]


_SPECIAL_FIELDS = ("garage_id", "my_mpg_1", "epa_mpg_1", "my_mpg_2", "epa_mpg_2",
                   "model_year_1", "model_year_2", "us_division", "gap_1", "gap_2")


def _resolve(obs: PairedGapObservation, column: str):
    if column in obs.covariates:
        return obs.covariates[column]
    if column in _SPECIAL_FIELDS:
        return getattr(obs, column)
    raise SpecError(f"variable {column!r} not found in the data")


def encode_design(obs: list[PairedGapObservation], spec: ModelSpec) -> DesignMatrices:
    """Encode observations into the two design matrices declared by `spec`.

    One 0/1 column per non-base category level, continuous columns passed
    through unchanged, and a leading intercept column of ones when enabled.
    Missing categorical values count as the explicit "Not reported" level.
    Both matrices must have full column rank.
    """
    if not obs:
        raise SpecError("cannot encode an empty observation list")
    matrices = []
    for eq in spec.equations:
        columns = []
        if eq.intercept:
            columns.append(np.ones(len(obs)))
        for term in eq.terms:
            values = [_resolve(o, term.column) for o in obs]
            if term.level is None:
                try:
                    col = np.array([float(v) for v in values])
                except (TypeError, ValueError) as exc:
                    raise SpecError(
                        f"variable {term.column!r} is declared continuous but "
                        f"holds non-numeric values: {exc}") from exc
                if not np.isfinite(col).all():
                    raise SpecError(f"variable {term.column!r} holds non-finite values")
            else:
                labels = [NOT_REPORTED if str(v).strip() == "" else str(v) for v in values]
                col = np.array([1.0 if lab == term.level else 0.0 for lab in labels])
            columns.append(col)
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


def responses(obs: list[PairedGapObservation]) -> tuple[np.ndarray, np.ndarray]:
    """Gap-ratio response vectors (y1, y2) aligned with the design rows."""
    return (np.array([o.gap_1 for o in obs]), np.array([o.gap_2 for o in obs]))


def gap_correlation(obs: list[PairedGapObservation]) -> float:
    """Sample Pearson correlation between the two gap series."""
    if len(obs) < 3:
        raise DegenerateDataError("need at least 3 observations for a correlation")
    g1, g2 = responses(obs)
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


def _group_value(obs: PairedGapObservation, key: str, bins) -> str:
    if key == "model_year_bin_1":
        return model_year_bin(obs.model_year_1, bins)
    if key == "model_year_bin_2":
        return model_year_bin(obs.model_year_2, bins)
    return str(_resolve(obs, key))


def group_summary(obs: list[PairedGapObservation], keys: list[str],
                  bins=DEFAULT_YEAR_BINS) -> list[GroupSummaryRow]:
    """Mean gaps per observed key combination, in deterministic sorted order.

    Keys may be covariate columns, record fields, or the derived
    model_year_bin_1 / model_year_bin_2 labels.
    """
    if not keys:
        raise SpecError("at least one grouping key is required")
    groups: dict[tuple[str, ...], list[PairedGapObservation]] = {}
    for o in obs:
        key = tuple(_group_value(o, k, bins) for k in keys)
        groups.setdefault(key, []).append(o)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        rows.append(GroupSummaryRow(
            key=key,
            n=len(members),
            mean_gap_1=float(np.mean([m.gap_1 for m in members])),
            mean_gap_2=float(np.mean([m.gap_2 for m in members])),
        ))
    return rows


def write_group_summary_csv(rows: list[GroupSummaryRow], keys: list[str], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(keys) + ["n", "mean_gap_1", "mean_gap_2"])
        for row in rows:
            writer.writerow(list(row.key) + [row.n,
                                             repr(row.mean_gap_1), repr(row.mean_gap_2)])
