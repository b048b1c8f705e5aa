"""Declarative two-equation model specification.

A spec lists, per equation, the design columns in order: either a dummy for
one level of a categorical source column, or a continuous source column.
Each entry is "fixed" (the default kind) or "random-normal", independently,
so two levels of the same categorical can receive different treatment.  Base
levels are declared once per categorical and never enter the design matrix.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SpecError

FIXED = "fixed"
RANDOM = "random-normal"
N_EQUATIONS = 2


@dataclass(frozen=True)
class Term:
    """One design column: a (column, level) dummy or a continuous column."""

    column: str
    level: str | None = None
    kind: str = FIXED

    def __post_init__(self):
        if self.kind not in (FIXED, RANDOM):
            raise SpecError(f"unknown coefficient kind {self.kind!r} for {self.column!r}")

    @property
    def is_random(self) -> bool:
        return self.kind == RANDOM

    @property
    def design_name(self) -> str:
        return self.column if self.level is None else f"{self.column}={self.level}"


@dataclass(frozen=True)
class EquationSpec:
    name: str
    terms: tuple[Term, ...]
    intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.intercept and not self.terms:
            raise SpecError(f"equation {self.name!r} has no design columns; "
                            "declare an intercept or at least one term")
        seen = set()
        for term in self.terms:
            key = (term.column, term.level)
            if key in seen:
                raise SpecError(
                    f"equation {self.name!r} lists {term.design_name!r} twice")
            seen.add(key)

    @property
    def design_names(self) -> tuple[str, ...]:
        names = ("const",) if self.intercept else ()
        return names + tuple(t.design_name for t in self.terms)

    @property
    def random_design_indices(self) -> tuple[int, ...]:
        offset = 1 if self.intercept else 0
        return tuple(offset + j for j, t in enumerate(self.terms) if t.is_random)


@dataclass(frozen=True)
class ModelSpec:
    """Variables for both equations plus base-level declarations."""

    equations: tuple[EquationSpec, EquationSpec]
    base_levels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        if len(self.equations) != N_EQUATIONS:
            raise SpecError(f"exactly {N_EQUATIONS} equations are required")
        if self.equations[0].name == self.equations[1].name:
            raise SpecError("equation names must differ")
        for eq in self.equations:
            mixed: dict[str, bool] = {}
            for term in eq.terms:
                categorical = term.level is not None
                if term.column in mixed and mixed[term.column] != categorical:
                    raise SpecError(
                        f"column {term.column!r} used both as categorical and continuous")
                mixed[term.column] = categorical
                if categorical:
                    base = self.base_levels.get(term.column)
                    if base is None:
                        raise SpecError(
                            f"categorical {term.column!r} has no declared base level")
                    if term.level == base:
                        raise SpecError(
                            f"{term.design_name!r} is the declared base level; "
                            "base levels never enter the design matrix")

    @property
    def n_random(self) -> int:
        return sum(len(eq.random_design_indices) for eq in self.equations)


def _parse_term(raw, eq_name: str) -> Term:
    raw = checked(raw, OBJECT, f"equation {eq_name!r}: a term")
    if "column" not in raw:
        raise SpecError(f"equation {eq_name!r}: term missing 'column': {raw}")
    where = f"equation {eq_name!r}, term {raw}"
    kind = checked(raw.get("kind", FIXED), STRING, f"{where}: 'kind'")
    return Term(column=checked(raw["column"], STRING, f"{where}: 'column'"),
                level=checked(raw.get("level"), STRING, f"{where}: 'level'", nullable=True),
                kind=kind)


def model_spec_from_dict(raw: dict) -> ModelSpec:
    """Build a ModelSpec from the user-authored JSON structure."""
    try:
        equations_raw = raw["equations"]
    except (KeyError, TypeError) as exc:
        raise SpecError("model spec JSON must contain an 'equations' list") from exc
    equations = []
    for i, eq_raw in enumerate(checked(equations_raw, LIST, "'equations'")):
        eq_raw = checked(eq_raw, OBJECT, f"equation {i + 1}")
        name = checked(eq_raw.get("name", f"vehicle_{i + 1}"), STRING,
                       f"equation {i + 1}: 'name'")
        where = f"equation {name!r}"
        terms = tuple(_parse_term(t, name)
                      for t in checked(eq_raw.get("terms", []), LIST, f"{where}: 'terms'"))
        intercept = checked(eq_raw.get("intercept", True), BOOLEAN, f"{where}: 'intercept'")
        equations.append(EquationSpec(name=name, terms=terms, intercept=intercept))
    base_levels = checked(raw.get("base_levels", {}), OBJECT, "'base_levels'")
    for column, level in base_levels.items():
        checked(level, STRING, f"'base_levels': {column!r}")
    return ModelSpec(equations=tuple(equations), base_levels=base_levels)


# the JSON kinds `checked` tells apart, named as its errors name them
STRING, INTEGER, NUMBER = "a string", "an integer", "a number"
BOOLEAN, LIST, OBJECT = "true or false", "a list", "an object"
_PYTHON_TYPES = {STRING: str, INTEGER: int, NUMBER: (int, float), BOOLEAN: bool,
                 LIST: list, OBJECT: dict}


def is_json(value, kind: str, nullable: bool = False) -> bool:
    """Whether `value` is a JSON value of `kind`, or null with `nullable`."""
    return (nullable and value is None) or (
        isinstance(value, _PYTHON_TYPES[kind]) and isinstance(value, bool) == (kind == BOOLEAN)
        and (kind != NUMBER or abs(value) <= sys.float_info.max))


def checked(value, kind: str, what: str, nullable: bool = False):
    """`value` unchanged if it is a JSON value of `kind`, else SpecError.

    The one type rule for every JSON input.  `kind` is one of STRING,
    INTEGER, NUMBER, BOOLEAN, LIST and OBJECT, and `what` names the value in
    the error.  A number is an integer or a float no larger in magnitude
    than the largest float: true and false are never numbers, nor are NaN
    and the infinities, which `json` reads although JSON has no such
    numbers.  With `nullable`, null is accepted.
    """
    if is_json(value, kind, nullable):
        return value
    raise SpecError(f"{what} must be {kind}{' or null' if nullable else ''}, got {value!r}")


def read_json(path: str | Path, what: str):
    """The JSON value held by the file at `path`; `what` names the file in errors.

    A file that is not valid UTF-8 JSON raises SpecError; one that cannot be
    read raises OSError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise SpecError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_model_spec(path: str | Path) -> ModelSpec:
    return model_spec_from_dict(read_json(path, "model spec"))
