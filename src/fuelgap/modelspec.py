"""Declarative two-equation model specification.

A spec lists, per equation, the design columns in order: either a dummy for
one level of a categorical source column, or a continuous source column.
Each entry is independently fixed or random-normal, so two levels of the
same categorical can receive different treatment.  Base levels are declared
once per categorical and never enter the design matrix.
"""

from __future__ import annotations

import json
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


def _parse_term(raw: dict, eq_name: str) -> Term:
    if "column" not in raw:
        raise SpecError(f"equation {eq_name!r}: term missing 'column': {raw}")
    kind = raw.get("kind", FIXED)
    if kind == "random":
        kind = RANDOM
    return Term(column=str(raw["column"]),
                level=None if raw.get("level") is None else str(raw["level"]),
                kind=kind)


def model_spec_from_dict(raw: dict) -> ModelSpec:
    """Build a ModelSpec from the user-authored JSON structure."""
    try:
        equations_raw = raw["equations"]
    except (KeyError, TypeError) as exc:
        raise SpecError("model spec JSON must contain an 'equations' list") from exc
    if not isinstance(equations_raw, list) or len(equations_raw) != N_EQUATIONS:
        raise SpecError(f"model spec must declare exactly {N_EQUATIONS} equations")
    equations = []
    for i, eq_raw in enumerate(equations_raw):
        name = str(eq_raw.get("name", f"vehicle_{i + 1}"))
        terms = tuple(_parse_term(t, name) for t in eq_raw.get("terms", []))
        equations.append(EquationSpec(name=name, terms=terms,
                                      intercept=bool(eq_raw.get("intercept", True))))
    base_levels = {str(k): str(v) for k, v in raw.get("base_levels", {}).items()}
    return ModelSpec(equations=(equations[0], equations[1]), base_levels=base_levels)


def load_model_spec(path: str | Path) -> ModelSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"model spec {path} is not valid JSON: {exc}") from exc
    return model_spec_from_dict(raw)
