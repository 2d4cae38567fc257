"""Uniform result records for every check in the package: each report type
derives its verdict from its own figures, and worst_report reduces an array
of margins to a CheckReport."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def _jsonify(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonify(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


class Report:
    """JSON form shared by the report dataclasses: every field through
    _jsonify, `passed` written as `pass`, and an empty `extras` left out."""

    def to_dict(self) -> dict:
        return {
            ("pass" if key == "passed" else key): val
            for key, val in _jsonify(self).items()
            if key != "extras" or val
        }


@dataclass
class CheckReport(Report):
    """Outcome of one numerical check.

    worst_margin is the smallest slack seen; passed is derived, exactly
    worst_margin >= -tol.  witness carries whatever object realized that
    margin (a sample triple, a grid pair, a point) and is None when no
    sample realized it.
    """

    passed: bool = field(init=False)
    worst_margin: float
    witness: Any
    samples_used: int
    tol: float
    seed: int | None = None
    notes: str = ""
    extras: dict | None = None

    def __post_init__(self):
        self.passed = bool(self.worst_margin >= -self.tol)


def worst_report(margins, tol: float, witness, **fields) -> CheckReport:
    """The report of the smallest of margins: at the first index i of the
    minimum (np.argmin), worst_margin is float(margins[i]) and the witness is
    witness(i).  fields fill the rest (samples_used, seed, notes, extras)."""
    i = int(np.argmin(margins))
    return CheckReport(worst_margin=float(margins[i]), witness=witness(i), tol=tol, **fields)
