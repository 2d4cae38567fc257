"""Uniform result records for every check in the package."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
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

    worst_margin is the smallest slack seen; the check passes when it clears
    -tol.  witness carries whatever object realized that margin (a sample
    triple, a grid pair, a point) and is None for vacuous passes.
    """

    passed: bool
    worst_margin: float
    witness: Any
    samples_used: int
    tol: float
    seed: int | None = None
    notes: str = ""
    extras: dict | None = None
