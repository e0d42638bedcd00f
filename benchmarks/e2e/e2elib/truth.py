"""Ground-truth check of one answer against the generated originals.

The paper's promise, per request: true QoI error <= reported bound <=
tolerance.  The true error is taken against the arrays the benchmark
generated — never against another code path of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def qoi_values(qoi, data: dict) -> np.ndarray:
    """QoI evaluated on exact *data* (``{variable: array}``)."""
    return qoi.evaluate({v: (data[v], 0.0) for v in qoi.variables()})[0]


@dataclass(frozen=True)
class Reference:
    """One QoI over one original dataset: its true values and range."""

    qoi: object
    values: np.ndarray
    qoi_range: float

    @classmethod
    def of(cls, qoi, data: dict) -> "Reference":
        values = qoi_values(qoi, data)
        return cls(qoi, values, float(np.max(values) - np.min(values)))


def check_answer(ref: Reference, recon: dict, bound: float, tolerance: float) -> tuple:
    """``(ok, true_error, why)`` for one reconstructed answer.

    *bound* is the absolute QoI error bound the program reported,
    *tolerance* the relative tolerance requested.
    """
    true_error = float(np.max(np.abs(qoi_values(ref.qoi, recon) - ref.values)))
    if not np.isfinite(bound):
        return False, true_error, "reported bound is not finite"
    if true_error > bound:
        return False, true_error, f"true error {true_error:.3e} > reported bound {bound:.3e}"
    if bound > tolerance * ref.qoi_range:
        return False, true_error, (
            f"reported bound {bound:.3e} > tolerance {tolerance * ref.qoi_range:.3e}"
        )
    return True, true_error, ""
