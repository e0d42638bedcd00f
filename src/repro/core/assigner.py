"""Primary-data error-bound assignment (Algorithms 3 and 4).

``assign_eb`` seeds the first retrieval round: a variable used by several
QoIs gets the most conservative (smallest) of their relative tolerances,
scaled by the variable's value range.

``reassign_eb`` runs before a round fetches: at the data points
exhibiting the largest estimated QoI error, the bounds of every variable
the QoI touches are divided by the constant factor ``c`` (1.5 in the
paper) until the re-estimated point errors drop below the tolerance.
Evaluating only the worst points keeps the number of outer retrieval
rounds small (§V-A).
"""

from __future__ import annotations

import numpy as np

from repro.core.expressions import QoI
from repro.utils.validation import check_positive

DEFAULT_REDUCTION_FACTOR = 1.5


def assign_eb(value_range: float, tolerances) -> float:
    """Algorithm 3: initial absolute bound for one variable.

    Parameters
    ----------
    value_range:
        Range (max - min) of the variable's original data — metadata the
        refactoring stage records.
    tolerances:
        Relative tolerances of every requested QoI involving the variable.

    Returns
    -------
    float
        Absolute L-infinity bound for the first retrieval round.
    """
    value_range = check_positive(value_range, name="value_range")
    eb = 1.0  # maximal possible relative bound
    for tau in tolerances:
        tau = float(tau)
        if not tau > 0:  # NaN fails too
            raise ValueError(f"QoI tolerance must be > 0, got {tau}")
        eb = min(eb, tau)
    return eb * value_range


def reassign_eb(
    qoi: QoI,
    tolerance: float,
    point_values: dict,
    current_ebs: dict,
    c: float = DEFAULT_REDUCTION_FACTOR,
    max_iterations: int = 200,
    exact: dict | None = None,
) -> dict:
    """Algorithm 4: tighten bounds until the probed points satisfy *tolerance*.

    Parameters
    ----------
    qoi:
        The QoI whose estimated error exceeded its tolerance.
    tolerance:
        Absolute QoI tolerance at the probed points.
    point_values:
        Reconstructed value of each involved variable at the probed
        points: a scalar (the paper's single worst-error point) or an
        array of K points, all of which must pass.
    current_ebs:
        Current absolute bounds per variable (only involved ones used).
    c:
        Reduction factor (paper default 1.5).
    max_iterations:
        Safety valve for points where no finite bound is reachable (e.g.
        an exact zero that should have been masked).
    exact:
        Optional ``{variable: bool array}`` over the probed points: True
        where the value is known exactly (§V-A mask), so ``eps = 0``
        there whatever the variable's bound.

    Returns
    -------
    dict
        New absolute bounds for the involved variables.
    """
    if c <= 1.0:
        raise ValueError("reduction factor c must be > 1")
    involved = sorted(qoi.variables())
    ebs = {v: float(current_ebs[v]) for v in involved}
    values = {
        v: np.atleast_1d(np.asarray(point_values[v], dtype=np.float64)) for v in involved
    }
    exact = exact or {}

    def estimate() -> float:
        env = {}
        for v in involved:
            known = exact.get(v)
            eps = ebs[v] if known is None else np.where(known, 0.0, ebs[v])
            env[v] = (values[v], eps)
        return float(np.max(qoi.evaluate(env)[1]))

    est = estimate()
    iterations = 0
    while est > tolerance:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                "reassign_eb did not converge; the QoI is likely singular at "
                "this point (consider a ZeroMask, see §V-A)"
            )
        for v in involved:
            ebs[v] /= c
        est = estimate()
    return ebs
