"""Vectorized QoI error-bound estimators (Theorems 1–6 of the paper).

Every function takes *reconstructed* values ``x`` and the L-infinity
bounds ``eps`` used during retrieval, and returns a per-point upper bound
``Delta`` on the QoI error:

    sup_{|x' - x| <= eps} |f(x') - f(x)|  <=  Delta(f, x, eps).

Crucially, nothing here touches the original data — the bounds are
computable mid-retrieval, which is what lets the retrieval loop decide
whether it has fetched enough (§IV of the paper).

Domain failures (radical/division whose denominator interval straddles
zero — the ``eps >= |x + c|`` case Theorem 3 excludes) return ``inf``;
the error-bound assigner reacts by tightening the primary-data bounds.
All functions broadcast and never loop over elements.
"""

from __future__ import annotations

from math import comb

import numpy as np


def _nonfinite_ok() -> np.errstate:
    """Silence the FP warnings the bounds expect on non-finite inputs.

    They meet inf and NaN intermediates on legitimate inputs: ``inf -
    inf`` once an upstream bound is ``inf``, ``0 * inf`` at a masked
    point under one, an overflowing product of two huge values,
    ``eps / 0`` on a denominator that straddles zero.  Each bound's
    final ``np.where`` turns every such point into ``inf``.
    """
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _where_sound(valid, out, den) -> np.ndarray:
    """*out* where its theorem applies and float64 could hold it, else ``inf``.

    A denominator that overflowed to ``inf`` would report the bound as
    0, and ``0/0`` or ``inf/inf`` as NaN; neither is a bound.
    """
    return np.where(valid & (den < np.inf) & ~np.isnan(out), out, np.inf)


def _nan_unbounded(out) -> np.ndarray:
    """*out* with every NaN read as ``inf``: ``0 * inf`` is no bound.

    The polynomial, sum and product bounds meet it once a masked point
    (value 0, ``eps`` 0: §V-A) sits under a singular subtree whose bound
    is ``inf``.
    """
    nan = np.isnan(out)
    return np.where(nan, np.inf, out) if nan.any() else out


def bound_power(x: np.ndarray, eps, n: int) -> np.ndarray:
    """Theorem 1: bound for ``f(x) = x**n`` (integer ``n >= 1``).

    ``Delta <= sum_{i=1..n} C(n,i) |x|^(n-i) eps^i``.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"power must be a positive integer, got {n!r}")
    n = int(n)
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    ax = np.abs(x)
    total = np.zeros(np.broadcast(x, eps).shape, dtype=np.float64)
    with _nonfinite_ok():
        for i in range(1, n + 1):
            total += comb(n, i) * ax ** (n - i) * eps**i
    return _nan_unbounded(total)


def bound_sqrt(x: np.ndarray, eps) -> np.ndarray:
    """Theorem 2: bound for ``f(x) = sqrt(x)``.

    ``Delta <= eps / (sqrt(max(x - eps, 0)) + sqrt(x))`` for ``x > 0``.
    At ``x == 0`` the formula degenerates (the near-zero looseness the
    paper handles with the zero bitmap); there the exact supremum
    ``sqrt(eps)`` is used, and non-positive reconstructions fall back to
    ``sqrt(max(x,0) + eps)`` (the worst case over the clipped domain).
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    x_b, eps_b = np.broadcast_arrays(x, eps)
    pos = x_b > 0.0
    with _nonfinite_ok():
        out = np.sqrt(np.clip(x_b, 0.0, None) + eps_b)  # x <= 0 fallback (incl. sqrt(eps) at 0)
        denom = np.sqrt(np.clip(x_b - eps_b, 0.0, None)) + np.sqrt(np.clip(x_b, 0.0, None))
        formula = np.where((denom > 0.0) & (denom < np.inf), eps_b / denom, np.inf)
    # a NaN radicand (``0/0`` below) is no bound: read it as ``inf``
    return _nan_unbounded(np.where(pos, formula, out))


def bound_radical(x: np.ndarray, eps, c: float = 0.0) -> np.ndarray:
    """Theorem 3: bound for ``f(x) = 1 / (x + c)``.

    Valid only when ``eps < |x + c|``; otherwise the reconstructed
    denominator interval contains 0 and the bound is ``inf`` (the case the
    theorem excludes and retrieval avoids by tightening ``eps``).
    """
    x = np.asarray(x, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    with _nonfinite_ok():
        s = x + float(c)
        abs_s = np.abs(s)
        lo = np.minimum(np.abs(s - eps), np.abs(s + eps))
        den = lo * abs_s
        out = eps / den
    return _where_sound((eps < abs_s) & (abs_s > 0.0), out, den)


def bound_add(eps_list, weights=None) -> np.ndarray:
    """Theorem 4: bound for ``g(x) = sum a_i x_i`` is ``sum |a_i| eps_i``.

    Vectorized across the summed variables: the per-variable eps arrays
    are broadcast to a common shape, stacked, and contracted with
    ``|a|`` in a single ``tensordot`` — no Python accumulation loop,
    whatever the number of variables in the sum.
    """
    if not eps_list:
        return None
    if weights is None:
        weights = [1.0] * len(eps_list)
    if len(weights) != len(eps_list):
        raise ValueError("weights/eps length mismatch")
    stack = np.stack(
        np.broadcast_arrays(*(np.asarray(e, dtype=np.float64) for e in eps_list))
    )
    with _nonfinite_ok():
        total = np.tensordot(np.abs(np.asarray(weights, dtype=np.float64)), stack, axes=1)
    return _nan_unbounded(total)


def bound_mul(x1, eps1, x2, eps2) -> np.ndarray:
    """Theorem 5: bound for ``g = x1 * x2`` is ``|x1| e2 + |x2| e1 + e1 e2``."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    eps1 = np.asarray(eps1, dtype=np.float64)
    eps2 = np.asarray(eps2, dtype=np.float64)
    with _nonfinite_ok():
        total = np.abs(x1) * eps2 + np.abs(x2) * eps1 + eps1 * eps2
    return _nan_unbounded(total)


def seed_bounds(value_ranges, incidence, tolerances) -> np.ndarray:
    """Algorithm 3 across *all* variables of a request set at once.

    Parameters
    ----------
    value_ranges:
        ``(V,)`` value range of each variable.
    incidence:
        ``(R, V)`` boolean matrix; entry ``[r, v]`` is True when request
        *r*'s QoI involves variable *v*.
    tolerances:
        ``(R,)`` relative tolerance of each request.

    Returns
    -------
    ``(V,)`` initial absolute bounds: each variable takes the most
    conservative tolerance among the requests that involve it (capped at
    the maximal relative bound 1.0), scaled by its value range — the
    same arithmetic as per-variable :func:`repro.core.assigner.assign_eb`
    but as two vector reductions instead of a Python loop per variable.
    """
    value_ranges = np.asarray(value_ranges, dtype=np.float64)
    incidence = np.asarray(incidence, dtype=bool)
    tolerances = np.asarray(tolerances, dtype=np.float64)
    if np.any(~(tolerances > 0.0)):  # NaN fails too
        bad = float(tolerances[~(tolerances > 0.0)][0])
        raise ValueError(f"QoI tolerance must be > 0, got {bad}")
    if np.any(~(value_ranges > 0.0)):
        bad = float(value_ranges[~(value_ranges > 0.0)][0])
        raise ValueError(f"value_range must be positive, got {bad}")
    per_var = np.where(incidence, tolerances[:, None], np.inf).min(axis=0)
    return np.minimum(per_var, 1.0) * value_ranges


def fetch_mask(ebs, requested) -> np.ndarray:
    """Which variables a retrieval round must (re-)request, vectorized.

    ``ebs`` are the current target bounds, ``requested`` the bounds each
    reader was last asked for (``nan`` = never asked this call).  A
    reader only moves when asked for a strictly tighter bound, so the
    round fetches exactly the never-asked or newly tightened variables.
    """
    ebs = np.asarray(ebs, dtype=np.float64)
    requested = np.asarray(requested, dtype=np.float64)
    return np.isnan(requested) | (ebs < requested)


def bound_div(x1, eps1, x2, eps2) -> np.ndarray:
    """Theorem 6: bound for ``g = x1 / x2``.

    ``(|x1| e2 + |x2| e1) / (|x2| min(|x2 - e2|, |x2 + e2|))`` when
    ``e2 < |x2|``; ``inf`` otherwise.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    eps1 = np.asarray(eps1, dtype=np.float64)
    eps2 = np.asarray(eps2, dtype=np.float64)
    with _nonfinite_ok():
        ax2 = np.abs(x2)
        lo = np.minimum(np.abs(x2 - eps2), np.abs(x2 + eps2))
        num = np.abs(x1) * eps2 + ax2 * eps1
        den = ax2 * lo
        out = num / den
    return _where_sound((eps2 < ax2) & (ax2 > 0.0), out, den)
