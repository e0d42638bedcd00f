"""Extension operators beyond the paper's Table II basis.

§IV-D notes the theory "can extend to new operators with derivable error
control"; this module adds the natural next tier — operators with simple
Lipschitz or linear error propagation — using the same (value, bound)
node contract as :mod:`repro.core.expressions`:

* :class:`Abs` — ``|x|`` is 1-Lipschitz: ``Delta <= eps``.
* :class:`Minimum` / :class:`Maximum` — 1-Lipschitz in each argument:
  ``Delta <= max(eps_1, eps_2)``.
* :class:`Clip` — clamping to ``[lo, hi]`` is 1-Lipschitz: ``Delta <= eps``.
* :class:`MovingAverage` — a normalized box filter is a convex
  combination per point (Theorem 4 with weights 1/w), so the bound is the
  same filter applied to the per-point eps field.

Each bound is covered by a randomized-perturbation property test in
``tests/test_core_extensions.py``, the proof-obligation pattern any
further user-defined operator should follow.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter1d

from repro.core.expressions import _Node, _coerce


class Abs(_Node):
    """Absolute value: ``| |x'| - |x| | <= |x' - x| <= eps``."""

    def __init__(self, child):
        self.child = _coerce(child)
        self._identify((self.child,))

    def _compute(self, env):
        v, e = self.child.evaluate(env)
        return np.abs(np.asarray(v, dtype=np.float64)), np.asarray(e, dtype=np.float64)

    def variables(self):
        return self.child.variables()

    def __repr__(self):
        return f"Abs({self.child!r})"


class _Binary1Lipschitz(_Node):
    """Common base for min/max: 1-Lipschitz in each argument jointly."""

    _op = None
    _name = "?"

    def __init__(self, left, right):
        self.left = _coerce(left)
        self.right = _coerce(right)
        self._identify((self.left, self.right))

    def _compute(self, env):
        v1, e1 = self.left.evaluate(env)
        v2, e2 = self.right.evaluate(env)
        value = self._op(np.asarray(v1, dtype=np.float64), np.asarray(v2, dtype=np.float64))
        # |min(a', b') - min(a, b)| <= max(|a'-a|, |b'-b|); same for max
        bound = np.maximum(np.asarray(e1, dtype=np.float64), np.asarray(e2, dtype=np.float64))
        return value, bound

    def variables(self):
        return self.left.variables() | self.right.variables()

    def __repr__(self):
        return f"{self._name}({self.left!r}, {self.right!r})"


class Minimum(_Binary1Lipschitz):
    """Point-wise minimum of two QoIs."""

    _op = staticmethod(np.minimum)
    _name = "Minimum"


class Maximum(_Binary1Lipschitz):
    """Point-wise maximum of two QoIs."""

    _op = staticmethod(np.maximum)
    _name = "Maximum"


class Clip(_Node):
    """Clamp to ``[lo, hi]`` — 1-Lipschitz, so the child bound passes through."""

    def __init__(self, child, lo: float | None = None, hi: float | None = None):
        if lo is None and hi is None:
            raise ValueError("Clip needs at least one of lo/hi")
        if lo is not None and hi is not None and lo > hi:
            raise ValueError("lo must be <= hi")
        self.child = _coerce(child)
        self.lo = lo
        self.hi = hi
        self._identify((self.child,), lo, hi)

    def _compute(self, env):
        v, e = self.child.evaluate(env)
        value = np.clip(np.asarray(v, dtype=np.float64), self.lo, self.hi)
        return value, np.asarray(e, dtype=np.float64)

    def variables(self):
        return self.child.variables()

    def __repr__(self):
        return f"Clip({self.child!r}, lo={self.lo}, hi={self.hi})"


class DomainReduce(_Node):
    """Global weighted reduction ``sum_i w_i f(x_i)`` over the domain.

    A direct application of Theorem 4 across the whole array: the bound
    is ``sum_i |w_i| eps_i``.  ``kind="mean"`` uses uniform weights
    ``1/N`` (a domain average, e.g. total kinetic energy per cell);
    ``kind="sum"`` uses unit weights.  The result is a scalar QoI.
    """

    def __init__(self, child, kind: str = "mean", weights=None):
        if kind not in ("mean", "sum"):
            raise ValueError("kind must be 'mean' or 'sum'")
        self.child = _coerce(child)
        self.kind = kind
        self.weights = None if weights is None else np.asarray(weights, dtype=np.float64)
        self._identify((self.child,), kind)
        if weights is not None:
            self.key = None  # a weight array has no cheap structural name

    def _compute(self, env):
        v, e = self.child.evaluate(env)
        v = np.asarray(v, dtype=np.float64)
        e = np.broadcast_to(np.asarray(e, dtype=np.float64), v.shape)
        if self.weights is not None:
            if self.weights.shape != v.shape:
                raise ValueError("weights shape does not match the QoI field")
            w = self.weights
        elif self.kind == "mean":
            w = np.full(v.shape, 1.0 / v.size)
        else:
            w = np.ones(v.shape)
        value = np.float64(np.sum(w * v))
        # Theorem 4 over the domain; tiny relative guard for the float sum
        bound = np.float64(np.sum(np.abs(w) * e)) * (1 + 1e-12)
        return value, bound

    def variables(self):
        return self.child.variables()

    def __repr__(self):
        return f"DomainReduce({self.child!r}, kind={self.kind!r})"


class MovingAverage(_Node):
    """Box-filter smoothing along one axis (a common posthoc operator).

    The filter is a convex combination per output point, so by Theorem 4
    the error bound is the same filter applied to the eps field (which for
    uniform eps is just eps).  ``mode="nearest"`` keeps the combination
    convex at the boundaries.
    """

    def __init__(self, child, window: int, axis: int = -1):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.child = _coerce(child)
        self.window = int(window)
        self.axis = int(axis)
        self._identify((self.child,), self.window, self.axis)

    def _compute(self, env):
        v, e = self.child.evaluate(env)
        v = np.asarray(v, dtype=np.float64)
        e = np.broadcast_to(np.asarray(e, dtype=np.float64), v.shape)
        value = uniform_filter1d(v, self.window, axis=self.axis, mode="nearest")
        bound = uniform_filter1d(e, self.window, axis=self.axis, mode="nearest")
        # guard the filter's own float rounding so the bound stays safe
        bound = np.maximum(bound, 0.0) * (1 + 1e-12) + 1e-300
        return value, bound

    def variables(self):
        return self.child.variables()

    def __repr__(self):
        return f"MovingAverage({self.child!r}, window={self.window}, axis={self.axis})"
