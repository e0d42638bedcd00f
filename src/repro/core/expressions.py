"""The derivable-QoI expression system (Definitions 2–3, Theorems 7–9).

A QoI is built as a tree of basis nodes (Table II of the paper):
variables, constants, weighted sums, products, quotients, integer and
half-integer powers, square roots, and radicals ``1/(x + c)``.  Evaluating
the tree against an *environment* — reconstructed arrays plus the
L-infinity bounds they were retrieved under — propagates a
``(value, bound)`` pair bottom-up:

* leaf ``Var``: ``(x, eps)`` straight from the environment;
* interior nodes apply the corresponding Theorem-1–6 estimator to their
  children's pairs.

Feeding a child's *(value, bound)* into its parent's estimator is exactly
the composition calculus of Theorem 9 and Lemmas 1–2, so any tree built
from these nodes carries a guaranteed QoI error bound with no extra
machinery.  Additivity/multiplicativity (Theorems 7–8) correspond to
``Add`` nodes with weights.

Operator overloading makes construction read like the physics::

    vtot = Sqrt(Var("vx")**2 + Var("vy")**2 + Var("vz")**2)
    value, bound = vtot.evaluate({"vx": (vx, eps), ...})

Every built-in node carries a structural :attr:`~QoI.key`, so a request
set whose trees repeat a subtree (``Mach = VTOT / C(T)`` next to ``VTOT``
and ``T``) can be evaluated against a :class:`MemoEnv`, which computes
each repeated subtree once per state of its variables.  A plain ``dict``
environment evaluates exactly as it always has.
"""

from __future__ import annotations

import abc
from collections import Counter

import numpy as np

from repro.core.estimators import (
    bound_add,
    bound_div,
    bound_mul,
    bound_power,
    bound_radical,
    bound_sqrt,
)

Env = dict  # name -> (values, eps) ; eps scalar or array


def _coerce(obj) -> "QoI":
    if isinstance(obj, QoI):
        return obj
    if isinstance(obj, (int, float)):
        return Const(float(obj))
    raise TypeError(f"cannot use {type(obj).__name__} in a QoI expression")


class QoI(abc.ABC):
    """Base class of derivable-QoI expression nodes."""

    #: Structural identity of the subtree: equal keys mean the same
    #: computation.  ``None`` (user-defined nodes that declare none, and
    #: anything built on them) is evaluated afresh every time.
    key: str | None = None
    #: The nodes :meth:`evaluate` recurses into.
    _kids: tuple = ()

    @abc.abstractmethod
    def evaluate(self, env: Env) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(value, bound)`` arrays for the environment *env*.

        ``env`` maps variable names to ``(values, eps)`` where *values*
        are the reconstructed arrays and *eps* the guaranteed L-infinity
        bounds they satisfy (scalar or per-point).
        """

    @abc.abstractmethod
    def variables(self) -> frozenset:
        """Names of all variables the QoI depends on."""

    def value(self, env: Env) -> np.ndarray:
        """Evaluate the QoI value only (bounds ignored)."""
        exact_env = {k: (v[0] if isinstance(v, tuple) else v, 0.0) for k, v in env.items()}
        return self.evaluate(exact_env)[0]

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return Add([self, _coerce(other)])

    def __radd__(self, other):
        return Add([_coerce(other), self])

    def __sub__(self, other):
        return Add([self, _coerce(other)], weights=[1.0, -1.0])

    def __rsub__(self, other):
        return Add([_coerce(other), self], weights=[1.0, -1.0])

    def __mul__(self, other):
        return Mul(self, _coerce(other))

    def __rmul__(self, other):
        return Mul(_coerce(other), self)

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, exponent):
        return Pow(self, exponent)


class _Node(QoI):
    """A built-in node: a structural key, and ``evaluate`` as a memo-aware
    shell around the node's own arithmetic in ``_compute``."""

    def _identify(self, kids, *params) -> None:
        """Set :attr:`key` from the child nodes and the node's parameters."""
        self._kids = tuple(kids)
        parts = [kid.key for kid in self._kids]
        if None in parts:
            return
        parts.extend(repr(p) for p in params)
        self.key = f"{type(self).__name__}({','.join(parts)})"

    def evaluate(self, env: Env):
        if not isinstance(env, MemoEnv) or self.key not in env.shared:
            return self._compute(env)
        stamp = env.stamp(env.shared[self.key])
        hit = env.memo.get(self.key)
        if hit is None or hit[0] != stamp:
            hit = env.memo[self.key] = (stamp, self._compute(env))
        return hit[1]

    @abc.abstractmethod
    def _compute(self, env: Env) -> tuple[np.ndarray, np.ndarray]:
        """The node's ``(value, bound)``; children via ``evaluate``."""


def shared_subtrees(qois) -> dict:
    """``{key: variables}`` of the maximal subtrees *qois* repeat.

    A subtree qualifies when its key occurs more than once in the forest
    and some occurrence is not inside a larger repeated subtree: for
    ``{VTOT, T, Mach}`` that is ``VTOT``'s root and ``T``'s root, not
    their interiors (which a hit on the root never reaches).
    """
    counts: Counter = Counter()

    def count(node):
        if node.key is not None:
            counts[node.key] += 1
        for kid in node._kids:
            count(kid)

    shared: dict = {}

    def collect(node, inside_repeat):
        repeated = node.key is not None and counts[node.key] > 1
        if repeated and not inside_repeat and node._kids:
            shared[node.key] = tuple(sorted(node.variables()))
        for kid in node._kids:
            collect(kid, repeated)

    for qoi in qois:
        count(qoi)
    for qoi in qois:
        collect(qoi, False)
    return shared


class MemoEnv(dict):
    """Evaluation environment that computes repeated subtrees once.

    Built for one set of QoI trees; holds ``name -> (values, eps)`` like
    a plain environment.  Entries must be set through :meth:`bind`, which
    versions them: a memoized subtree (see :func:`shared_subtrees`) is
    reused while the versions of its variables stand, and recomputed
    after any of them is re-bound.  Results are bitwise those of a plain
    ``dict`` — the same code computes them, just not twice.
    """

    def __init__(self, qois):
        super().__init__()
        self.shared = shared_subtrees(qois)
        self.memo: dict = {}  # key -> (stamp, (value, bound))
        self._versions: dict = {}

    def bind(self, name: str, values, eps) -> None:
        """Set variable *name* to ``(values, eps)`` and mark it moved."""
        self[name] = (values, eps)
        self._versions[name] = self._versions.get(name, 0) + 1

    def stamp(self, names) -> tuple:
        """Versions of *names*: equal stamps mean nothing was re-bound."""
        versions = self._versions
        return tuple(versions.get(name, 0) for name in names)


class Var(_Node):
    """A primary data field, referenced by name."""

    def __init__(self, name: str):
        if not name:
            raise ValueError("variable name must be non-empty")
        self.name = str(name)
        self._identify((), self.name)

    def _compute(self, env: Env):
        try:
            values, eps = env[self.name]
        except KeyError:
            raise KeyError(f"variable {self.name!r} missing from environment")
        values = np.asarray(values, dtype=np.float64)
        eps_arr = np.broadcast_to(np.asarray(eps, dtype=np.float64), values.shape)
        return values, eps_arr

    def variables(self):
        return frozenset({self.name})

    def __repr__(self):
        return f"Var({self.name!r})"


class Const(_Node):
    """A constant: exact, zero error."""

    def __init__(self, value: float):
        self.constant = float(value)
        self._identify((), self.constant)

    def _compute(self, env: Env):
        return np.float64(self.constant), np.float64(0.0)

    def variables(self):
        return frozenset()

    def __repr__(self):
        return f"Const({self.constant})"


class Add(_Node):
    """Weighted sum (Theorems 4, 7, 8): ``sum_i a_i child_i``."""

    def __init__(self, children, weights=None):
        self.children = [_coerce(c) for c in children]
        if not self.children:
            raise ValueError("Add needs at least one child")
        self.weights = [1.0] * len(self.children) if weights is None else [float(w) for w in weights]
        if len(self.weights) != len(self.children):
            raise ValueError("weights/children length mismatch")
        self._identify(self.children, *self.weights)

    def _compute(self, env: Env):
        values, bounds = zip(*(c.evaluate(env) for c in self.children))
        with np.errstate(invalid="ignore"):  # 0 * inf under a singular child
            total = sum(a * v for a, v in zip(self.weights, values))
        return np.asarray(total, dtype=np.float64), bound_add(bounds, self.weights)

    def variables(self):
        return frozenset().union(*(c.variables() for c in self.children))

    def __repr__(self):
        return f"Add({self.children!r}, weights={self.weights})"


class Mul(_Node):
    """Binary product (Theorem 5); chain for n-ary products (Theorem 9)."""

    def __init__(self, left, right):
        self.left = _coerce(left)
        self.right = _coerce(right)
        self._identify((self.left, self.right))

    def _compute(self, env: Env):
        v1, e1 = self.left.evaluate(env)
        v2, e2 = self.right.evaluate(env)
        with np.errstate(invalid="ignore"):  # 0 * inf under a singular child
            value = np.asarray(v1 * v2, dtype=np.float64)
        return value, bound_mul(v1, e1, v2, e2)

    def variables(self):
        return self.left.variables() | self.right.variables()

    def __repr__(self):
        return f"Mul({self.left!r}, {self.right!r})"


class Div(_Node):
    """Quotient (Theorem 6)."""

    def __init__(self, numerator, denominator):
        self.numerator = _coerce(numerator)
        self.denominator = _coerce(denominator)
        self._identify((self.numerator, self.denominator))

    def _compute(self, env: Env):
        v1, e1 = self.numerator.evaluate(env)
        v2, e2 = self.denominator.evaluate(env)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.asarray(v1 / v2, dtype=np.float64)
        return value, bound_div(v1, e1, v2, e2)

    def variables(self):
        return self.numerator.variables() | self.denominator.variables()

    def __repr__(self):
        return f"Div({self.numerator!r}, {self.denominator!r})"


class Sqrt(_Node):
    """Square root (Theorem 2, composed per Theorem 9 / Lemma 1)."""

    def __init__(self, child):
        self.child = _coerce(child)
        self._identify((self.child,))

    def _compute(self, env: Env):
        v, e = self.child.evaluate(env)
        value = np.sqrt(np.clip(v, 0.0, None))
        return np.asarray(value, dtype=np.float64), bound_sqrt(v, e)

    def variables(self):
        return self.child.variables()

    def __repr__(self):
        return f"Sqrt({self.child!r})"


class Radical(_Node):
    """Shifted reciprocal ``1 / (child + c)`` (Theorem 3)."""

    def __init__(self, child, c: float = 0.0):
        self.child = _coerce(child)
        self.c = float(c)
        self._identify((self.child,), self.c)

    def _compute(self, env: Env):
        v, e = self.child.evaluate(env)
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.asarray(1.0 / (v + self.c), dtype=np.float64)
        return value, bound_radical(v, e, self.c)

    def variables(self):
        return self.child.variables()

    def __repr__(self):
        return f"Radical({self.child!r}, c={self.c})"


class Pow(_Node):
    """Power with integer or half-integer exponent.

    Integer exponents use Theorem 1 directly.  Half-integer exponents
    ``n + 0.5`` decompose as ``x**n * sqrt(x)`` — the square-root/polynomial
    composition the paper uses for GE's total pressure (mi = 3.5) and
    viscosity (1.5) QoIs.
    """

    def __init__(self, child, exponent):
        self.child = _coerce(child)
        ex = float(exponent)
        if ex < 0.5 or (ex * 2) != int(ex * 2):
            raise ValueError("Pow supports positive integer or half-integer exponents")
        self.exponent = ex
        self._identify((self.child,), ex)
        if ex == int(ex):
            self._node = None  # direct Theorem-1 path
        elif ex == 0.5:
            self._node = Sqrt(self.child)
        else:
            self._node = Mul(Pow(self.child, int(ex)), Sqrt(self.child))
        if self._node is not None:
            self._kids = (self._node,)  # what evaluation actually walks

    def _compute(self, env: Env):
        if self._node is not None:
            return self._node.evaluate(env)
        n = int(self.exponent)
        v, e = self.child.evaluate(env)
        return np.asarray(v**n, dtype=np.float64), bound_power(v, e, n)

    def variables(self):
        return self.child.variables()

    def __repr__(self):
        return f"Pow({self.child!r}, {self.exponent})"


def product(*factors) -> QoI:
    """N-ary product built as a left-deep Mul chain (Theorems 5 + 9)."""
    if not factors:
        raise ValueError("product needs at least one factor")
    node = _coerce(factors[0])
    for f in factors[1:]:
        node = Mul(node, _coerce(f))
    return node


def polynomial(child, coefficients) -> QoI:
    """General polynomial ``sum_i a_i x**i`` (Theorems 1 + 7 + 8).

    *coefficients* are ordered constant-first: ``a_0 + a_1 x + a_2 x^2...``.
    """
    child = _coerce(child)
    terms = []
    weights = []
    for i, a in enumerate(coefficients):
        a = float(a)
        if a == 0.0:
            continue
        terms.append(Const(1.0) if i == 0 else Pow(child, i))
        weights.append(a)
    if not terms:
        return Const(0.0)
    return Add(terms, weights=weights)
