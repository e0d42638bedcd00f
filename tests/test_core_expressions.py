"""Tests for the QoI expression system (composition calculus)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import (
    Add,
    Const,
    Div,
    MemoEnv,
    Mul,
    Pow,
    QoI,
    Radical,
    Sqrt,
    Var,
    polynomial,
    product,
    shared_subtrees,
)
from repro.core.extensions import Abs, Clip, DomainReduce, Maximum, Minimum, MovingAverage
from repro.core.masking import ZeroMask
from repro.core.qois import GE_QOIS, total_velocity


def env_of(**kwargs):
    return {k: (np.asarray(v[0], dtype=float), v[1]) for k, v in kwargs.items()}


class TestLeaves:
    def test_var_returns_env_pair(self):
        v, e = Var("x").evaluate(env_of(x=([1.0, 2.0], 0.5)))
        np.testing.assert_array_equal(v, [1.0, 2.0])
        np.testing.assert_array_equal(e, [0.5, 0.5])

    def test_var_missing_raises(self):
        with pytest.raises(KeyError, match="missing"):
            Var("y").evaluate(env_of(x=([1.0], 0.1)))

    def test_var_empty_name(self):
        with pytest.raises(ValueError):
            Var("")

    def test_const_zero_error(self):
        v, e = Const(3.5).evaluate({})
        assert v == 3.5 and e == 0.0

    def test_per_point_eps(self):
        eps = np.array([0.1, 0.2, 0.3])
        v, e = Var("x").evaluate({"x": (np.ones(3), eps)})
        np.testing.assert_array_equal(e, eps)


class TestOperatorSugar:
    def test_add_sub(self):
        expr = Var("a") + 2.0 - Var("b")
        v, _ = expr.evaluate(env_of(a=([5.0], 0.0), b=([1.0], 0.0)))
        np.testing.assert_allclose(v, [6.0])

    def test_mul_div_pow(self):
        expr = (Var("a") * 3.0) / Var("b") ** 2
        v, _ = expr.evaluate(env_of(a=([8.0], 0.0), b=([2.0], 0.0)))
        np.testing.assert_allclose(v, [6.0])

    def test_rops(self):
        expr = 1.0 / (2.0 + Var("x") * 1.0)
        v, _ = expr.evaluate(env_of(x=([2.0], 0.0)))
        np.testing.assert_allclose(v, [0.25])

    def test_type_error(self):
        with pytest.raises(TypeError):
            Var("x") + "nope"

    def test_variables_set(self):
        expr = Sqrt(Var("a") + Var("b") * Var("c"))
        assert expr.variables() == frozenset({"a", "b", "c"})


class TestCompositionBounds:
    """Bound propagation through trees must dominate sampled true errors."""

    def _check(self, expr, env, true_fn, samples=25, seed=0):
        value, bound = expr.evaluate(env)
        rng = np.random.default_rng(seed)
        names = sorted(expr.variables())
        worst = np.zeros_like(np.asarray(value, dtype=float))
        for _ in range(samples):
            perturbed = {}
            for name in names:
                x, eps = env[name]
                x = np.asarray(x, dtype=float)
                shift = rng.uniform(-1, 1, size=x.shape) * eps
                perturbed[name] = x + shift
            worst = np.maximum(worst, np.abs(true_fn(perturbed) - value))
        finite = np.isfinite(bound)
        assert np.all(worst[finite] <= bound[finite] * (1 + 1e-9) + 1e-300)

    def test_nested_sqrt_of_sum_of_squares(self):
        expr = Sqrt(Add([Pow(Var("x"), 2), Pow(Var("y"), 2)]))
        env = env_of(x=(np.linspace(-3, 3, 50), 0.01), y=(np.linspace(1, 4, 50), 0.02))
        self._check(expr, env, lambda p: np.sqrt(p["x"] ** 2 + p["y"] ** 2))

    def test_rational_composition(self):
        expr = Div(Var("x"), Add([Var("y"), 10.0]))
        env = env_of(x=(np.linspace(1, 5, 30), 0.05), y=(np.linspace(0, 2, 30), 0.05))
        self._check(expr, env, lambda p: p["x"] / (p["y"] + 10.0))

    def test_radical_composition(self):
        expr = Radical(Mul(Var("x"), Var("x")), c=1.0)
        env = env_of(x=(np.linspace(-2, 2, 40), 0.01))
        self._check(expr, env, lambda p: 1.0 / (p["x"] ** 2 + 1.0))

    def test_half_integer_power(self):
        expr = Pow(Var("x"), 2.5)
        env = env_of(x=(np.linspace(0.5, 4, 30), 0.02))
        self._check(expr, env, lambda p: np.clip(p["x"], 0, None) ** 2.5)

    @given(st.floats(0.1, 100), st.floats(1e-6, 1e-2), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_product_chain_property(self, x0, eps, seed):
        rng = np.random.default_rng(seed)
        expr = product(Var("a"), Var("b"), Var("c"))
        vals = {n: np.array([x0 * rng.uniform(0.5, 2)]) for n in "abc"}
        env = {n: (v, eps) for n, v in vals.items()}
        value, bound = expr.evaluate(env)
        worst = 0.0
        for _ in range(20):
            p = {n: v + rng.uniform(-eps, eps, v.shape) for n, v in vals.items()}
            worst = max(worst, abs((p["a"] * p["b"] * p["c"] - value).item()))
        assert worst <= bound.item() * (1 + 1e-9)


class TestPolynomialHelper:
    def test_matches_direct_evaluation(self):
        expr = polynomial(Var("x"), [1.0, -2.0, 0.0, 3.0])  # 1 - 2x + 3x^3
        x = np.linspace(-1, 1, 11)
        v, _ = expr.evaluate(env_of(x=(x, 0.0)))
        np.testing.assert_allclose(v, 1 - 2 * x + 3 * x**3)

    def test_all_zero_coefficients(self):
        expr = polynomial(Var("x"), [0.0, 0.0])
        v, e = expr.evaluate(env_of(x=([1.0], 0.5)))
        assert float(v) == 0.0 and float(e) == 0.0

    def test_exact_at_zero_eps(self):
        expr = polynomial(Var("x"), [2.0, 1.0])
        _, bound = expr.evaluate(env_of(x=([3.0], 0.0)))
        np.testing.assert_allclose(bound, 0.0)


class TestPowValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Pow(Var("x"), -1)

    def test_rejects_non_half(self):
        with pytest.raises(ValueError):
            Pow(Var("x"), 1.3)

    def test_pow_half_is_sqrt(self):
        env = env_of(x=([4.0], 0.1))
        v1, b1 = Pow(Var("x"), 0.5).evaluate(env)
        v2, b2 = Sqrt(Var("x")).evaluate(env)
        np.testing.assert_allclose(v1, v2)
        np.testing.assert_allclose(b1, b2)


class TestDomainFailures:
    def test_division_near_zero_gives_inf(self):
        expr = Div(Const(1.0), Var("d"))
        _, bound = expr.evaluate(env_of(d=([0.001], 0.5)))
        assert np.isinf(bound.item())

    def test_inf_propagates_through_parents(self):
        expr = Sqrt(Div(Const(1.0), Var("d")))
        _, bound = expr.evaluate(env_of(d=([0.001], 0.5)))
        assert np.isinf(bound.item())


def _ge_state(n=257, seed=3):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 4 * np.pi, n)
    fields = dict(
        velocity_x=120 * np.sin(t) + 30 + rng.normal(size=n),
        velocity_y=60 * np.cos(t) + rng.normal(size=n),
        velocity_z=20 * np.sin(2 * t) + rng.normal(size=n),
        pressure=1e5 + 2e4 * np.sin(t / 2) + 100 * rng.normal(size=n),
        density=1.2 + 0.2 * np.cos(t / 3) + 0.002 * rng.normal(size=n),
    )
    walls = slice(0, n, 16)
    for name in ("velocity_x", "velocity_y", "velocity_z"):
        fields[name][walls] = 0.0
    return fields


def _eps_cases(fields):
    """Scalar, per-point (zero-masked) and unbounded eps for every field."""
    mask = ZeroMask.from_fields(
        fields["velocity_x"], fields["velocity_y"], fields["velocity_z"]
    )
    scalar = {k: 1e-3 * float(np.ptp(v)) for k, v in fields.items()}
    pointwise = {
        k: mask.pointwise_eps(e, fields[k].shape) if k.startswith("velocity") else e
        for k, e in scalar.items()
    }
    unbounded = dict(scalar, pressure=np.inf, velocity_y=np.inf)
    return {"scalar": scalar, "pointwise": pointwise, "inf": unbounded}


def _bitwise_equal(a, b):
    return all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes()
        and np.asarray(x).shape == np.asarray(y).shape
        for x, y in zip(a, b)
    )


class TestMemoizedEvaluation:
    """A :class:`MemoEnv` returns the bytes a plain ``dict`` returns."""

    def _forest(self):
        vtot, t = GE_QOIS["VTOT"], GE_QOIS["T"]
        forest = dict(GE_QOIS)
        forest.update(
            abs=Abs(vtot - 50.0),
            minimum=Minimum(vtot, t),
            maximum=Maximum(vtot, t),
            clip=Clip(t, lo=250.0, hi=400.0),
            mean=DomainReduce(GE_QOIS["Mach"], kind="mean"),
            weighted=DomainReduce(vtot, weights=np.linspace(0.0, 1.0, 257)),
            smooth=MovingAverage(GE_QOIS["C"], window=5),
        )
        return forest

    @pytest.mark.parametrize("case", ["scalar", "pointwise", "inf"])
    def test_bitwise_equal_to_plain_evaluate(self, case):
        fields = _ge_state()
        eps = _eps_cases(fields)[case]
        forest = self._forest()
        plain = {k: (v, eps[k]) for k, v in fields.items()}
        env = MemoEnv(forest.values())
        assert env.shared  # the forest does repeat subtrees
        for k, v in fields.items():
            env.bind(k, v, eps[k])
        with np.errstate(all="ignore"):
            for _ in range(2):  # the second pass is served from the memo
                for name, qoi in forest.items():
                    assert _bitwise_equal(qoi.evaluate(env), qoi.evaluate(plain)), name
            # re-binding a variable recomputes exactly what depends on it
            moved = fields["pressure"] * 1.01
            env.bind("pressure", moved, eps["pressure"])
            plain["pressure"] = (moved, eps["pressure"])
            for name, qoi in forest.items():
                assert _bitwise_equal(qoi.evaluate(env), qoi.evaluate(plain)), name

    def test_only_maximal_repeated_subtrees_are_kept(self):
        vtot, t, mach = GE_QOIS["VTOT"], GE_QOIS["T"], GE_QOIS["Mach"]
        shared = shared_subtrees([vtot, t, mach])
        assert shared == {
            vtot.key: ("velocity_x", "velocity_y", "velocity_z"),
            t.key: ("density", "pressure"),
        }
        # one tree on its own repeats nothing worth keeping ...
        assert shared_subtrees([vtot]) == {}
        # ... unless it uses a subtree twice: x**3.5 is x**3 * sqrt(x)
        pt = GE_QOIS["PT"]
        assert any(key.startswith("Add(") for key in shared_subtrees([pt]))

    def test_keys_are_structural(self):
        assert GE_QOIS["VTOT"].key == total_velocity().key != total_velocity(vz="w").key
        # the same function, summed in another association, is another tree
        assert GE_QOIS["VTOT"].key != Sqrt(
            Var("velocity_x") ** 2 + Var("velocity_y") ** 2 + Var("velocity_z") ** 2
        ).key
        assert Radical(Var("x"), c=1.0).key != Radical(Var("x"), c=2.0).key
        assert Add([Var("x"), Var("y")], weights=[1, -1]).key != (Var("x") + Var("y")).key
        assert Minimum(Var("x"), Var("y")).key != Maximum(Var("x"), Var("y")).key

    def test_user_defined_node_without_a_key_still_evaluates(self):
        class Halved(QoI):  # declares no key: evaluated afresh every time
            calls = 0

            def __init__(self, child):
                self.child = child

            def evaluate(self, env):
                type(self).calls += 1
                v, e = self.child.evaluate(env)
                return 0.5 * np.asarray(v), 0.5 * np.asarray(e)

            def variables(self):
                return self.child.variables()

        node = Halved(Sqrt(Var("x")))
        parent = Sqrt(node) + Sqrt(node)
        assert node.key is None and parent.key is None
        values = np.array([4.0, 16.0])
        plain = {"x": (values, 0.25)}
        env = MemoEnv([parent, parent])
        env.bind("x", values, 0.25)
        assert _bitwise_equal(parent.evaluate(env), parent.evaluate(plain))
        assert Halved.calls == 4  # nothing of it was memoized
