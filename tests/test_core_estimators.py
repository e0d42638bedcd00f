"""Property tests for Theorems 1-6: estimated bounds must dominate the
true supremum of the QoI error over the admissible perturbation set."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators import (
    bound_add,
    bound_div,
    bound_mul,
    bound_power,
    bound_radical,
    bound_sqrt,
)

finite = st.floats(-1e6, 1e6, allow_nan=False)
small_eps = st.floats(1e-12, 1e2)


def perturbations(x, eps, k=17):
    """Deterministic sample of x' around x, plus the eps actually applied.

    Floating-point rounding can make ``(x + eps) - x`` exceed ``eps`` by an
    ulp; returning the *applied* eps lets tests evaluate the estimator at
    the perturbation magnitude that really occurred.
    """
    xs = x + np.linspace(-eps, eps, k)
    return xs, float(np.max(np.abs(xs - x)))


class TestPolynomialBound:
    @given(finite, small_eps, st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_dominates_true_error(self, x, eps, n):
        xs, eps_applied = perturbations(x, eps)
        bound = float(bound_power(x, max(eps, eps_applied), n))
        fvals = xs**n
        true_err = np.max(np.abs(fvals - x**n))
        # slack: evaluating f in floats costs ~ulp(|f|), not the theorem's fault
        slack = 1e-13 * max(1e-300, float(np.max(np.abs(fvals))))
        assert true_err <= bound * (1 + 1e-9) + slack

    def test_linear_case_exact(self):
        assert bound_power(3.0, 0.5, 1) == 0.5

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            bound_power(1.0, 0.1, 0)
        with pytest.raises(ValueError):
            bound_power(1.0, 0.1, 2.5)

    def test_vectorized(self):
        x = np.array([0.0, 1.0, -2.0])
        out = bound_power(x, 0.1, 2)
        assert out.shape == (3,)
        np.testing.assert_allclose(out, 2 * np.abs(x) * 0.1 + 0.01)


class TestSqrtBound:
    @given(st.floats(0, 1e6), small_eps)
    @settings(max_examples=120, deadline=None)
    def test_dominates_true_error(self, x, eps):
        xs, eps_applied = perturbations(x, eps)
        xs = np.clip(xs, 0.0, None)
        bound = float(bound_sqrt(x, max(eps, eps_applied)))
        fvals = np.sqrt(xs)
        true_err = np.max(np.abs(fvals - np.sqrt(x)))
        slack = 1e-13 * max(1e-300, float(np.max(fvals)))
        assert true_err <= bound * (1 + 1e-9) + slack

    def test_zero_value_uses_exact_sup(self):
        assert float(bound_sqrt(0.0, 0.04)) == pytest.approx(0.2)

    def test_near_zero_is_loose(self):
        # the paper's observed looseness: bound >> actual for tiny x > 0
        x, eps = 1e-12, 1e-3
        bound = float(bound_sqrt(x, eps))
        actual_sup = np.sqrt(x + eps) - 0.0
        assert bound > 10 * actual_sup

    def test_paper_formula_in_regular_regime(self):
        x, eps = 4.0, 0.5
        expected = eps / (np.sqrt(x - eps) + np.sqrt(x))
        assert float(bound_sqrt(x, eps)) == pytest.approx(expected)


class TestRadicalBound:
    @given(finite, small_eps, st.floats(-100, 100))
    @settings(max_examples=150, deadline=None)
    def test_dominates_or_inf(self, x, eps, c):
        xs, eps_applied = perturbations(x, eps)
        eps_eff = max(eps, eps_applied)
        bound = float(bound_radical(x, eps_eff, c))
        if not np.isfinite(bound):
            return  # domain violation: estimator correctly refuses
        s = x + c
        if min(abs(s - eps_eff), abs(s + eps_eff)) < 1e-6 * abs(s):
            return  # near-singular: float cancellation swamps the comparison
        fvals = 1.0 / (xs + c)
        true_err = np.max(np.abs(fvals - 1.0 / (x + c)))
        slack = 1e-13 * float(np.max(np.abs(fvals)))
        # the bound equals the true supremum here, so allow a few ulps of
        # cancellation noise in the float evaluation
        assert true_err <= bound * (1 + 1e-6) + slack

    def test_infinite_when_eps_exceeds_denominator(self):
        assert np.isinf(bound_radical(1.0, 2.0, 0.0))

    def test_paper_formula(self):
        x, eps, c = 2.0, 0.5, 1.0
        expected = eps / (min(abs(x + c - eps), abs(x + c + eps)) * abs(x + c))
        assert float(bound_radical(x, eps, c)) == pytest.approx(expected)


class TestAddBound:
    @given(st.lists(st.tuples(finite, small_eps, st.floats(-10, 10)), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_dominates_worst_case(self, triples):
        xs = np.array([t[0] for t in triples])
        eps = np.array([t[1] for t in triples])
        ws = [t[2] for t in triples]
        bound = float(bound_add(list(eps), ws))
        # worst case is aligning all signs
        true_sup = float(np.sum(np.abs(ws) * eps))
        assert true_sup <= bound * (1 + 1e-12)

    def test_default_weights(self):
        assert float(bound_add([0.1, 0.2])) == pytest.approx(0.3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bound_add([0.1], [1.0, 2.0])


class TestMulBound:
    @given(finite, small_eps, finite, small_eps)
    @settings(max_examples=150, deadline=None)
    def test_dominates_true_error(self, x1, e1, x2, e2):
        p1 = [x1 - e1, x1, x1 + e1]
        p2 = [x2 - e2, x2, x2 + e2]
        e1_eff = max(e1, max(abs(v - x1) for v in p1))
        e2_eff = max(e2, max(abs(v - x2) for v in p2))
        bound = float(bound_mul(x1, e1_eff, x2, e2_eff))
        g = x1 * x2
        products = [a * b for a in p1 for b in p2]
        true_err = max(abs(v - g) for v in products)
        slack = 1e-13 * max(1e-300, max(abs(v) for v in products))
        assert true_err <= bound * (1 + 1e-9) + slack

    def test_paper_formula(self):
        assert float(bound_mul(2.0, 0.1, 3.0, 0.2)) == pytest.approx(
            2.0 * 0.2 + 3.0 * 0.1 + 0.1 * 0.2
        )


class TestDivBound:
    @given(finite, small_eps, finite, small_eps)
    @settings(max_examples=150, deadline=None)
    def test_dominates_or_inf(self, x1, e1, x2, e2):
        p1 = [x1 - e1, x1, x1 + e1]
        p2 = [x2 - e2, x2, x2 + e2]
        e1_eff = max(e1, max(abs(v - x1) for v in p1))
        e2_eff = max(e2, max(abs(v - x2) for v in p2))
        bound = float(bound_div(x1, e1_eff, x2, e2_eff))
        if not np.isfinite(bound):
            return
        if min(abs(x2 - e2_eff), abs(x2 + e2_eff)) < 1e-6 * abs(x2):
            return  # near-singular denominator: float cancellation dominates
        g = x1 / x2
        quotients = [a / b for a in p1 for b in p2]
        true_err = max(abs(v - g) for v in quotients)
        slack = 1e-13 * max(1e-300, max(abs(v) for v in quotients))
        assert true_err <= bound * (1 + 1e-6) + slack

    def test_infinite_on_denominator_straddle(self):
        assert np.isinf(bound_div(1.0, 0.0, 0.5, 1.0))

    def test_zero_denominator_infinite(self):
        assert np.isinf(bound_div(1.0, 0.1, 0.0, 0.0))


class TestNonFiniteInputs:
    """inf, huge and zero-crossing inputs: an ``inf`` bound, no warning.

    Every case here warned at the parent (``inf - inf``, an overflowing
    product or quotient, ``eps / 0``) or, worse, came back as 0 or NaN.
    """

    INF = np.inf
    SQRT = [  # (x, eps)
        (INF, INF),   # inf - inf
        (INF, 1.0),   # inf denominator would read as a bound of 0
        (1.0, INF),
        (0.0, INF),
        (-1.0, INF),
        (np.nan, INF),  # a 0/0 radicand upstream
        (np.nan, 0.0),
    ]
    RADICAL = [  # (x, eps), c = 0
        (INF, INF),
        (INF, 1.0),
        (1e200, 1.0),                 # lo * |s| overflows: eps / inf == 0
        (1.5e308, 1e308),
        (2.2e-311, 1.0),              # eps / tiny overflows (tier-1's example)
        (1.0, 2.0),                   # interval straddles zero
        (-3.0, 3.0),                  # touches zero
        (0.0, 0.0),                   # 0 / 0
    ]
    DIV = [  # (x1, eps1, x2, eps2)
        (1.0, 1.0, INF, 1.0),
        (INF, 0.0, 2.0, 0.0),         # inf * 0 in the numerator
        (1e308, 1e308, 1e308, 1e307), # numerator and denominator overflow
        (1e200, 1.0, 1e200, 1.0),     # denominator alone overflows
        (1368.0, 1.0, 7.6e-306, 1.0), # the tier-1 falsifying example
        (1.0, 0.0, 0.5, 1.0),         # denominator straddles zero
        (1.0, 0.1, 0.0, 0.0),
        (0.0, 0.0, 1e-200, 0.0),      # 0 / (underflowed 0)
    ]

    @pytest.mark.parametrize(
        "bound, cases",
        [(bound_sqrt, SQRT), (bound_radical, RADICAL), (bound_div, DIV)],
        ids=["sqrt", "radical", "div"],
    )
    def test_inf_without_warning(self, bound, cases):
        columns = [np.array(col) for col in zip(*cases)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [float(bound(*case)) for case in cases]
            # one regular point rides along: it must not be dragged to inf
            regular = {bound_sqrt: (4.0, 0.5), bound_radical: (3.0, 0.5),
                       bound_div: (6.0, 0.1, 3.0, 0.2)}[bound]
            vector = bound(*(np.append(col, r) for col, r in zip(columns, regular)))
        assert scalar == [np.inf] * len(cases)
        assert np.all(np.isinf(vector[:-1]))
        assert np.isfinite(vector[-1]) and vector[-1] == float(bound(*regular))

    def test_zero_times_inf_is_inf_without_warning(self):
        """A masked point (value 0, eps 0: §V-A) under a singular subtree
        (bound inf) reaches the polynomial, product and sum bounds as
        ``0 * inf``: no bound, so ``inf`` — never NaN, never a warning —
        and the regular point beside it is untouched."""
        inf = self.INF
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            power = bound_power(np.array([0.0, inf, 3.0]), np.array([inf, 0.0, 0.5]), 2)
            cube = bound_power(np.array([0.0, 3.0]), np.array([inf, 0.5]), 3)
            mul = bound_mul(np.array([0.0, inf, 0.0, 6.0]), np.array([0.0, 0.0, inf, 0.1]),
                            np.array([5.0, 0.0, 0.0, 3.0]), np.array([inf, 0.0, inf, 0.2]))
            add = bound_add([np.array([inf, 0.1]), np.array([1.0, 0.2])], [0.0, -2.0])
        assert power.tolist() == [inf, inf, float(bound_power(3.0, 0.5, 2))]
        assert cube.tolist() == [inf, float(bound_power(3.0, 0.5, 3))]
        assert mul.tolist() == [inf, inf, inf, float(bound_mul(6.0, 0.1, 3.0, 0.2))]
        assert add.tolist() == [inf, 0.4]

    def test_huge_finite_sqrt_stays_finite_and_sound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # x + eps overflows in the x <= 0 branch
            bound = float(bound_sqrt(1e308, 1e308))
        # sup over [0, 2e308] of |sqrt(x') - sqrt(1e308)| is sqrt(1e308)
        assert np.sqrt(1e308) <= bound < np.inf
