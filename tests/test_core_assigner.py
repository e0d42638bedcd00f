"""Tests for Algorithms 3 (assign_eb) and 4 (reassign_eb)."""

import numpy as np
import pytest

from repro.core.assigner import assign_eb, reassign_eb
from repro.core.estimators import seed_bounds
from repro.core.qois import total_velocity
from repro.core.expressions import Div, Var


class TestAssignEb:
    def test_minimum_tolerance_wins(self):
        # Algorithm 3: variable used by several QoIs takes the tightest tau
        assert assign_eb(10.0, [1e-2, 1e-4, 1e-3]) == pytest.approx(1e-4 * 10.0)

    def test_capped_at_full_relative_bound(self):
        assert assign_eb(5.0, [2.0, 7.0]) == pytest.approx(5.0)

    def test_no_tolerances_gives_range(self):
        assert assign_eb(3.0, []) == pytest.approx(3.0)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            assign_eb(1.0, [0.0])
        with pytest.raises(ValueError, match="got nan"):
            assign_eb(1.0, [float("nan")])  # `tau <= 0` let NaN through
        with pytest.raises(ValueError, match="got nan"):
            seed_bounds([1.0], [[True]], [float("nan")])  # the vectorized twin

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            assign_eb(0.0, [1e-3])


class TestReassignEb:
    def test_tightens_until_tolerance_met(self):
        qoi = total_velocity()
        point = {"velocity_x": 100.0, "velocity_y": 50.0, "velocity_z": 10.0}
        ebs = {k: 10.0 for k in point}
        new = reassign_eb(qoi, tolerance=0.05, point_values=point, current_ebs=ebs)
        env = {k: (np.array([v]), new[k]) for k, v in point.items()}
        _, est = qoi.evaluate(env)
        assert float(np.max(est)) <= 0.05
        assert all(new[k] < ebs[k] for k in point)

    def test_noop_when_already_met(self):
        qoi = total_velocity()
        point = {"velocity_x": 100.0, "velocity_y": 50.0, "velocity_z": 10.0}
        ebs = {k: 1e-9 for k in point}
        new = reassign_eb(qoi, 1.0, point, ebs)
        assert new == ebs

    def test_reduction_uses_factor_c(self):
        qoi = Var("x")  # identity: bound == eps
        new = reassign_eb(qoi, tolerance=0.4, point_values={"x": 1.0}, current_ebs={"x": 1.0}, c=2.0)
        # 1.0 -> 0.5 -> 0.25: two halvings needed to get below 0.4
        assert new["x"] == pytest.approx(0.25)

    def test_domain_failure_recovers(self):
        # division whose denominator interval initially straddles zero
        qoi = Div(Var("a"), Var("b"))
        point = {"a": 1.0, "b": 0.5}
        ebs = {"a": 1.0, "b": 1.0}  # eps_b > |b| -> inf estimate
        new = reassign_eb(qoi, tolerance=0.1, point_values=point, current_ebs=ebs)
        env = {k: (np.array([v]), new[k]) for k, v in point.items()}
        _, est = qoi.evaluate(env)
        assert float(np.max(est)) <= 0.1

    def test_singular_point_raises(self):
        qoi = Div(Var("a"), Var("b"))
        with pytest.raises(RuntimeError, match="singular"):
            reassign_eb(qoi, 1e-6, {"a": 1.0, "b": 0.0}, {"a": 1.0, "b": 1.0}, max_iterations=30)

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            reassign_eb(Var("x"), 0.1, {"x": 1.0}, {"x": 1.0}, c=1.0)
