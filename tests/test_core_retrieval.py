"""Integration tests for the QoI-preserved retrieval loop (Algorithm 2)."""

import numpy as np
import pytest

import repro.core.expressions as expressions
from repro.compressors.base import make_refactorer
from repro.compressors.pmgard import PMGARDRefactorer
from repro.core.estimators import bound_add, bound_power
from repro.core.expressions import Div, MemoEnv, QoI, Sqrt, Var
from repro.core.masking import ZeroMask
from repro.core.qois import GE_QOIS, molar_product, total_velocity
from repro.core.retrieval import QoIRequest, QoIRetriever, refactor_dataset
from repro.service.service import RetrievalService
from repro.storage.store import FragmentStore


def cfd_fields(n=4000, seed=0, with_walls=False):
    """Synthetic linearized CFD state resembling the GE data."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 6 * np.pi, n)
    vx = 120 * np.sin(t) + 30 + 2 * rng.normal(size=n)
    vy = 60 * np.cos(t) + 1.5 * rng.normal(size=n)
    vz = 20 * np.sin(2 * t) + rng.normal(size=n)
    pressure = 1e5 + 2e4 * np.sin(t / 2) + 100 * rng.normal(size=n)
    density = 1.2 + 0.2 * np.cos(t / 3) + 0.002 * rng.normal(size=n)
    if with_walls:
        walls = slice(0, n, 20)
        vx[walls] = vy[walls] = vz[walls] = 0.0
    return dict(velocity_x=vx, velocity_y=vy, velocity_z=vz, pressure=pressure, density=density)


def ranges_of(fields):
    return {k: float(np.max(v) - np.min(v)) for k, v in fields.items()}


@pytest.fixture(scope="module", params=["pmgard_hb", "psz3_delta"])
def retriever_setup(request):
    fields = cfd_fields()
    refactored = refactor_dataset(fields, make_refactorer(request.param))
    return fields, QoIRetriever(refactored, ranges_of(fields))


class TestToleranceGuarantee:
    @pytest.mark.parametrize("tol", [1e-2, 1e-4])
    def test_vtot_error_within_tolerance(self, retriever_setup, tol):
        fields, retriever = retriever_setup
        qoi = total_velocity()
        truth = qoi.value({k: (v, 0.0) for k, v in fields.items() if k.startswith("velocity")})
        qrange = float(np.max(truth) - np.min(truth))
        result = retriever.retrieve([QoIRequest("VTOT", qoi, tol, qrange)])
        assert result.all_satisfied
        rec_vtot = qoi.value({k: (result.data[k], 0.0) for k in result.data})
        actual = float(np.max(np.abs(rec_vtot - truth)))
        assert actual <= result.estimated_errors["VTOT"] * (1 + 1e-9)
        assert actual <= tol * qrange

    def test_multiple_qois_all_respected(self, retriever_setup):
        fields, retriever = retriever_setup
        env0 = {k: (v, 0.0) for k, v in fields.items()}
        requests = []
        for name in ["VTOT", "T", "Mach"]:
            qoi = GE_QOIS[name]
            truth = qoi.value(env0)
            qrange = float(np.max(truth) - np.min(truth))
            requests.append(QoIRequest(name, qoi, 1e-3, qrange))
        result = retriever.retrieve(requests)
        assert result.all_satisfied
        for req in requests:
            truth = req.qoi.value(env0)
            rec = req.qoi.value({k: (result.data[k], 0.0) for k in result.data})
            assert np.max(np.abs(rec - truth)) <= req.absolute_tolerance * (1 + 1e-9)


class TestProgressiveEconomy:
    def test_tighter_tolerance_costs_more(self):
        fields = cfd_fields(seed=1)
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        qoi = total_velocity()
        truth = qoi.value({k: (v, 0.0) for k, v in fields.items() if "velocity" in k})
        qrange = float(np.max(truth) - np.min(truth))
        sizes = []
        for tol in [1e-1, 1e-3, 1e-5]:
            retriever = QoIRetriever(refactored, ranges_of(fields))
            res = retriever.retrieve([QoIRequest("VTOT", qoi, tol, qrange)])
            assert res.all_satisfied
            sizes.append(res.total_bytes)
        assert sizes[0] < sizes[1] < sizes[2]

    def test_unused_variables_not_fetched(self):
        fields = cfd_fields(seed=2)
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        retriever = QoIRetriever(refactored, ranges_of(fields))
        qoi = molar_product("pressure", "density")
        truth = qoi.value({k: (fields[k], 0.0) for k in ("pressure", "density")})
        qrange = float(np.max(truth) - np.min(truth))
        res = retriever.retrieve([QoIRequest("PD", qoi, 1e-3, qrange)])
        assert set(res.bytes_per_variable) == {"pressure", "density"}


class TestMaskIntegration:
    def test_wall_nodes_do_not_blow_up_retrieval(self):
        fields = cfd_fields(seed=3, with_walls=True)
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        vel = [fields[k] for k in ("velocity_x", "velocity_y", "velocity_z")]
        mask = ZeroMask.from_fields(*vel)
        assert mask.count > 0
        masks = {k: mask for k in ("velocity_x", "velocity_y", "velocity_z")}
        qoi = total_velocity()
        truth = qoi.value({k: (fields[k], 0.0) for k in masks})
        qrange = float(np.max(truth) - np.min(truth))
        with_mask = QoIRetriever(refactored, ranges_of(fields), masks=masks).retrieve(
            [QoIRequest("VTOT", qoi, 1e-4, qrange)]
        )
        assert with_mask.all_satisfied
        rec = qoi.value({k: (with_mask.data[k], 0.0) for k in with_mask.data})
        assert np.max(np.abs(rec - truth)) <= 1e-4 * qrange
        # masked nodes are exactly zero in the reconstruction
        assert np.all(with_mask.data["velocity_x"][mask.mask] == 0.0)

    def test_mask_bytes_accounted(self):
        fields = cfd_fields(seed=4, with_walls=True)
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        vel_names = ("velocity_x", "velocity_y", "velocity_z")
        mask = ZeroMask.from_fields(*(fields[k] for k in vel_names))
        masks = {k: mask for k in vel_names}
        qoi = total_velocity()
        truth = qoi.value({k: (fields[k], 0.0) for k in vel_names})
        qrange = float(np.max(truth) - np.min(truth))
        res = QoIRetriever(refactored, ranges_of(fields), masks=masks).retrieve(
            [QoIRequest("VTOT", qoi, 1e-2, qrange)]
        )
        for name in vel_names:
            assert res.bytes_per_variable[name] >= mask.nbytes


class TestValidation:
    def test_empty_requests(self):
        fields = cfd_fields(seed=5)
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        retriever = QoIRetriever(refactored, ranges_of(fields))
        with pytest.raises(ValueError):
            retriever.retrieve([])

    def test_unknown_variable(self):
        fields = cfd_fields(seed=6)
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        retriever = QoIRetriever(refactored, ranges_of(fields))
        from repro.core.expressions import Var

        with pytest.raises(ValueError, match="unknown variables"):
            retriever.retrieve([QoIRequest("bad", Var("nope"), 1e-3)])

    def test_missing_range(self):
        fields = cfd_fields(seed=7)
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        with pytest.raises(ValueError, match="missing value range"):
            QoIRetriever(refactored, {})

    # at the parent, qoi_range 0 / -1 ended in "reassign_eb did not
    # converge", NaN in an unsatisfied answer after two rounds, and a NaN
    # tolerance in an error about an infinite bound
    @pytest.mark.parametrize(
        "tolerance, qoi_range, message",
        [
            (float("nan"), 1.0, "tolerance must be > 0, got nan"),
            (0.0, 1.0, "tolerance must be > 0, got 0.0"),
            (-1e-3, 1.0, "tolerance must be > 0, got -0.001"),
            (1e-3, 0.0, "qoi_range must be finite and > 0, got 0.0"),
            (1e-3, -1.0, "qoi_range must be finite and > 0, got -1.0"),
            (1e-3, float("nan"), "qoi_range must be finite and > 0, got nan"),
            (1e-3, float("inf"), "qoi_range must be finite and > 0, got inf"),
        ],
    )
    def test_request_is_validated_at_construction(self, tolerance, qoi_range, message):
        with pytest.raises(ValueError) as raised:
            QoIRequest("VTOT", total_velocity(), tolerance, qoi_range)
        assert str(raised.value) == message

    @pytest.mark.parametrize("wrap", [lambda q: q, Sqrt], ids=["div", "sqrt_div"])
    def test_zero_over_zero_fails_the_same_under_sqrt(self, wrap):
        # a = b = 0 at one point: both QoIs are singular there, and a NaN
        # radicand is no bound, so both are refused alike
        rng = np.random.default_rng(0)
        fields = {"a": rng.uniform(1, 2, 500), "b": rng.uniform(1, 2, 500)}
        fields["a"][100] = fields["b"][100] = 0.0
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        request = QoIRequest("q", wrap(Div(Var("a"), Var("b"))), 1e-3, 1.0)
        with pytest.raises(RuntimeError, match="likely singular"):
            QoIRetriever(refactored, ranges_of(fields)).retrieve([request])

    def test_result_metadata(self, retriever_setup):
        fields, retriever = retriever_setup
        qoi = total_velocity()
        truth = qoi.value({k: (v, 0.0) for k, v in fields.items() if "velocity" in k})
        qrange = float(np.max(truth) - np.min(truth))
        res = retriever.retrieve([QoIRequest("VTOT", qoi, 1e-3, qrange)])
        assert res.rounds >= 1
        assert res.stopwatch.total() > 0
        assert set(res.final_ebs) == {"velocity_x", "velocity_y", "velocity_z"}


def ge_requests(fields, tolerances):
    env0 = {k: (v, 0.0) for k, v in fields.items()}
    requests = []
    for name, tol in tolerances.items():
        truth = GE_QOIS[name].value(env0)
        requests.append(
            QoIRequest(name, GE_QOIS[name], tol, float(np.max(truth) - np.min(truth)))
        )
    return requests


def count_calls(monkeypatch, *names, field_size=4000):
    """Count the whole-domain calls of the named estimators (Algorithm 4's
    few-point probes of the same trees are not estimation passes)."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(expressions, name)

        def wrapper(*args, **kwargs):
            calls[name] += np.size(args[0]) == field_size
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(expressions, name, counting(name))
    return calls


def never_remember(patch):
    """Make every :class:`MemoEnv` stamp differ, so nothing is ever reused:
    the loop then re-estimates every request every round, as it used to."""
    patch.setattr(MemoEnv, "stamp", lambda self, names, tick=iter(range(10**9)): next(tick))


def outcome(result):
    return (
        result.rounds,
        result.estimated_errors,
        result.satisfied,
        result.final_ebs,
        result.bytes_per_variable,
        {k: v.tobytes() for k, v in result.data.items()},
    )


class TestRoundEstimatesOnlyWhatMoved:
    """Per-call memo: shared subtrees once, unmoved requests not at all."""

    def test_shared_subtrees_are_estimated_once_per_round(self, monkeypatch):
        fields = cfd_fields()
        retriever = QoIRetriever(
            refactor_dataset(fields, make_refactorer("pmgard_hb")), ranges_of(fields)
        )
        requests = ge_requests(fields, {"VTOT": 1e-3, "T": 1e-3, "Mach": 1e-3})
        calls = count_calls(monkeypatch, "bound_sqrt", "bound_div")
        result = retriever.retrieve(requests, max_rounds=1)
        assert result.rounds == 1  # every variable moved
        # VTOT's root (reused inside Mach) and C's root: two, not three;
        # T's root (reused inside C) and Mach's root: two, not three
        assert calls == {"bound_sqrt": 2, "bound_div": 2}

    def test_request_whose_variables_did_not_move_costs_nothing(self, monkeypatch):
        fields = cfd_fields()
        refactored = refactor_dataset(fields, make_refactorer("pmgard_hb"))
        warm_up = ge_requests(fields, {"VTOT": 1e-3})
        # VTOT is already met when the call starts; T needs Algorithm 4 to
        # tighten pressure and density, which VTOT does not read
        requests = ge_requests(fields, {"VTOT": 1e-3, "T": 1e-7})
        session = QoIRetriever(refactored, ranges_of(fields)).session()
        session.retrieve(warm_up)
        calls = count_calls(monkeypatch, "bound_sqrt", "bound_div")
        result = session.retrieve(requests)
        assert result.all_satisfied and result.rounds >= 2
        # T (the only Div) moved every round; VTOT (the only Sqrt) was
        # estimated in the first and not again
        assert calls == {"bound_sqrt": 1, "bound_div": result.rounds}
        # and what the call reports is what re-estimating every request
        # every round reports
        monkeypatch.undo()
        never_remember(monkeypatch)
        replay = QoIRetriever(refactored, ranges_of(fields)).session()
        replay.retrieve(warm_up)
        assert outcome(replay.retrieve(requests)) == outcome(result)

    def test_exhausted_request_keeps_its_worst_index(self, monkeypatch):
        """A request that cannot be met stops moving once its readers
        bottom out; while another request keeps the loop going it is not
        re-estimated, and Algorithm 4 is fed the worst index it had."""
        fields = cfd_fields(n=1500)
        shallow = PMGARDRefactorer(num_planes=8)
        refactored = {
            name: (shallow if name.startswith("velocity") else make_refactorer("pmgard_hb")).refactor(data)
            for name, data in fields.items()
        }
        requests = ge_requests(fields, {"VTOT": 1e-12, "T": 1e-9})

        def run(memo):
            with pytest.MonkeyPatch.context() as patch:
                calls = count_calls(patch, "bound_sqrt", field_size=1500)
                if not memo:
                    never_remember(patch)
                retriever = QoIRetriever(refactored, ranges_of(fields))
                return retriever.retrieve(requests), calls["bound_sqrt"]

        memoized, sqrt_calls = run(memo=True)
        plain, plain_sqrt_calls = run(memo=False)
        assert not memoized.satisfied["VTOT"] and memoized.satisfied["T"]
        assert outcome(memoized) == outcome(plain)
        assert plain_sqrt_calls == plain.rounds
        assert sqrt_calls < memoized.rounds

    def test_region_request(self):
        fields = cfd_fields(with_walls=True)
        retriever = QoIRetriever(
            refactor_dataset(fields, make_refactorer("pmgard_hb")), ranges_of(fields)
        )
        region = np.zeros(4000, dtype=bool)
        region[1000:1500] = True
        region[::20] = False  # keep the wall nodes (loose sqrt bound) out
        env0 = {k: (v, 0.0) for k, v in fields.items()}
        requests = []
        for name in ("VTOT", "Mach"):
            truth = GE_QOIS[name].value(env0)
            requests.append(QoIRequest(
                name, GE_QOIS[name], 1e-4, float(np.ptp(truth)), region=region
            ))
        result = retriever.retrieve(requests)
        assert result.all_satisfied
        for req in requests:
            rec = req.qoi.value({k: (result.data[k], 0.0) for k in result.data})
            actual = np.abs(rec - req.qoi.value(env0))[region].max()
            assert actual <= result.estimated_errors[req.name] * (1 + 1e-9)
            assert result.estimated_errors[req.name] <= req.absolute_tolerance
        with pytest.MonkeyPatch.context() as patch:
            never_remember(patch)
            plain = QoIRetriever(
                refactor_dataset(fields, make_refactorer("pmgard_hb")), ranges_of(fields)
            ).retrieve(requests)
        assert outcome(plain) == outcome(result)

    def test_user_defined_qoi_without_a_key(self):
        class KineticEnergy(QoI):  # a subclass from outside the library
            def evaluate(self, env):
                vx, ex = Var("velocity_x").evaluate(env)
                vy, ey = Var("velocity_y").evaluate(env)
                bound = bound_add([bound_power(vx, ex, 2), bound_power(vy, ey, 2)], [0.5, 0.5])
                return 0.5 * (vx**2 + vy**2), bound

            def variables(self):
                return frozenset({"velocity_x", "velocity_y"})

        fields = cfd_fields()
        retriever = QoIRetriever(
            refactor_dataset(fields, make_refactorer("pmgard_hb")), ranges_of(fields)
        )
        qoi = KineticEnergy()
        truth = qoi.value({k: (v, 0.0) for k, v in fields.items()})
        requests = [
            QoIRequest("KE", qoi, 1e-4, float(np.ptp(truth))),
            QoIRequest("KE again", qoi, 1e-3, float(np.ptp(truth))),
            QoIRequest("ratio", Div(Sqrt(qoi), Sqrt(qoi) + 1.0), 1e-3),
        ]
        result = retriever.retrieve(requests)
        assert result.all_satisfied
        rec = qoi.value({k: (result.data[k], 0.0) for k in result.data})
        assert np.max(np.abs(rec - truth)) <= result.estimated_errors["KE"] * (1 + 1e-9)

    def test_nothing_memoized_outlives_a_call(self):
        """Through the service: a session that retrieved, then saw its
        variable replaced, estimates and returns the new data."""
        service = RetrievalService(FragmentStore())
        rng = np.random.default_rng(4)
        t = np.linspace(0.0, 6.0, 900)
        old = {"p": 3.0 + np.sin(t), "q": 2.0 + np.cos(t) + 0.01 * rng.normal(size=t.size)}
        service.ingest(old, method="pmgard_hb")
        speed = Sqrt(Var("p") ** 2 + Var("q") ** 2)
        requests = [
            QoIRequest("speed", speed, 1e-4),
            QoIRequest("ratio", Div(Sqrt(Var("p") ** 2 + Var("q") ** 2), Var("q")), 1e-4),
        ]

        def check(result, fields):
            assert result.all_satisfied
            env0 = {k: (v, 0.0) for k, v in fields.items()}
            for req in requests:
                rec = req.qoi.value({k: (result.data[k], 0.0) for k in result.data})
                actual = np.max(np.abs(rec - req.qoi.value(env0)))
                assert actual <= result.estimated_errors[req.name] * (1 + 1e-9) <= 1e-4 * (1 + 1e-9)

        with service.open_session() as session:
            check(session.retrieve(requests), old)
            new = dict(old, p=10.0 - 2.0 * np.cos(t))
            service.ingest({"p": new["p"]}, method="pmgard_hb")
            check(session.retrieve(requests), new)
