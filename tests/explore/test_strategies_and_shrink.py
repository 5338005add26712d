"""Strategy streams (determinism, budget-as-prefix), ddmin and the case shrinker."""

import pytest

from repro.explore.case import CaseOp, ExploreCase
from repro.explore.config import ExploreConfig
from repro.explore.shrink import ddmin, shrink_case
from repro.explore.strategies import available_strategies, build_strategy
from repro.faults import DelayStorm, FaultPlan, PartitionSchedule, PartitionWindow


def materialized(config, limit=None):
    strategy = build_strategy(config)
    cases = []
    for case, recorder in strategy.cases():
        cases.append((case, None if recorder is None else recorder.seed))
        if limit is not None and len(cases) >= limit:
            break
    return cases


class TestStrategyStreams:
    @pytest.mark.parametrize("name", ["random-walk", "crash-sweep", "partition-sweep", "faults"])
    def test_streams_are_deterministic(self, name):
        config = ExploreConfig(strategy=name, budget=6, seed=3, num_ops=20)
        assert materialized(config) == materialized(config)

    @pytest.mark.parametrize("name", ["random-walk", "crash-sweep", "partition-sweep", "faults"])
    def test_budget_is_a_prefix_not_a_different_stream(self, name):
        small = ExploreConfig(strategy=name, budget=3, seed=3, num_ops=20)
        large = ExploreConfig(strategy=name, budget=9, seed=3, num_ops=20)
        assert materialized(small) == materialized(large, limit=3)

    def test_every_strategy_is_listed_and_buildable(self):
        assert available_strategies() == ["random-walk", "crash-sweep", "partition-sweep", "faults"]
        for name in available_strategies():
            build_strategy(ExploreConfig(strategy=name, budget=1))

    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError, match="unknown schedule strategy"):
            build_strategy(ExploreConfig(strategy="exhaustive", budget=1))

    def test_crash_sweep_requires_crash_tolerant_replication(self):
        config = ExploreConfig(strategy="crash-sweep", budget=1, replication=2)
        with pytest.raises(ValueError, match="replication"):
            list(build_strategy(config).cases())

    def test_sweep_cases_carry_their_fault_and_a_recorder(self):
        crash_cases = materialized(ExploreConfig(strategy="crash-sweep", budget=4, num_ops=10))
        for case, recorder_seed in crash_cases:
            assert case.crash_points and case.crash_points[0]["replica"] >= 1
            assert recorder_seed is not None
        partition_cases = materialized(
            ExploreConfig(strategy="partition-sweep", budget=4, num_ops=10)
        )
        for case, recorder_seed in partition_cases:
            (window,) = case.fault_plan["link_policies"]
            assert window["fault"] == "partition" and window["heal"] > window["start"]
            assert recorder_seed is not None


class TestDdmin:
    def test_single_culprit(self):
        items = list(range(40))
        result = ddmin(items, lambda subset: 17 in subset)
        assert result == [17]

    def test_interacting_pair(self):
        items = list(range(30))
        result = ddmin(items, lambda subset: 3 in subset and 27 in subset)
        assert result == [3, 27]

    def test_preserves_order(self):
        items = ["a", "b", "c", "d", "e"]
        result = ddmin(items, lambda subset: "d" in subset and "b" in subset)
        assert result == ["b", "d"]

    def test_result_is_one_minimal(self):
        items = list(range(20))
        fails = lambda subset: sum(subset) >= 30  # noqa: E731
        result = ddmin(items, fails)
        assert fails(result)
        for index in range(len(result)):
            assert not fails(result[:index] + result[index + 1 :])

    def test_deterministic(self):
        items = list(range(25))
        fails = lambda subset: len([i for i in subset if i % 5 == 0]) >= 2  # noqa: E731
        assert ddmin(items, fails) == ddmin(items, fails)


PLAN = FaultPlan(
    name="p",
    link_policies=(
        PartitionSchedule(windows=(PartitionWindow.isolate((2,), 3, start=0.0, heal=5.0),)),
    ),
).to_dict()
(STORM,) = DelayStorm(start=0.0, end=3.0, factor=4.0, sources=(0,)).describe()


class TestShrinkCase:
    def test_a_round_that_only_drops_a_fault_is_progress(self):
        a = CaseOp(kind="write", key="k0", value="a")
        b = CaseOp(kind="write", key="k0", value="b")
        case = ExploreCase(
            name="synthetic", algorithm="abd", num_shards=1, replication=3, batch_size=1,
            delay={"kind": "fixed", "delta": 1.0}, ops=(a, b),
            crash_points=({"at": 1.0, "shard": 0, "replica": 1},),
            fault_plan=PLAN,
        )

        def fails(candidate):
            """No store: crash c needs plan p and {a, b}; p alone {a, b}; neither {a}."""
            ops = set(candidate.ops)
            if candidate.crash_points:
                return candidate.fault_plan is not None and {a, b} <= ops
            if candidate.fault_plan is not None:
                return {a, b} <= ops
            return a in ops

        shrunk = shrink_case(case, fails)
        assert shrunk.ops == (a,)
        assert shrunk.crash_points == () and shrunk.fault_plan is None

    def test_link_policies_are_dropped_one_at_a_time(self):
        case = ExploreCase(
            name="synthetic", algorithm="abd", num_shards=1, replication=3, batch_size=1,
            delay={"kind": "fixed", "delta": 1.0}, ops=(CaseOp(kind="read", key="k0"),),
            fault_plan={**PLAN, "link_policies": [STORM, *PLAN["link_policies"]]},
        )

        def fails(candidate):
            """No store: only the storm matters."""
            return STORM in (candidate.fault_plan or {}).get("link_policies", ())

        shrunk = shrink_case(case, fails)
        assert shrunk.fault_plan == {**PLAN, "link_policies": [STORM]}


class TestConfigValidation:
    def test_rejects_bad_parameters(self):
        for kwargs in (
            {"budget": 0},
            {"num_ops": 0},
            {"num_keys": 0},
            {"read_fraction": 1.5},
            {"replication": 1},
            {"arrival_gap": -1.0},
            {"batch_size": 0},
        ):
            with pytest.raises(ValueError):
                ExploreConfig(**kwargs)

    def test_with_copies(self):
        config = ExploreConfig()
        assert config.with_(budget=7).budget == 7
        assert config.budget == 20
