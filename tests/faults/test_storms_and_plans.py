"""Unit tests for delay storms, composite policies and fault plans."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    CompositeLinkPolicy,
    DelayStorm,
    FaultPlan,
    PartitionSchedule,
    PartitionWindow,
    asymmetric_link,
    majority_minority_split,
    random_fault_plan,
    slow_the_writer,
)


class TestDelayStorm:
    def test_window_must_be_finite(self):
        with pytest.raises(ValueError, match="must end"):
            DelayStorm(start=0.0, end=float("inf"), factor=2.0)

    def test_factor_and_extra_validation(self):
        with pytest.raises(ValueError, match="factor"):
            DelayStorm(start=0.0, end=10.0, factor=0.0)
        with pytest.raises(ValueError, match="factor"):
            DelayStorm(start=0.0, end=10.0, factor=float("inf"))
        with pytest.raises(ValueError, match="extra"):
            DelayStorm(start=0.0, end=10.0, factor=2.0, extra=-1.0)
        with pytest.raises(ValueError, match="changes nothing"):
            DelayStorm(start=0.0, end=10.0)

    def test_links_exclusive_with_endpoint_sets(self):
        with pytest.raises(ValueError, match="not both"):
            DelayStorm(start=0.0, end=10.0, factor=2.0, links=((0, 1),), sources=(0,))

    def test_adjust_inside_window_only(self):
        storm = DelayStorm(start=5.0, end=10.0, factor=3.0, extra=0.5)
        assert storm.adjust(0, 1, 7.0, 2.0) == pytest.approx(6.5)
        assert storm.adjust(0, 1, 4.0, 2.0) == 2.0
        assert storm.adjust(0, 1, 10.0, 2.0) == 2.0

    def test_endpoint_matching(self):
        outbound = DelayStorm(start=0.0, end=10.0, factor=2.0, sources=(0,))
        assert outbound.matches(0, 2) and not outbound.matches(2, 0)
        inbound = DelayStorm(start=0.0, end=10.0, factor=2.0, dests=(0,))
        assert inbound.matches(2, 0) and not inbound.matches(0, 2)

    def test_asymmetric_link_is_one_directional(self):
        storm = asymmetric_link(1, 2, factor=4.0, start=0.0, end=10.0)
        assert storm.adjust(1, 2, 5.0, 1.0) == 4.0
        assert storm.adjust(2, 1, 5.0, 1.0) == 1.0

    def test_validate_rejects_unknown_pids(self):
        with pytest.raises(ValueError, match="unknown process p9"):
            DelayStorm(start=0.0, end=10.0, factor=2.0, sources=(9,)).validate(3)


class TestCompositeAndPlan:
    def test_composite_threads_delay_through_policies(self):
        partition = PartitionSchedule(
            windows=(PartitionWindow(groups=((0,), (1,)), start=0.0, heal=10.0),)
        )
        storm = DelayStorm(start=0.0, end=20.0, factor=2.0)
        composite = CompositeLinkPolicy(policies=(storm, partition))
        # storm first (1.0 -> 2.0), then the partition adds heal residual.
        assert composite.adjust(0, 1, 4.0, 1.0) == pytest.approx(2.0 + 6.0)
        assert composite.quiescent_after() == 20.0

    def test_plan_policy_folding(self):
        assert FaultPlan().policy() is None
        storm = DelayStorm(start=0.0, end=10.0, factor=2.0)
        assert FaultPlan(link_policies=(storm,)).policy() is storm
        two = FaultPlan(link_policies=(storm, storm)).policy()
        assert isinstance(two, CompositeLinkPolicy)

    def test_plan_timeline_is_sorted(self):
        split = majority_minority_split(5, start=4.0, heal=16.0)
        storm = DelayStorm(start=1.0, end=9.0, factor=2.0)
        plan = FaultPlan(link_policies=split.link_policies + (storm,))
        timeline = plan.timeline()
        assert [entry["fault"] for entry in timeline] == ["delay_storm", "partition"]
        starts = [entry.get("at", entry.get("start", 0.0)) for entry in timeline]
        assert starts == sorted(starts)

    def test_slow_the_writer_storms_both_directions(self):
        plan = slow_the_writer(writer_pid=0, factor=5.0, start=0.0, end=10.0)
        policy = plan.policy()
        assert policy.adjust(0, 3, 5.0, 1.0) == 5.0   # writer's sends
        assert policy.adjust(3, 0, 5.0, 1.0) == 5.0   # writer's acks
        assert policy.adjust(3, 2, 5.0, 1.0) == 1.0   # bystanders untouched

    def test_majority_minority_split_bounds_the_minority(self):
        plan = majority_minority_split(5, start=0.0, heal=10.0)
        window = plan.link_policies[0].windows[0]
        assert window.groups[0] == (3, 4)  # default: top (n-1)//2 pids
        with pytest.raises(ValueError, match="minority side"):
            majority_minority_split(5, start=0.0, heal=10.0, minority=(1, 2, 3))

    def test_random_fault_plan_is_reproducible_and_legal(self):
        for seed in range(12):
            a = random_fault_plan(5, seed=seed)
            b = random_fault_plan(5, seed=seed)
            assert a == b
            a.validate(5)
            assert a.quiescent_after() < float("inf")
            # Pid 0 (the writer) is never cut off.
            for policy in a.link_policies:
                if isinstance(policy, PartitionSchedule):
                    assert all(0 not in window.groups[0] for window in policy.windows)

    def test_plan_validate_checks_every_policy(self):
        plan = majority_minority_split(5, start=0.0, heal=10.0)
        plan.validate(5)
        with pytest.raises(ValueError):
            plan.validate(2)


N = 5
TIMES = st.floats(min_value=0.0, max_value=30.0, allow_nan=False)
PIDS = st.integers(min_value=0, max_value=N - 1)


@st.composite
def windows(draw):
    cut = draw(st.sets(PIDS, min_size=1, max_size=N - 1))
    start = draw(TIMES)
    heal = start + draw(st.floats(min_value=0.01, max_value=20.0, allow_nan=False))
    return PartitionWindow.isolate(tuple(cut), N, start=start, heal=heal)


@st.composite
def storms(draw):
    start = draw(TIMES)
    end = start + draw(st.floats(min_value=0.01, max_value=20.0, allow_nan=False))
    factor = draw(st.floats(min_value=1.5, max_value=8.0, allow_nan=False))
    extra = draw(st.sampled_from([0.0, 0.5, 2.0]))
    match = draw(st.sampled_from(["links", "sources", "dests", "both", "global"]))
    links = sources = dests = None
    if match == "links":
        links = tuple(draw(st.lists(st.tuples(PIDS, PIDS), min_size=1, max_size=4)))
    if match in ("sources", "both"):
        sources = tuple(draw(st.sets(PIDS, min_size=1)))
    if match in ("dests", "both"):
        dests = tuple(draw(st.sets(PIDS, min_size=1)))
    return DelayStorm(start, end, factor, extra, links=links, sources=sources, dests=dests)


POLICIES = st.one_of(
    st.lists(windows(), min_size=1, max_size=3).map(lambda w: PartitionSchedule(windows=tuple(w))),
    storms(),
)
PLANS = st.builds(
    FaultPlan,
    name=st.text(max_size=8),
    link_policies=st.lists(POLICIES, max_size=4).map(tuple),
)
PROBES = st.lists(
    st.tuples(PIDS, PIDS, TIMES, st.floats(min_value=0.0, max_value=5.0, allow_nan=False)),
    min_size=1,
    max_size=40,
)


def through_json(plan):
    return FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict(), allow_nan=False)))


def delays(plan, probes):
    policy = plan.policy()
    return [probe[3] if policy is None else policy.adjust(*probe) for probe in probes]


class TestSerialForm:
    @settings(max_examples=60, deadline=None)
    @given(plan=PLANS, probes=PROBES)
    def test_a_plan_round_trips_to_the_same_delays(self, plan, probes):
        again = through_json(plan)
        assert again.name == plan.name
        assert delays(again, probes) == delays(plan, probes)

    def test_round_trip_keeps_policy_order(self):
        partition = PartitionSchedule(
            windows=(PartitionWindow.isolate((1,), 3, start=0.0, heal=10.0),)
        )
        storm = DelayStorm(start=0.0, end=20.0, factor=3.0, sources=(0,))
        storm_first = FaultPlan(link_policies=(storm, partition))
        partition_first = FaultPlan(link_policies=(partition, storm))
        probe = (0, 1, 4.0, 1.0)
        # storm then partition: 1 * 3 + 6; partition then storm: (6 + 1) * 3.
        assert storm_first.policy().adjust(*probe) == pytest.approx(9.0)
        assert partition_first.policy().adjust(*probe) == pytest.approx(21.0)
        for plan in (storm_first, partition_first):
            assert through_json(plan).policy().adjust(*probe) == plan.policy().adjust(*probe)
            assert through_json(plan) == plan

    def test_unknown_policy_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown policy or missing field 'gremlin'"):
            FaultPlan.from_dict({"link_policies": [{"fault": "gremlin"}]})
        with pytest.raises(ValueError, match="missing field 'end'"):
            FaultPlan.from_dict({"link_policies": [{"fault": "delay_storm", "start": 1.0}]})
