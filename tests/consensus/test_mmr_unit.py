"""Unit tests for the MMR consensus layer (repro.consensus.mmr).

Covers the pieces with sharp, locally-checkable contracts: the seeded
common coin, the wire-message dataclasses, the SMR sequential
specification, the blocking store object API (cas/tas/incr), the
agreement/validity invariant extractor, and the spec-routing guard that
keeps register and consensus algorithms out of the same store.
"""

from __future__ import annotations

import pytest

from repro.consensus import (
    COIN_PREFIX,
    CONSENSUS_ALGORITHMS,
    ConsAux,
    ConsCoin,
    ConsDecide,
    ConsEst,
    common_coin,
    consensus_invariants,
)
from repro.registers.registry import available_algorithms, get_algorithm
from repro.store.store import KVStore, StoreConfig
from repro.verification.history import OpKind
from repro.verification.specs import SMRSpec, get_spec


def consensus_store(algorithm: str = "mmr-cas", **overrides) -> KVStore:
    config = dict(
        algorithm=algorithm,
        num_shards=1,
        replication=3,
        initial_value=None,
    )
    config.update(overrides)
    return KVStore(StoreConfig(**config))


class TestCommonCoin:
    def test_the_first_two_rounds_are_fixed(self):
        # Round 0 favours the owner's command, round 1 ends an all-zero instance.
        assert COIN_PREFIX == (1, 0)
        for slot in range(50):
            assert common_coin(slot, 0) == 1
            assert common_coin(slot, 1) == 0

    def test_seeded_rounds_are_deterministic_and_take_both_values(self):
        points = [(slot, rnd) for slot in range(10) for rnd in range(2, 12)]
        flips = [common_coin(slot, rnd) for slot, rnd in points]
        assert flips == [common_coin(slot, rnd) for slot, rnd in points]
        assert set(flips) == {0, 1}
        # ... and not merely as a function of the round: termination needs
        # every slot's own sequence to hit both faces.
        for slot in range(10):
            assert {common_coin(slot, rnd) for rnd in range(2, 22)} == {0, 1}


class TestMessages:
    def test_type_names_are_registered_wire_names(self):
        assert ConsEst(slot=0, round=0, value=1).type_name == "CONS_EST"
        assert ConsAux(slot=0, round=0, value=1).type_name == "CONS_AUX"
        assert ConsCoin(slot=0, round=0, value=0).type_name == "CONS_COIN"
        assert ConsDecide(slot=0, value=1).type_name == "CONS_DECIDE"

    def test_control_and_data_bits_are_positive(self):
        for message in (
            ConsEst(slot=3, round=2, value=1, cand=[0, "cas", ("a", "b")]),
            ConsAux(slot=3, round=2, value=0),
            ConsCoin(slot=3, round=2, value=1),
            ConsDecide(slot=3, value=1, cand=[1, "write", "x"]),
        ):
            assert message.control_bits() > 0
            assert message.data_bits() >= 0

    def test_the_command_is_priced_wherever_it_travels(self):
        command = [0, "cas", ("a", "b")]
        on_est = ConsEst(slot=3, round=2, value=1, cand=command)
        on_aux = ConsAux(slot=3, round=2, value=1, cand=command)
        assert on_aux.data_bits() == on_est.data_bits() > 0
        assert on_aux.data_bits() == ConsDecide(slot=3, value=1, cand=command).data_bits()
        assert ConsAux(slot=3, round=2, value=0).data_bits() == 0
        # Same control bits, same two-bit type space: the command is data.
        assert on_aux.control_bits() == ConsAux(slot=3, round=2, value=0).control_bits()
        assert on_aux.control_bits() == on_est.control_bits()

    def test_a_coin_share_is_not_priced_through_the_aux(self):
        # ``ConsCoin.data_bits`` was an alias of ``ConsAux``'s (a static 0):
        # pricing the AUX's command must not re-price the shares.
        from repro.sim.network import NetworkStats

        share = ConsCoin(slot=3, round=2, value=1)
        assert share.data_bits() == 0 and not hasattr(share, "cand")
        stats = NetworkStats()
        stats.record_send(0, ConsAux(slot=3, round=2, value=1, cand=[0, "cas", ("a", "b")]))
        priced = stats.data_bits_total
        assert priced > 0
        assert stats.record_send(0, share) == (share.control_bits(), 0)
        assert stats.data_bits_total == priced

    @pytest.mark.parametrize("codec_name", ["binary", "json"])
    @pytest.mark.parametrize("cand", [None, [2, "cas", ["a", "b"]], [0, "incr", 1]])
    def test_an_aux_round_trips_with_and_without_its_command(self, codec_name, cand):
        from repro.transport.codec_binary import make_codec

        codec = make_codec(codec_name)
        message = ConsAux(slot=7, round=1, value=0 if cand is None else 1, cand=cand)
        frame = {"kind": "msg", "key": "k", "src": 1, "dst": 2, "msg": message}
        decoded = codec.decode(codec.encode(frame))["msg"]
        assert decoded == message and type(decoded) is ConsAux
        assert decoded.data_bits() == message.data_bits()


class TestSMRSpec:
    def test_registered_and_routed(self):
        assert isinstance(get_spec("smr"), SMRSpec)
        assert get_spec("register") is None
        for algorithm in CONSENSUS_ALGORITHMS:
            assert algorithm.spec == "smr"
            assert algorithm.name in available_algorithms()
        assert get_algorithm("abd").spec == "register"

    def test_sequential_semantics(self):
        spec = SMRSpec()
        assert spec.is_pure(OpKind.READ) and not spec.is_pure(OpKind.CAS)
        result, state = spec.apply(None, OpKind.CAS, (None, "a"))
        assert result is True and state == "a"
        result, state = spec.apply(state, OpKind.CAS, ("b", "c"))
        assert result is False and state == "a"
        result, state = spec.apply(state, OpKind.READ, None)
        assert result == "a" and state == "a"
        result, state = spec.apply(state, OpKind.WRITE, "w")
        assert result is None and state == "w"
        result, state = spec.apply(state, OpKind.TAS, None)
        assert result == "w" and state is True
        result, state = spec.apply(None, OpKind.INCR, 5)
        assert result == 5 and state == 5


class TestStoreObjectApi:
    def test_cas_chain(self):
        store = consensus_store()
        assert store.cas("k", None, "a") is True
        assert store.cas("k", "wrong", "b") is False
        assert store.get("k") == "a"
        assert store.cas("k", "a", "b") is True
        assert store.get("k") == "b"

    def test_tas_returns_old_value_and_sets_true(self):
        store = consensus_store(algorithm="mmr-tas")
        assert store.tas("lock") is None
        assert store.tas("lock") is True
        assert store.get("lock") is True

    def test_incr_returns_post_increment_value(self):
        store = consensus_store(algorithm="mmr-counter")
        assert store.incr("c") == 1
        assert store.incr("c", 4) == 5
        assert store.get("c") == 5

    def test_writes_and_reads_interleave_with_objects(self):
        store = consensus_store()
        store.put("k", "v1")
        assert store.get("k") == "v1"
        assert store.cas("k", "v1", "v2") is True
        assert store.get("k") == "v2"

    def test_histories_pass_the_smr_checker(self):
        store = consensus_store()
        store.cas("k", None, "a")
        store.put("k", "b")
        store.cas("k", "b", "c")
        store.get("k")
        report = store.check_linearizability(swmr_fast_path=False)
        assert report.ok

    def test_crash_tolerant_with_minority_down(self):
        store = consensus_store()
        store.cas("k", None, "a")
        deployment = store.register_for("k")
        deployment.processes[2].crash()
        assert store.cas("k", "a", "b") is True
        assert store.get("k") == "b"
        assert store.check_linearizability(swmr_fast_path=False).ok


class TestInvariants:
    def test_clean_run_has_no_violations(self):
        store = consensus_store()
        store.cas("k", None, "a")
        store.cas("k", "a", "b")
        processes = list(store.register_for("k").processes)
        assert consensus_invariants({"k": processes}) == []

    def test_agreement_violation_is_reported(self):
        store = consensus_store()
        store.cas("k", None, "a")
        # The call returns when the proposer applies; let the DECIDE relays
        # land so every replica holds the decision the forgery contradicts.
        store.settle()
        processes = list(store.register_for("k").processes)
        # Forge a disagreement on a decided slot: replica 0 flips its record.
        slot = next(iter(processes[0].decided))
        assert all(slot in process.decided for process in processes)
        processes[0].decided[slot] = 1 - processes[0].decided[slot]
        violations = consensus_invariants({"k": processes})
        assert any("agreement" in violation for violation in violations)

    def test_validity_violation_is_reported(self):
        store = consensus_store()
        store.cas("k", None, "a")
        processes = list(store.register_for("k").processes)
        # Forge a decide-1 on a slot no replica has a command for.
        for process in processes:
            process.decided[999] = 1
        violations = consensus_invariants({"k": processes})
        assert any("validity" in violation for violation in violations)


class TestSpecRouting:
    def test_mixed_spec_store_is_rejected(self):
        config = StoreConfig(
            algorithm="abd",
            num_shards=2,
            replication=3,
            shard_algorithms=("abd", "mmr-cas"),
        )
        with pytest.raises(ValueError, match="different sequential specs"):
            config.effective_spec()

    def test_register_stores_keep_the_register_spec(self):
        assert StoreConfig(algorithm="abd").effective_spec() == "register"
        assert StoreConfig(algorithm="mmr-cas", initial_value=None).effective_spec() == "smr"
