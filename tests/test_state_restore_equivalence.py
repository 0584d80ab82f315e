"""Restore equivalence: checkpoint mid-run, restore, continue — and land
on figures bit-identical to the uninterrupted run.

This is the contract that makes the durability subsystem usable for the
reproduction: a snapshot+restore must be architecturally invisible, in
every execution tier, the same way the host fast path and the
superblock tier are.  Two granularities are pinned:

* **mid-instruction-stream** — stop a machine after k instructions of a
  gate-calling program, snapshot, restore into a fresh machine (on
  every execution tier), run to HALT, and compare
  every architectural figure plus console and final registers;
* **call-boundary** — run a worker engine through a prefix of a gate
  call sequence, snapshot, restore, run the suffix, and compare each
  suffix call's full result and the cumulative totals against an
  uninterrupted engine.
"""

import pytest

from repro.core.acl import AclEntry, RingBracketSpec
from repro.cpu.processor import TIERS
from repro.errors import MachineHalted
from repro.hardening import HARDENING_FLAGS, HardeningConfig
from repro.serve.workers import GateCallEngine
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot
from repro.state.snapshot import restore_machine, snapshot_machine

USER_ACL = [AclEntry("*", RingBracketSpec.procedure(4))]


GATE_PROGRAM = """
        .seg    sample
        .gates  1
main::  lda     =42
        eap4    back
        call    l_write,*
back:   ada     =1
        eap4    back2
        call    l_write,*
back2:  halt
l_write: .its   svc$write
"""


def start_sample(paged):
    machine = Machine(paged=paged)
    user = machine.add_user("operator")
    machine.store_program(">t>sample", GATE_PROGRAM, acl=USER_ACL)
    process = machine.login(user)
    machine.initiate(process, ">t>sample")
    machine.start(process, "sample$main", 4)
    return machine


def run_to_halt(machine):
    machine.processor.run(max_steps=100_000)


def figures(machine):
    processor = machine.processor
    return {
        "architectural": MetricsSnapshot.collect(processor).architectural(),
        "console": list(machine.console),
        "ring": processor.registers.ipr.ring,
        "a": processor.registers.a,
        "q": processor.registers.q,
        "halted": processor.halted,
    }


class TestMidStreamEquivalence:
    @pytest.mark.parametrize("paged", [False, True])
    @pytest.mark.parametrize("steps", [1, 3, 6, 10])
    def test_checkpoint_restore_continue_is_invisible(self, paged, steps):
        baseline = start_sample(paged)
        run_to_halt(baseline)
        expected = figures(baseline)

        interrupted = start_sample(paged)
        for _ in range(steps):
            try:
                interrupted.processor.step()
            except MachineHalted:
                break
        snap = snapshot_machine(interrupted)
        for tier in TIERS:
            restored = restore_machine(snap, tier=tier)
            run_to_halt(restored)
            assert figures(restored) == expected, (
                f"divergence after restore at step {steps} on tier {tier}"
            )

    def test_double_checkpoint_is_invisible(self):
        baseline = start_sample(paged=False)
        run_to_halt(baseline)
        expected = figures(baseline)

        interrupted = start_sample(paged=False)
        interrupted.processor.step()
        hop1 = restore_machine(snapshot_machine(interrupted))
        for _ in range(3):
            hop1.processor.step()
        hop2 = restore_machine(snapshot_machine(hop1))
        run_to_halt(hop2)
        assert figures(hop2) == expected


class TestHardenedRestoreEquivalence:
    """Snapshot/restore is invisible to the hardening extensions too:
    the flags, the key seed, the domain bindings, and — hardest — a
    MAC chain captured mid-call all survive the hop bit-identically."""

    @staticmethod
    def _start(hardening):
        machine = Machine(hardening=hardening)
        user = machine.add_user("operator")
        machine.store_program(">t>sample", GATE_PROGRAM, acl=USER_ACL)
        process = machine.login(user)
        machine.initiate(process, ">t>sample")
        machine.start(process, "sample$main", 4)
        return machine

    @pytest.mark.parametrize("flag", HARDENING_FLAGS)
    def test_each_flag_survives_the_hop(self, flag):
        hardening = HardeningConfig.from_flags([flag], auth_key_seed=77)
        baseline = self._start(hardening)
        run_to_halt(baseline)
        expected = figures(baseline)

        interrupted = self._start(hardening)
        for _ in range(4):
            interrupted.processor.step()
        restored = restore_machine(snapshot_machine(interrupted))
        assert restored.hardening == hardening
        run_to_halt(restored)
        assert figures(restored) == expected

    def test_mid_mac_chain_checkpoint_continues_bit_identically(self):
        """Snapshot inside a downward call — chain depth 1 — restore,
        and the upward return must verify against the restored chain."""
        hardening = HardeningConfig.from_flags(["auth_return_stack"])
        baseline = self._start(hardening)
        run_to_halt(baseline)
        expected = figures(baseline)

        interrupted = self._start(hardening)
        while len(interrupted.processor.auth_stack) == 0:
            interrupted.processor.step()
        # mid-chain: the CALL pushed its MAC frame, the RETURN has not
        # verified it yet
        chain = interrupted.processor.auth_stack.snapshot()
        assert chain
        restored = restore_machine(snapshot_machine(interrupted))
        assert restored.processor.auth_stack.snapshot() == chain
        run_to_halt(restored)
        assert figures(restored) == expected

    def test_restored_chain_rejects_tampering(self):
        """A snapshot with a doctored MAC chain fails the return."""
        from repro.cpu.faults import Fault, FaultCode

        interrupted = self._start(
            HardeningConfig.from_flags(["auth_return_stack"])
        )
        while len(interrupted.processor.auth_stack) == 0:
            interrupted.processor.step()
        snap = snapshot_machine(interrupted)
        snap["processor"]["hardening"]["auth_chain"][-1] ^= 1
        restored = restore_machine(snap)
        with pytest.raises(Fault) as excinfo:
            run_to_halt(restored)
        assert excinfo.value.code is FaultCode.ACV_AUTH_RETURN

    def test_domain_bindings_survive_the_hop(self):
        hardening = HardeningConfig.from_flags(["ring_domains"])
        machine = Machine(hardening=hardening)
        user = machine.add_user("operator")
        machine.store_program(">t>sample", GATE_PROGRAM, acl=USER_ACL)
        machine.assign_domain("sample", "appdomain")
        process = machine.login(user)
        machine.initiate(process, ">t>sample")
        segno = machine.supervisor.active_by_name["sample"].segno
        assert machine.processor.domains.domain_of(segno) == "appdomain"
        restored = restore_machine(snapshot_machine(machine))
        assert restored.processor.domains.domain_of(segno) == "appdomain"
        assert (
            restored.processor.domains.by_name
            == machine.processor.domains.by_name
        )


JOBS = [
    {"user": "alice", "ring": 4, "program": "call_loop", "args": {"count": 3}},
    {"user": "bob", "ring": 5, "program": "compute", "args": {"n": 40}},
    {"user": "alice", "ring": 4, "program": "echo", "args": {"value": 9}},
    {"user": "alice", "ring": 4, "program": "call_loop", "args": {"count": 5}},
    {"user": "carol", "ring": 5, "program": "compute", "args": {"n": 25}},
    {"user": "bob", "ring": 4, "program": "echo", "args": {"value": -3}},
]


def architectural_part(result):
    """A call result without its host-tier counters."""
    if "metrics" not in result:
        return result
    metrics = result["metrics"]
    return {
        "payload": result["payload"],
        "metrics": {
            name: metrics[name] for name in MetricsSnapshot.ARCHITECTURAL
        },
    }


class TestCallBoundaryEquivalence:
    @pytest.mark.parametrize("split", [1, 3, 5])
    def test_engine_resumes_bit_identically(self, split):
        # The reference drops its host caches at the split, as
        # JournaledEngine.checkpoint does in production: a restored
        # engine starts with every host tier and bank empty.
        straight = GateCallEngine()
        expected = [straight.run_job(dict(job)) for job in JOBS[:split]]
        straight.machine.processor.drop_host_caches()
        expected += [straight.run_job(dict(job)) for job in JOBS[split:]]
        # Without the drop, host-tier counters may differ (banks kept
        # across tenant switches stay warm) but the machine does not.
        undropped = GateCallEngine()
        kept = [undropped.run_job(dict(job)) for job in JOBS]

        prefix = GateCallEngine()
        for job in JOBS[:split]:
            prefix.run_job(dict(job))
        snap = snapshot_machine(
            prefix.machine, extra={"engine": prefix.bookkeeping()}
        )
        resumed = GateCallEngine.from_snapshot(snap)
        assert resumed.calls == prefix.calls
        assert resumed.total == prefix.total
        suffix = [resumed.run_job(dict(job)) for job in JOBS[split:]]
        assert suffix == expected[split:]
        assert resumed.total == straight.total
        assert resumed.calls == straight.calls
        assert (
            MetricsSnapshot.collect(resumed.machine.processor).architectural()
            == MetricsSnapshot.collect(
                straight.machine.processor
            ).architectural()
        )
        assert [architectural_part(r) for r in kept[split:]] == [
            architectural_part(r) for r in suffix
        ]
        assert undropped.total.architectural() == resumed.total.architectural()
        assert (
            MetricsSnapshot.collect(
                undropped.machine.processor
            ).architectural()
            == MetricsSnapshot.collect(
                resumed.machine.processor
            ).architectural()
        )
