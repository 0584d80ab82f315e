"""The Machine facade, services, tracing, metrics, paging integration."""

import pytest

from repro.core.acl import AclEntry, RingBracketSpec
from repro.cpu.faults import Fault, FaultCode
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot
from repro.sim.trace import TraceLog

USER_ACL = [AclEntry("*", RingBracketSpec.procedure(4))]

HELLO = """
        .seg    hello
main::  lda     =42
        eap4    back
        call    l_write,*
back:   halt
l_write: .its   svc$write
"""


def hello_process(machine):
    user = machine.add_user("alice")
    machine.store_program(">udd>alice>hello", HELLO, acl=USER_ACL)
    process = machine.login(user)
    machine.initiate(process, ">udd>alice>hello")
    return process


class TestMachineFacade:
    def test_quickstart_flow(self, machine):
        process = hello_process(machine)
        result = machine.run(process, "hello$main", ring=4)
        assert result.halted
        assert result.console == [42]
        assert result.ring == 4
        assert result.ring_crossings == 2

    def test_run_result_counters(self, machine):
        process = hello_process(machine)
        result = machine.run(process, "hello$main", ring=4)
        assert result.instructions > 0
        assert result.cycles > result.instructions

    def test_store_data(self, machine):
        user = machine.add_user("u")
        machine.store_data(
            ">d", [1, 2, 3], acl=[AclEntry("*", RingBracketSpec.data(4))]
        )
        process = machine.login(user)
        segno = machine.initiate(process, ">d")
        sdw = process.dseg.get(segno)
        assert machine.memory.peek_block(sdw.addr, 3) == [1, 2, 3]

    def test_services_gate_extension_limit(self, machine):
        """Rings 6-7 have no access to supervisor gates (paper p. 35)."""
        source = HELLO.replace("RingBracketSpec", "")  # no-op guard
        user = machine.add_user("u")
        machine.store_program(
            ">t>p",
            HELLO.replace(".seg    hello", ".seg    p"),
            acl=[AclEntry("*", RingBracketSpec.procedure(6))],
        )
        process = machine.login(user)
        machine.initiate(process, ">t>p")
        with pytest.raises(Fault) as excinfo:
            machine.run(process, "p$main", ring=6)
        assert excinfo.value.code is FaultCode.ACV_OUTSIDE_CALL_BRACKET

    def test_services_bump_counter_persists(self, machine):
        src = HELLO.replace("svc$write", "svc$bump")
        user = machine.add_user("u")
        machine.store_program(">t>p", src.replace("hello", "prog"), acl=USER_ACL)
        process = machine.login(user)
        machine.initiate(process, ">t>p")
        first = machine.run(process, "prog$main", ring=4)
        second = machine.run(process, "prog$main", ring=4)
        assert (first.a, second.a) == (1, 2)

    def test_user_cannot_touch_svcdata_directly(self, machine):
        """The bump counter is reachable only through the gate."""
        src = """
        .seg    prog
main::  lda     l_counter,*
        halt
l_counter: .its svcdata$counter
"""
        user = machine.add_user("u")
        machine.store_program(">t>prog", src, acl=USER_ACL)
        process = machine.login(user)
        machine.initiate(process, ">t>prog")
        with pytest.raises(Fault) as excinfo:
            machine.run(process, "prog$main", ring=4)
        assert excinfo.value.code is FaultCode.ACV_READ_BRACKET


class TestPagedMachine:
    def test_program_runs_identically_paged(self):
        """Paging is transparent to protection (paper p. 7): identical
        results, more cycles."""
        plain = Machine(paged=False)
        paged = Machine(paged=True)
        results = {}
        for key, machine in (("plain", plain), ("paged", paged)):
            process = hello_process(machine)
            results[key] = machine.run(process, "hello$main", ring=4)
        assert results["plain"].console == results["paged"].console == [42]
        assert results["plain"].a == results["paged"].a
        assert results["paged"].cycles > results["plain"].cycles

    def test_missing_page_serviced_transparently(self):
        machine = Machine(paged=True)
        process = hello_process(machine)
        # unmap a page of the hello segment after initiation
        active = machine.supervisor.activate(">udd>alice>hello")
        active.placed.page_table.unmap_page(0)
        machine.processor.invalidate_sdw(active.segno)
        result = machine.run(process, "hello$main", ring=4)
        assert result.halted
        assert result.console == [42]
        assert result.faults >= 1  # the page fault was serviced


class TestTraceAndMetrics:
    def test_trace_captures_instructions(self, machine):
        process = hello_process(machine)
        trace = TraceLog()
        trace.attach(machine.processor)
        machine.run(process, "hello$main", ring=4)
        trace.detach()
        text = trace.render()
        assert "CALL" in text
        assert "RETURN" in text

    def test_trace_limit(self, machine):
        trace = TraceLog(limit=2)
        trace.note("one")
        trace.note("two")
        trace.note("three")
        assert len(trace) == 2

    def test_metrics_snapshot_delta(self, machine):
        process = hello_process(machine)
        before = MetricsSnapshot.collect(machine.processor)
        machine.run(process, "hello$main", ring=4, reset_counters=False)
        after = MetricsSnapshot.collect(machine.processor)
        delta = after.delta(before)
        assert delta["instructions"] > 0
        assert delta["calls"] == 1
        assert delta["returns"] == 1
        assert delta["ring_crossings"] == 2

    def test_reset_run_reports_its_end_state_once(self, machine):
        """With counters reset, the run's figures are its end state:
        both result fields carry the one collected snapshot."""
        process = hello_process(machine)
        machine.run(process, "hello$main", ring=4)
        result = machine.run(process, "hello$main", ring=4)
        assert result.run_metrics == result.metrics
        assert result.metrics == MetricsSnapshot.collect(machine.processor)
        assert result.run_metrics.calls == 1

    def test_accumulating_run_reports_the_true_delta(self, machine):
        """Without a reset, ``run_metrics`` is still the run's own
        figure: the same as the same run on a machine that reset."""
        process = hello_process(machine)
        machine.run(process, "hello$main", ring=4)
        second = machine.run(
            process, "hello$main", ring=4, reset_counters=False
        )
        reference = Machine()
        ref_process = hello_process(reference)
        reference.run(ref_process, "hello$main", ring=4)
        expected = reference.run(ref_process, "hello$main", ring=4)
        assert second.run_metrics == expected.run_metrics
        assert second.metrics == MetricsSnapshot.collect(machine.processor)
        assert second.metrics.calls == 2
        assert second.run_metrics != second.metrics

    def test_sdw_cache_metrics_flow(self, machine):
        process = hello_process(machine)
        machine.run(process, "hello$main", ring=4)
        snap = MetricsSnapshot.collect(machine.processor)
        assert snap.sdw_hits > 0
