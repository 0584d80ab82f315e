"""The hardening-extensions subsystem: three ablatable machine flags.

Each extension closes a gap the 1971 ring hardware leaves open, and
each is off by default — the plain machine reproduces the paper
unchanged.  The layers pinned here:

* the **primitives** (the MAC-chained return stack, the domain map, the
  config object) behave correctly in isolation;
* each extension **defeats its attack** and faults with its own code,
  on the ringed and the software (GE 645) profile alike;
* legal workloads — cross-ring call loops, the layered-supervisor
  story — run to completion with every flag on: hardening rejects
  forgeries, not customers;
* verdicts and architectural figures are **bit-identical across host
  tiers** with a flag on, and the flags are architecturally visible
  (the MAC cycle charge) but host-tier invisible, like everything else
  in the machine.
"""

import pytest

from repro.adversary.corpus import build_attack
from repro.adversary.harness import install_attack
from repro.cpu.faults import Fault, FaultCode
from repro.errors import ConfigurationError
from repro.hardening import (
    DEFAULT_AUTH_KEY_SEED,
    HARDENING_FLAGS,
    AuthReturnStack,
    DomainMap,
    HardeningConfig,
)
from repro.serve.catalog import build_program, install_image
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot


class TestAuthReturnStack:
    def test_push_verify_pop_roundtrip(self):
        stack = AuthReturnStack(DEFAULT_AUTH_KEY_SEED)
        stack.push(4, 12, 7)
        stack.push(3, 14, 2)
        assert len(stack) == 2
        assert stack.verify(3, 14, 2)
        stack.pop()
        assert stack.verify(4, 12, 7)
        stack.pop()
        assert len(stack) == 0

    def test_verify_fails_on_empty_chain(self):
        stack = AuthReturnStack(1)
        assert not stack.verify(4, 12, 7)

    @pytest.mark.parametrize("forged", [(5, 12, 7), (4, 13, 7), (4, 12, 8)])
    def test_verify_rejects_any_field_forgery(self, forged):
        stack = AuthReturnStack(1)
        stack.push(4, 12, 7)
        assert not stack.verify(*forged)
        assert stack.verify(4, 12, 7)  # verify does not consume

    def test_chain_tamper_detected(self):
        stack = AuthReturnStack(1)
        stack.push(4, 12, 7)
        stack.push(3, 14, 2)
        chain = stack.snapshot()
        chain[-1] ^= 1  # flip one MAC bit
        tampered = AuthReturnStack(1)
        tampered.restore(chain)
        assert not tampered.verify(3, 14, 2)

    def test_macs_are_chained(self):
        """The same frame yields a different MAC at a different depth."""
        stack = AuthReturnStack(1)
        stack.push(4, 12, 7)
        first = stack.peek()[-1]
        stack.push(4, 12, 7)
        assert stack.peek()[-1] != first

    def test_key_seed_changes_macs(self):
        a, b = AuthReturnStack(1), AuthReturnStack(2)
        a.push(4, 12, 7)
        b.push(4, 12, 7)
        assert a.peek()[-1] != b.peek()[-1]

    def test_snapshot_restore_roundtrip(self):
        stack = AuthReturnStack(9)
        stack.push(4, 12, 7)
        stack.push(2, 3, 1)
        copy = AuthReturnStack(9)
        copy.restore(stack.snapshot())
        assert copy.verify(2, 3, 1)
        copy.pop()
        assert copy.verify(4, 12, 7)

    def test_clear(self):
        stack = AuthReturnStack(1)
        stack.push(4, 12, 7)
        stack.clear()
        assert len(stack) == 0
        assert stack.peek() == ()


class TestDomainMap:
    def test_assign_register_lookup(self):
        domains = DomainMap()
        domains.assign("vault_seg", "vault")
        domains.register(12, "vault_seg")
        assert domains.domain_of(12) == "vault"
        assert domains.domain_of(13) is None

    def test_register_of_unassigned_name_is_noop(self):
        domains = DomainMap()
        domains.register(12, "common_seg")
        assert domains.domain_of(12) is None

    def test_table_constructor(self):
        domains = DomainMap((("a", "d1"), ("b", "d2")))
        domains.register(1, "a")
        domains.register(2, "b")
        assert domains.domain_of(1) == "d1"
        assert domains.domain_of(2) == "d2"

    def test_snapshot_restore_roundtrip(self):
        domains = DomainMap((("a", "d1"),))
        domains.register(5, "a")
        copy = DomainMap()
        copy.restore(domains.snapshot())
        assert copy.domain_of(5) == "d1"
        assert copy.by_name == domains.by_name


class TestHardeningConfig:
    def test_default_is_plain_1971_machine(self):
        config = HardeningConfig()
        assert not config.enabled
        assert config.enabled_flags() == ()

    def test_from_flags(self):
        config = HardeningConfig.from_flags(["nx_brackets", "ring_domains"])
        assert config.enabled
        assert set(config.enabled_flags()) == {"nx_brackets", "ring_domains"}

    def test_unknown_flag_rejected(self):
        with pytest.raises(ConfigurationError):
            HardeningConfig.from_flags(["w_xor_x"])

    def test_domains_require_ring_domains(self):
        with pytest.raises(ConfigurationError):
            HardeningConfig(domains=(("seg", "vault"),))
        config = HardeningConfig(
            ring_domains=True, domains=(("seg", "vault"),)
        )
        assert config.domain_table() == {"seg": "vault"}

    def test_bad_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            HardeningConfig(auth_key_seed=-1)

    def test_dict_roundtrip(self):
        config = HardeningConfig(
            auth_return_stack=True,
            ring_domains=True,
            domains=(("a", "d"),),
            auth_key_seed=7,
        )
        assert HardeningConfig.from_dict(config.as_dict()) == config

    def test_flag_registry_matches_config_fields(self):
        config = HardeningConfig()
        for flag in HARDENING_FLAGS:
            assert hasattr(config, flag)


def _run_attack(family, hardening, hardware_rings=True, **machine_kw):
    program = build_attack(family, 1971, 4)
    machine = Machine(
        services=False,
        hardware_rings=hardware_rings,
        hardening=hardening,
        **machine_kw,
    )
    process = install_attack(machine, program)
    try:
        result = machine.run(process, program.entry, ring=program.ring)
    except Fault as fault:
        return program, fault
    return program, result


class TestExtensionsDefeatTheirAttacks:
    CASES = [
        ("auth_return_forge", "auth_return_stack", FaultCode.ACV_AUTH_RETURN),
        ("domain_breach", "ring_domains", FaultCode.ACV_DOMAIN),
        ("wx_execute", "nx_brackets", FaultCode.ACV_NX),
    ]

    @pytest.mark.parametrize("family,flag,code", CASES)
    @pytest.mark.parametrize("hardware_rings", [True, False])
    def test_flag_on_faults_flag_off_succeeds(
        self, family, flag, code, hardware_rings
    ):
        program = build_attack(family, 1971, 4)
        hardened = HardeningConfig.from_flags([flag], domains=program.domains)
        _, outcome = _run_attack(
            family, hardened, hardware_rings=hardware_rings
        )
        assert isinstance(outcome, Fault) and outcome.code is code
        _, outcome = _run_attack(
            family, HardeningConfig(), hardware_rings=hardware_rings
        )
        assert not isinstance(outcome, Fault) and outcome.halted

    @pytest.mark.parametrize("family,flag,code", CASES)
    def test_only_the_matching_flag_defeats_it(self, family, flag, code):
        """The other two extensions leave the attack winning."""
        program = build_attack(family, 1971, 4)
        others = [f for f in HARDENING_FLAGS if f != flag]
        mismatched = HardeningConfig.from_flags(others)
        _, outcome = _run_attack(family, mismatched)
        assert not isinstance(outcome, Fault) and outcome.halted

    def test_domain_wall_is_one_directional(self):
        """Domained code may read common segments; not vice versa."""
        machine = Machine(
            services=False,
            hardening=HardeningConfig.from_flags(["ring_domains"]),
        )
        user = machine.add_user("u")
        from repro.core.acl import AclEntry, RingBracketSpec

        source = """
        .seg    reader
main::  lda     l_c,*
        halt
l_c:    .its    commondata
"""
        machine.store_program(
            ">t>reader",
            source,
            acl=[AclEntry("*", RingBracketSpec.procedure(1, top=5))],
        )
        machine.store_data(
            ">t>commondata",
            [123],
            acl=[AclEntry("*", RingBracketSpec.data(5))],
        )
        machine.assign_domain("reader", "vault")
        process = machine.login(user)
        machine.initiate(process, ">t>reader")
        machine.initiate(process, ">t>commondata")
        result = machine.run(process, "reader$main", ring=4)
        assert result.a == 123  # vault -> common: allowed


class TestLegalWorkloadsUnderHardening:
    ALL_ON = HardeningConfig.from_flags(list(HARDENING_FLAGS))

    @pytest.mark.parametrize("hardware_rings", [True, False])
    def test_call_loop_runs_with_every_flag_on(self, hardware_rings):
        machine = Machine(
            services=False,
            hardware_rings=hardware_rings,
            hardening=self.ALL_ON,
        )
        process = machine.login(machine.add_user("u"))
        entry = install_image(
            machine, process, build_program("call_loop", {"count": 4})
        )
        result = machine.run(process, entry, ring=4)
        assert result.halted
        # the ringed profile counts hardware crossings; baseline645
        # completes each crossing in the software assist, as a fault
        crossings = result.ring_crossings if hardware_rings else result.faults
        assert crossings == 8

    def test_layered_story_nests_the_mac_chain(self):
        """Ring 4 -> 1 -> 0 and back: two chained frames, both verify."""
        machine = Machine(services=False, hardening=self.ALL_ON)
        process = machine.login(machine.add_user("u"))
        entry = install_image(
            machine, process, build_program("layered", {"n": 1})
        )
        result = machine.run(process, entry, ring=4)
        assert result.a == 1101 and result.ring_crossings == 4
        assert len(machine.processor.auth_stack) == 0  # fully unwound

    def test_mac_charge_is_architectural(self):
        """auth_return_stack costs auth_mac_cycles per crossing pair."""

        def cycles(hardening):
            machine = Machine(services=False, hardening=hardening)
            process = machine.login(machine.add_user("u"))
            entry = install_image(
                machine, process, build_program("call_loop", {"count": 8})
            )
            return machine.run(process, entry, ring=4).cycles

        plain = cycles(HardeningConfig())
        authed = cycles(HardeningConfig.from_flags(["auth_return_stack"]))
        charge = Machine(services=False).processor.cost.auth_mac_cycles
        # one charge per frame, at the downward-call push; verification
        # overlaps the return's crossing sequence
        assert authed - plain == 8 * charge

    def test_checks_are_host_tier_invisible(self):
        """Flag-on figures are bit-identical interp vs full tier stack."""

        def figure(**tier_kw):
            machine = Machine(
                services=False, hardening=self.ALL_ON, **tier_kw
            )
            process = machine.login(machine.add_user("u"))
            entry = install_image(
                machine, process, build_program("call_loop", {"count": 6})
            )
            machine.run(process, entry, ring=4)
            return MetricsSnapshot.collect(machine.processor).architectural()

        interp = figure(tier="interp")
        jit = figure(tier="jit")
        assert interp == jit

    def test_fresh_start_clears_stale_mac_frames(self):
        """An aborted run's chain must not vouch for the next run."""
        machine = Machine(
            services=False,
            hardening=HardeningConfig.from_flags(["auth_return_stack"]),
        )
        process = machine.login(machine.add_user("u"))
        entry = install_image(
            machine, process, build_program("call_loop", {"count": 2})
        )
        machine.run(process, entry, ring=4)
        machine.processor.auth_stack.push(4, 1, 1)  # simulate leftover
        result = machine.run(process, entry, ring=4)
        assert result.halted
        assert len(machine.processor.auth_stack) == 0


class TestFaultCodes:
    def test_new_codes_are_distinct_access_violations(self):
        codes = {
            FaultCode.ACV_AUTH_RETURN,
            FaultCode.ACV_DOMAIN,
            FaultCode.ACV_NX,
        }
        assert len(codes) == 3
        for code in codes:
            assert code.fclass.name == "ACCESS_VIOLATION"
