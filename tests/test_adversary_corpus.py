"""The adversary subsystem: attack corpus, fault oracle, serving A/B.

Three layers of assurance, mirroring the subsystem's design:

* the **corpus** is deterministic — same seed, same attack programs —
  and every generated attack carries an expected-fault oracle;
* the **harness** proves each attack faults with exactly the oracle's
  code on every execution tier (interpreter, fast path, superblock,
  JIT, fast gate, snapshot-restore-resume), with the full architectural
  figure bit-identical across tiers, on the ringed *and* the software
  (GE 645) profile;
* the **serving catalog** exposes the attacks (and the paper's ported
  ring stories) as gate-call programs, where the only legal outcome of
  an attack call is a ``machine_fault`` response naming the oracle's
  fault code.

Plus the fault-path hygiene the corpus forced: a faulting gate call
must leave no residue — a later legal call produces the same
architectural figure as on a machine that never hosted the attack, the
processor's fault save-stack does not grow across aborted runs, and
``reset_counters`` clears the fault-side diagnostics too.
"""

import asyncio
import functools
import json

import pytest

from repro.adversary.corpus import (
    ATTACK_FAMILIES,
    DEFAULT_SEED,
    HARDENED_FAMILIES,
    build_attack,
    generate_corpus,
)
from repro.adversary.harness import (
    SECURITY_KEYS,
    TIER_NAMES,
    install_attack,
    run_corpus,
    run_entry,
)
from repro.cpu.faults import Fault
from repro.errors import ConfigurationError
from repro.krnl.supervisor import ABORT_LOG_LIMIT
from repro.serve.catalog import KNOWN_ARGS, build_program, install_image
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.loadgen import run_load
from repro.sim.machine import Machine
from repro.sim.metrics import MetricsSnapshot

#: a fast cross-section for full-tier-matrix sweeps: one laundering
#: attack, one forged return, one plain bracket violation, one
#: privileged instruction
SLICE = ("launder_call", "return_forge_gate", "read_bracket", "privileged")


class TestCorpus:
    def test_deterministic(self):
        first = generate_corpus(seed=7, per_family=2)
        second = generate_corpus(seed=7, per_family=2)
        assert [p.summary() for p in first] == [p.summary() for p in second]

    def test_one_program_per_family_per_seed(self):
        corpus = generate_corpus(per_family=1)
        assert len(corpus) == len(ATTACK_FAMILIES)
        assert len({p.name for p in corpus}) == len(corpus)

    def test_seed_changes_programs(self):
        a = generate_corpus(seed=1, per_family=1)
        b = generate_corpus(seed=2, per_family=1)
        assert [p.name for p in a] != [p.name for p in b]

    def test_summary_shape(self):
        program = build_attack("gate_skip", 5, 3)
        summary = program.summary()
        assert summary["family"] == "gate_skip"
        assert summary["expect_code"] == "ACV_NOT_GATE"
        assert summary["ring"] == 3
        assert summary["program_words"] > 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_attack("no_such_family", 1, 4)
        with pytest.raises(ConfigurationError):
            build_attack("read_bracket", 1, 1)  # below MIN_ATTACK_RING
        with pytest.raises(ConfigurationError):
            build_attack("read_bracket", -1, 4)


class TestOracleHarness:
    def test_full_corpus_on_interpreter_and_jit(self):
        report = run_corpus(per_family=1, tiers=("interp", "jit"))
        assert report["ok"], [
            p["problems"] for p in report["programs"] if not p["ok"]
        ]
        assert report["total"] == len(ATTACK_FAMILIES)

    def test_slice_across_every_tier(self):
        report = run_corpus(per_family=1, families=SLICE, tiers=TIER_NAMES)
        assert report["ok"], [
            p["problems"] for p in report["programs"] if not p["ok"]
        ]

    def test_baseline645_fault_identity(self):
        """Software rings fault with the same verdict as the hardware."""
        for family in SLICE:
            program = build_attack(family, DEFAULT_SEED, 4)
            ringed = run_entry(program, "interp", hardware_rings=True)
            soft = run_entry(program, "interp", hardware_rings=False)
            for key in SECURITY_KEYS:
                assert ringed["figure"][key] == soft["figure"][key], (
                    family,
                    key,
                )

    def test_jit_parity_backstop(self, monkeypatch):
        """REPRO_JIT_PARITY=1 co-executes traces; verdicts must hold."""
        monkeypatch.setenv("REPRO_JIT_PARITY", "1")
        report = run_corpus(
            per_family=1, families=("launder_transfer",), tiers=("jit",)
        )
        assert report["ok"], report["programs"][0]["problems"]

    def test_unknown_tier_rejected(self):
        with pytest.raises(ConfigurationError):
            run_corpus(per_family=1, families=SLICE[:1], tiers=("warp",))


class TestFaultPathHygiene:
    MACHINE_KW = dict(services=False, tier="jit", fast_gate=True)

    def test_fault_then_legal_call_cold_figure(self):
        """A hosted attack leaves no residue in later legal figures."""
        tainted = Machine(**self.MACHINE_KW)
        attack = build_attack("nongate_call", 3, 4)
        process = install_attack(tainted, attack)
        with pytest.raises(Fault):
            tainted.run(process, attack.entry, ring=attack.ring)
        entry = install_image(
            tainted, process, build_program("call_loop", {"count": 4})
        )
        result = tainted.run(process, entry, ring=4)
        figure = MetricsSnapshot.collect(tainted.processor).architectural()

        pristine = Machine(**self.MACHINE_KW)
        clean = pristine.login(pristine.add_user("adversary"))
        entry = install_image(
            pristine, clean, build_program("call_loop", {"count": 4})
        )
        expected = pristine.run(clean, entry, ring=4)
        assert result.a == expected.a
        assert (
            figure
            == MetricsSnapshot.collect(pristine.processor).architectural()
        )

    def test_save_stack_does_not_grow_across_aborts(self):
        machine = Machine(**self.MACHINE_KW)
        attack = build_attack("write_bracket", 2, 3)
        process = install_attack(machine, attack)
        depths = []
        for _ in range(3):
            with pytest.raises(Fault):
                machine.run(process, attack.entry, ring=attack.ring)
            depths.append(len(machine.processor._save_stack))
        assert depths[0] == depths[1] == depths[2]

    def test_aborted_faults_bounded(self):
        machine = Machine(**self.MACHINE_KW)
        attack = build_attack("privileged", 9, 3)
        process = install_attack(machine, attack)
        for _ in range(ABORT_LOG_LIMIT + 8):
            with pytest.raises(Fault):
                machine.run(
                    process,
                    attack.entry,
                    ring=attack.ring,
                    reset_counters=False,
                )
        assert len(machine.supervisor.aborted_faults) == ABORT_LOG_LIMIT

    def test_reset_counters_clears_fault_diagnostics(self):
        machine = Machine(**self.MACHINE_KW)
        attack = build_attack("bounds", 11, 3)
        process = install_attack(machine, attack)
        with pytest.raises(Fault):
            machine.run(process, attack.entry, ring=attack.ring)
        assert machine.supervisor.aborted_faults  # the attack is logged
        entry = install_image(
            machine, process, build_program("echo", {"value": 9})
        )
        result = machine.run(process, entry, ring=4)  # reset_counters=True
        assert result.a == 9
        assert machine.supervisor.aborted_faults == []


class TestCatalogStories:
    def test_known_args_are_per_program(self):
        # 'count' belongs to call_loop, not to the stories
        with pytest.raises(ConfigurationError):
            build_program("debug", {"count": 3})
        with pytest.raises(ConfigurationError):
            build_program("attack", {"family": "bounds", "n": 1})
        assert set(KNOWN_ARGS) == {
            "call_loop",
            "compute",
            "echo",
            "mutual_suspicion",
            "proprietary",
            "grading_sandbox",
            "debug",
            "layered",
            "attack",
        }

    def test_attack_requires_family(self):
        with pytest.raises(ConfigurationError):
            build_program("attack", {})

    def test_story_outcomes_standalone(self):
        """Each ported story proves its point on a bare machine."""
        machine = Machine(services=False)
        process = machine.login(machine.add_user("u"))

        entry = install_image(
            machine,
            process,
            build_program("mutual_suspicion", {"attacker_ring": 2}),
        )
        assert machine.run(process, entry, ring=4).a == 0o102

        entry = install_image(
            machine, process, build_program("proprietary", {"value": 5})
        )
        assert machine.run(process, entry, ring=4).a == 27

        entry = install_image(
            machine, process, build_program("grading_sandbox", {"variant": 0})
        )
        assert machine.run(process, entry, ring=4).a == 0  # PASS

        entry = install_image(
            machine, process, build_program("layered", {"n": 1})
        )
        result = machine.run(process, entry, ring=4)
        assert result.a == 1101 and result.ring_crossings == 4

    def test_story_faults_standalone(self):
        machine = Machine(services=False)
        process = machine.login(machine.add_user("u"))
        for name, args, code in (
            ("mutual_suspicion", {"attacker_ring": 3}, "ACV_READ_BRACKET"),
            ("proprietary", {"peek": 1}, "ACV_NO_READ"),
            (
                "grading_sandbox",
                {"variant": 1},
                "ACV_OUTSIDE_CALL_BRACKET",
            ),
            ("layered", {"direct": 1}, "ACV_OUTSIDE_CALL_BRACKET"),
        ):
            entry = install_image(
                machine, process, build_program(name, args)
            )
            with pytest.raises(Fault) as excinfo:
                machine.run(process, entry, ring=4)
            assert excinfo.value.code.name == code, name

    def test_debug_story_ring_decides(self):
        machine = Machine(services=False)
        process = machine.login(machine.add_user("u"))
        entry = install_image(
            machine, process, build_program("debug", {"value": 44})
        )
        with pytest.raises(Fault) as excinfo:
            machine.run(process, entry, ring=5)
        assert excinfo.value.code.name == "ACV_WRITE_BRACKET"
        assert machine.run(process, entry, ring=4).halted

    def test_install_image_idempotent(self):
        machine = Machine(services=False)
        process = machine.login(machine.add_user("u"))
        image = build_program("layered", {"n": 2})
        first = install_image(machine, process, image)
        second = install_image(machine, process, image)
        assert first == second


def _attack_then_legal(config, family, fault, **expect):
    """One attack load, then one single-tenant legal load, on a fresh
    gateway; returns both reports."""

    async def body():
        gateway = RingGateway(config)
        await gateway.start()
        try:
            attack = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=2,
                calls=2,
                program="attack",
                args={"family": family, "seed": 5},
                expect_fault=fault,
                **expect,
            )
            legal = await run_load(
                "127.0.0.1",
                gateway.port,
                sessions=1,
                calls=4,
                program="call_loop",
                args={"count": 2},
                user_prefix="legal",
                **expect,
            )
        finally:
            await gateway.stop()
        return attack, legal

    return asyncio.run(body())


def _assert_sessions_match_classic(config, family, fault, **expect):
    """Session tenants run the gateway's one machine: attacks fault
    identically, and a tenant's legal calls cost exactly what they cost
    on a classic worker.  ``config(**kwargs)`` builds the gateway."""
    classic = _attack_then_legal(config(), family, fault, **expect)
    session = _attack_then_legal(
        config(max_sessions=4), family, fault, **expect
    )
    for attack, legal in (classic, session):
        assert attack.check() == []
        assert attack.expected_faults == attack.sent
        assert attack.unexpected_ok == 0
        assert legal.check() == []
        assert legal.ok == legal.sent
    assert session[1].client_metrics == classic[1].client_metrics
    assert session[1].stats["sessions"]["enabled"] is True


class TestServingAB:
    @staticmethod
    def _config(profile, **kwargs):
        return GatewayConfig(
            port=0,
            workers=1,
            backend="thread",
            call_timeout=30.0,
            drain_timeout=30.0,
            machine_profile=profile,
            **kwargs,
        )

    def _ab(self, profile):
        async def body():
            gateway = RingGateway(self._config(profile))
            await gateway.start()
            try:
                attack = await run_load(
                    "127.0.0.1",
                    gateway.port,
                    sessions=3,
                    calls=2,
                    program="attack",
                    args={"family": "gate_skip", "seed": 5},
                    expect_fault="ACV_NOT_GATE",
                    expect_profile=profile,
                )
                legal = await run_load(
                    "127.0.0.1",
                    gateway.port,
                    sessions=2,
                    calls=2,
                    program="call_loop",
                    args={"count": 2},
                    expect_profile=profile,
                )
            finally:
                await gateway.stop()
            return attack, legal

        return asyncio.run(body())

    @pytest.mark.parametrize("profile", ["ringed", "baseline645"])
    def test_attacks_fault_and_legal_calls_land(self, profile):
        attack, legal = self._ab(profile)
        assert attack.check() == []
        assert attack.expected_faults == attack.sent
        assert attack.unexpected_ok == 0
        assert legal.check() == []
        assert legal.ok == legal.sent

    def test_wrong_expected_profile_is_a_problem(self):
        async def body():
            gateway = RingGateway(self._config("ringed"))
            await gateway.start()
            try:
                report = await run_load(
                    "127.0.0.1",
                    gateway.port,
                    sessions=1,
                    calls=1,
                    program="echo",
                    args={},
                    expect_profile="baseline645",
                )
            finally:
                await gateway.stop()
            return report

        report = asyncio.run(body())
        assert any("profile" in p for p in report.check())

    def test_profile_composes_with_sessions(self):
        _assert_sessions_match_classic(
            functools.partial(self._config, "baseline645"),
            "gate_skip",
            "ACV_NOT_GATE",
            expect_profile="baseline645",
        )

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            RingGateway(
                GatewayConfig(
                    port=0,
                    workers=1,
                    backend="thread",
                    machine_profile="ge635",
                )
            )


class TestHardenedFamilies:
    """The three hardening-gated families and their ablation reports."""

    def test_registry_names_real_families_and_flags(self):
        for family, flag in HARDENED_FAMILIES.items():
            assert family in ATTACK_FAMILIES
            program = build_attack(family, DEFAULT_SEED, 4)
            assert program.hardening == flag
            assert program.unhardened_outcome == "halts"

    def test_classic_families_carry_no_hardening(self):
        for family in SLICE:
            program = build_attack(family, DEFAULT_SEED, 4)
            assert program.hardening is None
            assert program.summary()["hardening"] is None

    def test_harness_report_carries_both_ablation_halves(self):
        report = run_corpus(
            per_family=1,
            families=tuple(HARDENED_FAMILIES),
            tiers=("interp", "jit"),
        )
        assert report["ok"], [
            p["problems"] for p in report["programs"] if not p["ok"]
        ]
        for entry in report["programs"]:
            assert entry["hardening"] == HARDENED_FAMILIES[entry["family"]]
            assert entry["unhardened_outcome"] == "halts"
            # flag-on half hit the oracle fault on every tier...
            for figure in entry["figures"].values():
                assert figure["faulted"]
                assert figure["code"] == entry["expected"]["code"]
            # ...and the flag-off half ran each attack to completion
            assert set(entry["ablation"]) == {"interp", "jit"}
            for figure in entry["ablation"].values():
                assert not figure["faulted"]

    def test_hardened_families_on_baseline645(self):
        report = run_corpus(
            per_family=1,
            families=tuple(HARDENED_FAMILIES),
            tiers=("interp", "jit"),
            hardware_rings=False,
        )
        assert report["ok"], [
            p["problems"] for p in report["programs"] if not p["ok"]
        ]


class TestServingHardened:
    """Hardening as a serving knob: ``--hardening`` on the gateway."""

    @staticmethod
    def _config(hardening, **kwargs):
        return GatewayConfig(
            port=0,
            workers=1,
            backend="thread",
            call_timeout=30.0,
            drain_timeout=30.0,
            hardening=hardening,
            **kwargs,
        )

    def test_hardened_gateway_defeats_its_family(self):
        async def body():
            gateway = RingGateway(self._config(("auth_return_stack",)))
            await gateway.start()
            try:
                attack = await run_load(
                    "127.0.0.1",
                    gateway.port,
                    sessions=2,
                    calls=2,
                    program="attack",
                    args={"family": "auth_return_forge", "seed": 5},
                    expect_fault="ACV_AUTH_RETURN",
                    expect_hardening=["auth_return_stack"],
                )
                legal = await run_load(
                    "127.0.0.1",
                    gateway.port,
                    sessions=2,
                    calls=2,
                    program="call_loop",
                    args={"count": 2},
                    expect_hardening=["auth_return_stack"],
                )
            finally:
                await gateway.stop()
            return attack, legal

        attack, legal = asyncio.run(body())
        assert attack.check() == []
        assert attack.expected_faults == attack.sent
        assert attack.unexpected_ok == 0
        assert legal.check() == []
        assert legal.ok == legal.sent

    def test_unhardened_gateway_lets_the_family_through(self):
        """The same attack served without the flag runs to completion —
        the live half of the ablation story."""

        async def body():
            gateway = RingGateway(self._config(()))
            await gateway.start()
            try:
                return await run_load(
                    "127.0.0.1",
                    gateway.port,
                    sessions=1,
                    calls=2,
                    program="attack",
                    args={"family": "auth_return_forge", "seed": 5},
                    expect_hardening=[],
                )
            finally:
                await gateway.stop()

        report = asyncio.run(body())
        assert report.check() == []
        assert report.ok == report.sent
        assert report.expected_faults == 0

    def test_wrong_expected_hardening_is_a_problem(self):
        async def body():
            gateway = RingGateway(self._config(("nx_brackets",)))
            await gateway.start()
            try:
                return await run_load(
                    "127.0.0.1",
                    gateway.port,
                    sessions=1,
                    calls=1,
                    program="echo",
                    args={},
                    expect_hardening=["auth_return_stack"],
                )
            finally:
                await gateway.stop()

        report = asyncio.run(body())
        assert any("hardening" in p for p in report.check())

    def test_hardening_composes_with_sessions(self):
        _assert_sessions_match_classic(
            functools.partial(self._config, ("auth_return_stack",)),
            "auth_return_forge",
            "ACV_AUTH_RETURN",
            expect_hardening=["auth_return_stack"],
        )

    def test_unknown_hardening_flag_rejected(self):
        with pytest.raises(ConfigurationError):
            RingGateway(self._config(("shadow_stack",)))


class TestAdversaryDumpCLI:
    """``repro adversary dump``: the oracle is visible without running."""

    def test_json_carries_the_full_oracle(self, capsys):
        from repro.cli import main

        assert main(["adversary", "dump", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(ATTACK_FAMILIES)
        by_family = {p["family"]: p for p in payload["programs"]}
        assert set(by_family) == set(ATTACK_FAMILIES)
        for summary in by_family.values():
            for key in (
                "expect_ring",
                "expect_segment",
                "hardening",
                "unhardened_outcome",
                "domains",
            ):
                assert key in summary, (summary["family"], key)
        forge = by_family["auth_return_forge"]
        assert forge["hardening"] == "auth_return_stack"
        assert forge["expect_code"] == "ACV_AUTH_RETURN"
        assert isinstance(forge["expect_ring"], int)
        assert isinstance(forge["expect_segment"], str)
        breach = by_family["domain_breach"]
        assert breach["hardening"] == "ring_domains"
        assert len(breach["domains"]) == 1
        # classic families: oracle fields present, hardening absent
        assert by_family["read_bracket"]["hardening"] is None

    def test_table_shows_oracle_columns(self, capsys):
        from repro.cli import main

        assert main(["adversary", "dump"]) == 0
        out = capsys.readouterr().out
        header = out.splitlines()[1]
        for column in ("at ring", "at segment", "needs flag"):
            assert column in header
        assert "auth_return_stack" in out
        assert "ring_domains" in out
        assert "nx_brackets" in out
