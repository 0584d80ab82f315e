"""MachineConfig: the validated description of a machine's shape.

``Machine.__init__`` accepts a dozen knobs; ``MachineConfig.validate``
rejects malformed values with a clear error before any machine state
is built.  Pinned here:

* defaults mirror ``Machine.__init__`` exactly (a default config builds
  a machine identical to ``Machine()``);
* every execution tier builds, and an unknown tier name is refused;
* records written with the three tier flags that preceded ``tier``
  still read, by the rules they were written under;
* ``Machine.from_config`` validates and builds.
"""

import pytest

from repro.cpu.jit import parity_requested
from repro.cpu.processor import TIERS
from repro.errors import ConfigurationError
from repro.hardening import HardeningConfig
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.state.snapshot import restore_machine, snapshot_machine


class TestDefaults:
    def test_default_config_is_valid(self):
        MachineConfig().validate()

    def test_default_config_builds_a_default_machine(self):
        built = Machine.from_config(MachineConfig())
        plain = Machine()
        assert built.fast_gate == plain.fast_gate
        assert built.processor.hardware_rings == plain.processor.hardware_rings
        assert (
            built.processor.access_cache.enabled
            is plain.processor.access_cache.enabled
        )
        assert built.hardening == plain.hardening

    def test_machine_kwargs_cover_every_machine_knob(self):
        import inspect

        knobs = set(inspect.signature(Machine.__init__).parameters) - {
            "self"
        }
        assert set(MachineConfig().machine_kwargs()) == knobs


class TestRejections:
    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"memory_words": 0}, "memory_words"),
            ({"memory_words": -5}, "memory_words"),
            ({"sdw_cache_slots": 0}, "sdw_cache_slots"),
            ({"stack_rule": "tower"}, "stack rule"),
            ({"tier": "turbo"}, "execution tier"),
            ({"tier": "JIT"}, "execution tier"),
            # a harness mode, not a tier
            ({"tier": "fast_gate"}, "execution tier"),
            ({"hardening": "auth_return_stack"}, "HardeningConfig"),
        ],
    )
    def test_contradiction_rejected_with_clear_error(self, kwargs, fragment):
        with pytest.raises(ConfigurationError) as excinfo:
            MachineConfig(**kwargs).validate()
        assert fragment in str(excinfo.value)

    def test_from_config_validates(self):
        with pytest.raises(ConfigurationError):
            Machine.from_config(MachineConfig(tier="turbo"))

    def test_from_config_rejects_non_config(self):
        with pytest.raises(TypeError):
            Machine.from_config({"memory_words": 1024})


class TestTiers:
    @pytest.mark.parametrize("tier", TIERS)
    def test_every_tier_builds(self, tier):
        machine = Machine.from_config(MachineConfig(tier=tier))
        processor = machine.processor
        level = TIERS.index(tier)
        assert MachineConfig.of(machine).tier == processor.tier == tier
        assert processor.access_cache.enabled is (level >= 1)
        assert processor.inst_cache.enabled is (level >= 1)
        assert processor.block_cache.enabled is (level >= 2)
        assert processor.jit_cache.enabled is (level >= 3)

    def test_default_tier_is_block_or_jit_under_parity(self):
        expected = "jit" if parity_requested() else "block"
        assert Machine().processor.tier == expected
        assert MachineConfig.of(Machine()).tier == expected

    def test_serving_runs_the_trace_tier(self):
        assert MachineConfig.serving().tier == "jit"

    @pytest.mark.parametrize("tier", TIERS)
    def test_tier_round_trips_through_a_record(self, tier):
        record = MachineConfig(tier=tier).as_dict()
        assert MachineConfig.from_dict(record).tier == tier


def legacy_record(fast_path, block, jit):
    """A config record as written before ``tier`` existed."""
    data = MachineConfig().as_dict()
    del data["tier"]
    data.update(
        fast_path_enabled=fast_path,
        block_tier_enabled=block,
        jit_tier_enabled=jit,
    )
    return data


class TestLegalMatrix:
    """Every (fast_path, block, jit) triple a legacy record could carry
    and a machine could be built from still reads; None follows the
    tier below, and an unset trace flag is off."""

    LEGAL = {
        (False, None, None): "interp",
        (False, False, False): "interp",
        (False, False, None): "interp",
        (True, None, None): "block",
        (True, False, False): "fast_path",
        (True, True, None): "block",
        (True, True, True): "jit",
        (True, None, True): "jit",
    }

    @pytest.mark.parametrize("fast_path,block,jit", list(LEGAL))
    def test_legal_tier_combinations_build(self, fast_path, block, jit):
        config = MachineConfig.from_dict(legacy_record(fast_path, block, jit))
        assert config.tier == self.LEGAL[fast_path, block, jit]
        machine = Machine.from_config(config)
        assert machine.processor.access_cache.enabled is fast_path

    def test_hardened_config_builds_hardened_machine(self):
        config = MachineConfig(
            hardening=HardeningConfig.from_flags(
                ["auth_return_stack", "nx_brackets"]
            )
        )
        machine = Machine.from_config(config)
        assert machine.processor.auth_stack is not None
        assert machine.processor.nx_brackets
        assert machine.processor.domains is None

    def test_jit_none_with_fast_path_off_is_legal(self):
        """None means 'follow the tier below' — never a contradiction."""
        config = MachineConfig.from_dict(legacy_record(False, None, None))
        machine = Machine.from_config(config)
        assert machine.processor.access_cache.enabled is False


class TestLegacyRecords:
    @pytest.mark.parametrize(
        "triple,tier",
        [
            ((False, False, False), "interp"),
            ((True, False, False), "fast_path"),
            ((True, True, False), "block"),
            ((True, True, True), "jit"),
        ],
    )
    def test_resolved_triples(self, triple, tier):
        """What ``MachineConfig.of`` wrote: every flag resolved."""
        assert MachineConfig.from_dict(legacy_record(*triple)).tier == tier

    def test_serving_record(self):
        """A durability slot's machine.json: the block flag unset."""
        record = legacy_record(True, None, True)
        record["fast_gate"] = True
        config = MachineConfig.from_dict(record)
        assert config.tier == "jit"
        assert config.fast_gate

    def test_absent_trace_flag_is_off(self):
        """Snapshots older than the trace tier lack its flag."""
        record = legacy_record(True, True, None)
        del record["jit_tier_enabled"]
        assert MachineConfig.from_dict(record).tier == "block"

    def test_old_snapshot_restores(self):
        machine = Machine(services=False, tier="fast_path")
        snap = snapshot_machine(machine)
        snap["config"] = legacy_record(True, False, None)
        snap["config"]["nrings"] = machine.processor.nrings
        assert restore_machine(snap).processor.tier == "fast_path"

    def test_contradictory_triple_refused(self):
        with pytest.raises(ConfigurationError) as excinfo:
            MachineConfig.from_dict(legacy_record(True, False, True))
        assert "jit_tier_enabled=True" in str(excinfo.value)
