"""One MachineConfig from gateway to replica.

The gateway derives a single validated :class:`MachineConfig` and every
engine it causes to exist — workers, replicas, and the replayer that
rebuilds a slot later — runs that machine.  Each durability slot
records the config it was created with; resume, replay and replicas
build the slot's engine from the record, and anything configured for a
different machine is refused instead of replaying onto it.
"""

import asyncio
import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.serve.admission import RingPolicy
from repro.serve.gateway import GatewayConfig, RingGateway
from repro.serve.loadgen import run_load
from repro.serve.standby import StandbyConfig, StandbyServer
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.state.recover import CONFIG_NAME, recover_slot

#: the serving knobs that used to be refused with replicas or sessions
MACHINES = [
    pytest.param({"machine_profile": "baseline645"}, id="baseline645"),
    pytest.param({"hardening": ("auth_return_stack",)}, id="auth_return"),
]


def gateway_config(tmp_path, **overrides):
    defaults = dict(
        port=0,
        workers=1,
        backend="thread",
        call_timeout=60.0,
        drain_timeout=60.0,
        default_policy=RingPolicy(rate=None, max_pending=64),
        durability_dir=str(tmp_path / "durable"),
        fsync_every=1,
    )
    defaults.update(overrides)
    return GatewayConfig(**defaults)


async def serve_calls(config, calls=6, after=None):
    """Serve ``calls`` legal calls (plus an attack that faults on every
    machine), then run ``after(gateway)`` before the drain."""
    gateway = RingGateway(config)
    await gateway.start()
    try:
        report = await run_load(
            "127.0.0.1", gateway.port, sessions=1, calls=calls,
            program="call_loop", args={"count": 2},
        )
        assert report.check() == [], report.check()
        attack = await run_load(
            "127.0.0.1", gateway.port, sessions=1, calls=2,
            program="attack", args={"family": "gate_skip", "seed": 5},
            expect_fault="ACV_NOT_GATE",
        )
        assert attack.check() == [], attack.check()
        return await after(gateway) if after else report
    finally:
        await gateway.stop()


def slot_dir(tmp_path):
    return str(tmp_path / "durable" / "slots" / "slot-0")


class TestDurableReplicas:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_replica_runs_the_primary_machine(self, tmp_path, machine):
        config = gateway_config(tmp_path, replicas=1, ship_every=2, **machine)

        async def after(gateway):
            for _ in range(250):
                stats = gateway.stats_payload()
                followers = stats["replication"]["followers"]
                if followers and all(
                    f["applied_seq"] == f["journal_seq"] == 8
                    for f in followers
                ):
                    break
                await asyncio.sleep(0.02)
            else:
                pytest.fail(f"replica never caught up: {followers}")
            assert all(f["error"] is None for f in followers)
            (follower,) = gateway._replicas._followers
            applier = follower.server.applier_for(0)
            assert (
                applier.log.engine.total.architectural()
                == stats["architectural"]
            )
            return applier

        applier = asyncio.run(serve_calls(config, after=after))
        assert MachineConfig.of(applier.log.engine.machine) == MachineConfig.of(
            Machine.from_config(config.machine())
        )


class TestVerifiedReplay:
    @pytest.mark.parametrize("machine", MACHINES)
    def test_replay_verify_uses_the_slot_record(
        self, tmp_path, machine, capsys
    ):
        config = gateway_config(tmp_path, checkpoint_interval=3, **machine)
        asyncio.run(serve_calls(config))
        capsys.readouterr()
        assert main(["replay", slot_dir(tmp_path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "replayed 8 journaled call(s)" in out
        assert "verified 8 outcome(s)" in out

    def test_record_holds_the_gateway_machine(self, tmp_path):
        config = gateway_config(tmp_path, machine_profile="baseline645")
        asyncio.run(serve_calls(config, calls=1))
        with open(os.path.join(slot_dir(tmp_path), CONFIG_NAME)) as handle:
            recorded = json.load(handle)
        assert recorded == config.machine().as_dict()
        assert recorded["hardware_rings"] is False


class TestConfigRecordRefusals:
    def test_restart_with_another_profile_is_refused(self, tmp_path):
        asyncio.run(
            serve_calls(
                gateway_config(tmp_path, machine_profile="baseline645"),
                calls=2,
            )
        )

        async def restart():
            gateway = RingGateway(gateway_config(tmp_path))
            try:
                await gateway.start()
            finally:
                await gateway.stop()

        with pytest.raises(ConfigurationError, match="hardware_rings"):
            asyncio.run(restart())
        # the slot was not touched: its own machine still resumes it
        recovery = recover_slot(slot_dir(tmp_path))
        assert recovery.log.engine.machine.processor.hardware_rings is False
        assert recovery.log.engine.calls == 2

    def test_standby_with_another_machine_is_refused(self, tmp_path):
        config = gateway_config(tmp_path, hardening=("nx_brackets",))
        asyncio.run(serve_calls(config, calls=1))
        standby = StandbyServer(
            StandbyConfig(dir=str(tmp_path / "durable")),
            machine=MachineConfig.serving(),
        )
        with pytest.raises(ConfigurationError, match="hardening"):
            standby.applier_for(0)
        # without a machine of its own, a standby adopts the record
        adopted = StandbyServer(StandbyConfig(dir=str(tmp_path / "durable")))
        applier = adopted.applier_for(0)
        assert applier.log.engine.machine.processor.nx_brackets


class TestParkedTenantMachine:
    """A session store outlives its gateway; a tenant parked on one
    machine never runs (or is reported as running) on another."""

    def session_config(self, tmp_path, **machine):
        return gateway_config(
            tmp_path,
            durability_dir=None,
            max_sessions=2,
            session_store_dir=str(tmp_path / "store"),
            **machine,
        )

    async def load(self, config, **expect):
        gateway = RingGateway(config)
        await gateway.start()
        try:
            return await run_load(
                "127.0.0.1", gateway.port, sessions=1, calls=2,
                program="call_loop", args={"count": 2}, **expect,
            )
        finally:
            await gateway.stop()  # the drain parks every live tenant

    def test_another_machine_is_refused_at_start(self, tmp_path):
        """The store records its machine, so a gateway serving another
        one is refused before it serves anything."""
        first = asyncio.run(self.load(self.session_config(tmp_path)))
        assert first.check() == [], first.check()
        with open(tmp_path / "store" / CONFIG_NAME) as handle:
            assert json.load(handle)["hardware_rings"] is True

        async def start():
            gateway = RingGateway(
                self.session_config(tmp_path, machine_profile="baseline645")
            )
            try:
                await gateway.start()
            finally:
                await gateway.stop()

        with pytest.raises(ConfigurationError, match="hardware_rings"):
            asyncio.run(start())
        # the refused gateway left the store as it was
        again = asyncio.run(self.load(self.session_config(tmp_path)))
        assert again.check() == [], again.check()
        assert again.hydrated == 1

    def test_hardened_gateway_refuses_an_unhardened_tenant(self, tmp_path):
        first = asyncio.run(self.load(self.session_config(tmp_path)))
        assert first.check() == [], first.check()
        # a store written before stores recorded their machine: only
        # the tenant's own snapshot names the machine it was parked on
        os.unlink(tmp_path / "store" / CONFIG_NAME)
        again = asyncio.run(
            self.load(
                self.session_config(
                    tmp_path, hardening=("auth_return_stack",)
                )
            )
        )
        assert again.ok == 0
        assert again.errors == 2
        (detail, *_) = again.error_details
        assert detail["response"]["error"] == "internal"
        assert "different machine" in detail["response"]["detail"]
        assert "hardening" in detail["response"]["detail"]

    def test_the_same_machine_hydrates(self, tmp_path):
        hardened = self.session_config(
            tmp_path, hardening=("auth_return_stack",)
        )
        asyncio.run(self.load(hardened))
        again = asyncio.run(
            self.load(hardened, expect_hardening=["auth_return_stack"])
        )
        assert again.check() == [], again.check()
        assert again.hydrated == 1

    def test_stamp_reads_the_tenant_machine(self, tmp_path, monkeypatch):
        """The profile and flags on a session result come from the
        machine that ran the call, not from the pool's config."""
        import threading

        from repro.serve import sessions, workers

        config = sessions.SessionConfig(
            max_live=1,
            machine=MachineConfig.serving(
                memory_words=sessions.TENANT_MEMORY_WORDS
            ),
        )
        # bind this thread as shard 0's worker, for this test only
        monkeypatch.setattr(workers, "_LOCAL", threading.local())
        workers.bind_worker(config, 0)
        pool = workers.worker_state()
        tenant, _ = pool._admit("u")
        tenant.log.engine.machine = Machine.from_config(
            MachineConfig.serving(
                "baseline645",
                ("auth_return_stack",),
                memory_words=sessions.TENANT_MEMORY_WORDS,
            )
        )
        out = sessions.execute_session_call(
            {
                "user": "u", "ring": 4, "program": "echo",
                "args": {"value": 1}, "call_id": "c0",
            }
        )
        assert out["machine_profile"] == "baseline645"
        assert out["hardening"] == ["auth_return_stack"]


class TestSlotWithoutRecord:
    """A durability slot written before config records existed names
    its machine only through its snapshot."""

    def legacy_slot(self, tmp_path, calls=3):
        config = gateway_config(
            tmp_path, machine_profile="baseline645", checkpoint_interval=2
        )
        asyncio.run(serve_calls(config, calls=calls))
        os.unlink(os.path.join(slot_dir(tmp_path), CONFIG_NAME))
        return config

    def test_binding_another_machine_is_refused_and_leaves_no_record(
        self, tmp_path
    ):
        self.legacy_slot(tmp_path)

        async def restart():
            gateway = RingGateway(gateway_config(tmp_path))
            try:
                await gateway.start()
            finally:
                await gateway.stop()

        with pytest.raises(ConfigurationError, match="hardware_rings"):
            asyncio.run(restart())
        assert not os.path.exists(os.path.join(slot_dir(tmp_path), CONFIG_NAME))

    def test_its_own_machine_binds_and_resumes(self, tmp_path):
        config = self.legacy_slot(tmp_path)
        recovery = recover_slot(slot_dir(tmp_path), config=config.machine())
        assert recovery.snapshot_source == "current"
        assert recovery.log.engine.machine.processor.hardware_rings is False
        with open(os.path.join(slot_dir(tmp_path), CONFIG_NAME)) as handle:
            assert json.load(handle) == config.machine().as_dict()

    def test_snapshot_from_another_machine_is_not_restored(self, tmp_path):
        self.legacy_slot(tmp_path)
        with open(os.path.join(slot_dir(tmp_path), CONFIG_NAME), "w") as out:
            json.dump(MachineConfig.serving().as_dict(), out)
        with pytest.raises(ConfigurationError, match="snapshot"):
            recover_slot(slot_dir(tmp_path))
