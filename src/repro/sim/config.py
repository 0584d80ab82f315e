"""Validated machine configuration.

``Machine.__init__`` accepts a dozen knobs whose legal combinations
are constrained by the tier stack (the trace tier records through the
superblock tier, which rides the fast-path PTLB) and by the hardening
extensions.  Some of those constraints were historically enforced deep
inside ``Processor`` and others not at all; :class:`MachineConfig`
makes the whole matrix explicit, rejects contradictory combinations
with a clear error *before* any machine state is built, and gives the
serving and snapshot layers a single serializable description of a
machine's shape.

Use ``Machine.from_config(MachineConfig(...))`` or call
:meth:`MachineConfig.validate` directly.  :meth:`MachineConfig.serving`
is the shape every served machine has (worker, session tenant, replica,
replayer), and :meth:`MachineConfig.as_dict` is both a snapshot's
``config`` block and a durability slot's config record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Iterable, Optional

from ..cpu.processor import CostModel
from ..errors import ConfigurationError
from ..hardening import HardeningConfig

#: selectable serving profiles: ``ringed`` runs the paper's ring
#: hardware; ``baseline645`` runs the GE-645 trap machine, where every
#: ring crossing is completed by the software assist.  Protection
#: verdicts are identical (validation precedes the trap); only the
#: crossing cost differs — which is exactly what the live A/B measures.
MACHINE_PROFILES = ("ringed", "baseline645")


def profile_of(hardware_rings: bool) -> str:
    """The serving profile a machine with (or without) ring hardware runs."""
    return "ringed" if hardware_rings else "baseline645"


#: the knobs of :class:`MachineConfig` that change architectural
#: results (everything else picks host tiers or install-time content)
ARCHITECTURAL_KNOBS = (
    "memory_words",
    "hardware_rings",
    "stack_rule",
    "paged",
    "lazy_linking",
    "cost",
    "hardening",
)


@dataclass(frozen=True)
class MachineConfig:
    """Every construction knob of :class:`~repro.sim.machine.Machine`.

    Defaults match ``Machine.__init__`` exactly; ``None`` for the tier
    knobs means "follow the tier below", as documented there.
    """

    memory_words: int = 1 << 18
    hardware_rings: bool = True
    stack_rule: str = "dbr"
    paged: bool = False
    lazy_linking: bool = False
    cost: Optional[CostModel] = None
    sdw_cache_slots: int = 16
    sdw_cache_enabled: bool = True
    fast_path_enabled: bool = True
    block_tier_enabled: Optional[bool] = None
    jit_tier_enabled: Optional[bool] = None
    fast_gate: bool = False
    services: bool = True
    hardening: HardeningConfig = field(default_factory=HardeningConfig)

    @classmethod
    def serving(
        cls,
        profile: str = "ringed",
        hardening: Iterable[str] = (),
        **knobs: Any,
    ) -> "MachineConfig":
        """The validated shape of a served machine.

        Serving machines run the full tier stack — the trace-compile
        tier plus the fast-gate entry path, so repeat (user, gate)
        calls skip re-validation — and install programs on demand, not
        the supervisor services.  Architectural figures are identical
        either way.
        """
        if profile not in MACHINE_PROFILES:
            raise ConfigurationError(
                f"unknown machine profile {profile!r}; expected one of "
                f"{MACHINE_PROFILES}"
            )
        return cls(
            hardware_rings=profile == "ringed",
            hardening=HardeningConfig.from_flags(hardening),
            jit_tier_enabled=True,
            fast_gate=True,
            services=False,
            **knobs,
        ).validate()

    @property
    def profile(self) -> str:
        """The serving profile name of this shape."""
        return profile_of(self.hardware_rings)

    @classmethod
    def of(cls, machine: Any) -> "MachineConfig":
        """The shape a live machine was built with, host tiers resolved.

        ``services`` reads False: once built, installed services are
        file-system content, not shape.
        """
        proc = machine.processor
        sup = machine.supervisor
        return cls(
            memory_words=machine.memory.size,
            hardware_rings=proc.hardware_rings,
            stack_rule=proc.stack_rule,
            paged=sup.paged,
            lazy_linking=sup.lazy_linking,
            cost=proc.cost,
            sdw_cache_slots=proc.sdw_cache.slots,
            sdw_cache_enabled=proc.sdw_cache.enabled,
            fast_path_enabled=proc.access_cache.enabled,
            block_tier_enabled=proc.block_cache.enabled,
            jit_tier_enabled=proc.jit_cache.enabled,
            fast_gate=machine.fast_gate,
            services=False,
            hardening=proc.hardening,
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON form, the inverse of :meth:`from_dict`."""
        data = self.machine_kwargs()
        cost = self.cost or CostModel()
        data["cost"] = {
            name: getattr(cost, name) for name in cost.__dataclass_fields__
        }
        data["hardening"] = self.hardening.as_dict()
        return data

    @cached_property
    def architecture(self) -> Dict[str, Any]:
        """The knobs that decide architectural results, JSON-shaped
        (computed once per config; treat it as read-only).

        Two machines that agree here run any journal to the same
        results; the host tiers they leave out are invisible by
        contract.
        """
        data = self.as_dict()
        return {knob: data[knob] for knob in ARCHITECTURAL_KNOBS}

    def require_architecture(self, other: "MachineConfig", what: str) -> None:
        """Refuse to run ``what``, made on ``other``, on this machine
        unless the two agree architecturally
        (:class:`~repro.errors.ConfigurationError` names the knobs)."""
        mine, theirs = self.architecture, other.architecture
        if mine != theirs:
            differs = ", ".join(
                f"{knob} {theirs[knob]!r} (this machine {mine[knob]!r})"
                for knob in ARCHITECTURAL_KNOBS
                if mine[knob] != theirs[knob]
            )
            raise ConfigurationError(
                f"{what} was made on a different machine ({differs}); "
                "refusing to run it on this one"
            )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MachineConfig":
        """Rebuild a config from :meth:`as_dict` output or a snapshot's
        ``config`` block.  Knobs older snapshots lack default to off:
        the trace tier, fast gate, hardening — and ``services``, which
        a snapshot never records."""
        return cls(
            memory_words=data["memory_words"],
            hardware_rings=data["hardware_rings"],
            stack_rule=data["stack_rule"],
            paged=data["paged"],
            lazy_linking=data["lazy_linking"],
            cost=CostModel(**data["cost"]),
            sdw_cache_slots=data["sdw_cache_slots"],
            sdw_cache_enabled=data["sdw_cache_enabled"],
            fast_path_enabled=data["fast_path_enabled"],
            block_tier_enabled=data["block_tier_enabled"],
            jit_tier_enabled=data.get("jit_tier_enabled", False),
            fast_gate=data.get("fast_gate", False),
            services=data.get("services", False),
            hardening=HardeningConfig.from_dict(data.get("hardening", {})),
        )

    def validate(self) -> "MachineConfig":
        """Reject contradictory knob combinations; returns self.

        The tier constraints mirror the hardware metaphor: each host
        tier is built on the one below it, so enabling a tier whose
        foundation is explicitly disabled is a contradiction, not a
        preference.
        """
        if self.memory_words <= 0:
            raise ConfigurationError(
                f"memory_words must be positive, got {self.memory_words}"
            )
        if self.sdw_cache_slots <= 0:
            raise ConfigurationError(
                f"sdw_cache_slots must be positive, got {self.sdw_cache_slots}"
            )
        if self.stack_rule not in ("simple", "dbr"):
            raise ConfigurationError(
                f"unknown stack rule {self.stack_rule!r}; "
                "expected 'simple' or 'dbr'"
            )
        block = (
            self.fast_path_enabled
            if self.block_tier_enabled is None
            else self.block_tier_enabled
        )
        if block and not self.fast_path_enabled:
            raise ConfigurationError(
                "block_tier_enabled=True requires fast_path_enabled=True: "
                "the superblock tier rides the fast-path PTLB"
            )
        if self.jit_tier_enabled:
            if not self.fast_path_enabled:
                raise ConfigurationError(
                    "jit_tier_enabled=True requires fast_path_enabled=True: "
                    "the trace tier records through superblock dispatch, "
                    "which rides the fast-path PTLB"
                )
            if not block:
                raise ConfigurationError(
                    "jit_tier_enabled=True requires the superblock tier: "
                    "block_tier_enabled must not be False"
                )
        if not isinstance(self.hardening, HardeningConfig):
            raise ConfigurationError(
                "hardening must be a HardeningConfig, got "
                f"{type(self.hardening).__name__}"
            )
        return self

    def machine_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for ``Machine(**...)``."""
        return {
            "memory_words": self.memory_words,
            "hardware_rings": self.hardware_rings,
            "stack_rule": self.stack_rule,
            "paged": self.paged,
            "lazy_linking": self.lazy_linking,
            "cost": self.cost,
            "sdw_cache_slots": self.sdw_cache_slots,
            "sdw_cache_enabled": self.sdw_cache_enabled,
            "fast_path_enabled": self.fast_path_enabled,
            "block_tier_enabled": self.block_tier_enabled,
            "jit_tier_enabled": self.jit_tier_enabled,
            "fast_gate": self.fast_gate,
            "services": self.services,
            "hardening": self.hardening,
        }
