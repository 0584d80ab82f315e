"""Validated machine configuration.

``Machine.__init__`` accepts a dozen knobs; :class:`MachineConfig`
names them all, rejects malformed values with a clear error *before*
any machine state is built, and gives the serving and snapshot layers
a single serializable description of a machine's shape.  The host
execution tiers are one ordered knob, ``tier`` (see
:data:`~repro.cpu.processor.TIERS`), so no combination of them can
contradict another.

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

from ..cpu.processor import TIERS, CostModel, resolve_tier
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


#: the flags that named a machine's tier before ``tier`` existed
_LEGACY_TIER_FLAGS = (
    "fast_path_enabled",
    "block_tier_enabled",
    "jit_tier_enabled",
)


def _legacy_tier(data: Dict[str, Any]) -> str:
    """The tier named by a record written with :data:`_LEGACY_TIER_FLAGS`.

    An unset block flag follows the fast path and an unset (or absent)
    trace flag is off, as when those records were written.  A flag
    set on a tier whose foundation is off never built a machine, so it
    is refused here too.
    """
    fast = bool(data["fast_path_enabled"])
    block = data["block_tier_enabled"]
    block = fast if block is None else bool(block)
    jit = bool(data.get("jit_tier_enabled"))
    if (block and not fast) or (jit and not block):
        raise ConfigurationError(
            "contradictory tier flags: "
            + ", ".join(
                f"{name}={data.get(name)}" for name in _LEGACY_TIER_FLAGS
            )
        )
    return TIERS[fast + block + jit]


@dataclass(frozen=True)
class MachineConfig:
    """Every construction knob of :class:`~repro.sim.machine.Machine`.

    Defaults match ``Machine.__init__`` exactly; ``tier=None`` picks
    the default tier, as documented there.
    """

    memory_words: int = 1 << 18
    hardware_rings: bool = True
    stack_rule: str = "dbr"
    paged: bool = False
    lazy_linking: bool = False
    cost: Optional[CostModel] = None
    sdw_cache_slots: int = 16
    sdw_cache_enabled: bool = True
    tier: Optional[str] = None
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
            tier="jit",
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
            tier=proc.tier,
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
        fast gate, hardening — and ``services``, which a snapshot never
        records.  A record written before ``tier`` existed names its
        tier with three flags instead (see :func:`_legacy_tier`)."""
        return cls(
            memory_words=data["memory_words"],
            hardware_rings=data["hardware_rings"],
            stack_rule=data["stack_rule"],
            paged=data["paged"],
            lazy_linking=data["lazy_linking"],
            cost=CostModel(**data["cost"]),
            sdw_cache_slots=data["sdw_cache_slots"],
            sdw_cache_enabled=data["sdw_cache_enabled"],
            tier=data["tier"] if "tier" in data else _legacy_tier(data),
            fast_gate=data.get("fast_gate", False),
            services=data.get("services", False),
            hardening=HardeningConfig.from_dict(data.get("hardening", {})),
        )

    def validate(self) -> "MachineConfig":
        """Reject malformed knob values; returns self."""
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
        resolve_tier(self.tier)
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
            "tier": self.tier,
            "fast_gate": self.fast_gate,
            "services": self.services,
            "hardening": self.hardening,
        }
