"""Fault-oracle harness: attack every execution tier, expect the fault.

The repo's exactness contract says every host-side tier — interpreter,
fast path, superblocks, compiled traces, fast-gate entry, and a
snapshot/restore hop — reproduces the interpreter's architectural
figures bit-for-bit.  This harness extends the contract into negative
space: a hostile program must *fault*, with the same fault code, the
same validation ring, the same target segment, the same fault word,
and bit-identical architectural counters, no matter which tier was
executing when the violating reference was made.  The corpus programs
carry seeded warmup loops so the violating instruction hits with the
superblock and trace caches already hot — the attack lands on the
optimized path, not the cold interpreter.

``run_entry`` executes one corpus program under one tier configuration
and returns its *fault figure*; ``run_corpus`` sweeps programs × tiers,
checks every figure against the program's oracle, and checks the
figures against each other for bit-identity.  The ``fast_gate`` tier
additionally re-runs the program on the warm attach path and asserts
the *security* figure (fault code / class / rings / segment) is
unchanged — host cache metadata may differ on the repeat, the verdict
may not.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..cpu.faults import Fault
from ..cpu.processor import TIERS
from ..errors import ConfigurationError, MachineHalted
from ..hardening import HardeningConfig
from ..sim.machine import Machine
from ..sim.metrics import MetricsSnapshot
from ..state.snapshot import restore_machine, snapshot_machine
from .corpus import DEFAULT_SEED, AttackProgram, generate_corpus

#: tier name -> Machine knob overrides.  Ordering is the report order;
#: the first tier (pure interpreter) is the reference figure.
TIER_CONFIGS: Dict[str, Dict[str, Any]] = {
    **{name: {"tier": name} for name in TIERS},
    "fast_gate": {"tier": "jit", "fast_gate": True},
    # snapshot mid-warmup, restore into a fresh machine, resume to the
    # fault — the durability hop must not perturb the verdict either
    "restore": {"tier": "jit"},
}

TIER_NAMES: Tuple[str, ...] = tuple(TIER_CONFIGS)

#: instruction count at which the ``restore`` tier takes its snapshot —
#: inside the warmup loop (every corpus warmup runs >= 2*MIN_WARMUP
#: instructions), well before the violating reference
SNAPSHOT_STEP = 9

#: figure keys that must survive a warm fast-gate repeat unchanged;
#: host-visible detail (fault word, counters) may shift because the
#: repeat deliberately skips re-attachment
SECURITY_KEYS = ("faulted", "code", "fclass", "ring", "cur_ring", "segment")

#: tiers swept by the flag-off ablation half of a hardened program's
#: check — one interpreted, one compiled; enough to show the attack
#: *succeeds* without the extension and does so bit-identically
ABLATION_TIERS: Tuple[str, ...] = ("interp", "jit")

_MAX_STEPS = 200_000


def _program_hardening(program: AttackProgram) -> HardeningConfig:
    """The machine flags a corpus program expects to be defeated by."""
    if program.hardening is None:
        return HardeningConfig()
    return HardeningConfig.from_flags(
        [program.hardening], domains=program.domains
    )


def install_attack(
    machine: Machine, program: AttackProgram, user: str = "adversary"
):
    """Store and initiate ``program`` on ``machine``; returns the process."""
    account = machine.add_user(user)
    for path, source, acl in program.segments:
        machine.store_program(path, source, acl=list(acl))
    for path, values, acl in program.data_segments:
        machine.store_data(path, list(values), acl=list(acl))
    for name, domain in program.domains:
        # a no-op unless the machine was built with ring_domains; done
        # before initiation so every tier validates under the binding
        machine.assign_domain(name, domain)
    process = machine.login(account)
    for path, _, _ in program.segments:
        machine.initiate(process, path)
    for path, _, _ in program.data_segments:
        machine.initiate(process, path)
    return process


def _segment_name(machine: Machine, segno: Optional[int]) -> Optional[str]:
    if segno is None:
        return None
    active = machine.supervisor.active_by_segno.get(segno)
    if active is None:
        return None
    return active.path.split(">")[-1]


def _figure(machine: Machine, fault: Optional[Fault]) -> Dict[str, Any]:
    counters = MetricsSnapshot.collect(machine.processor).architectural()
    if fault is None:
        return {
            "faulted": False,
            "code": None,
            "fclass": None,
            "ring": None,
            "cur_ring": None,
            "segment": None,
            "wordno": None,
            "detail": None,
            "counters": counters,
        }
    return {
        "faulted": True,
        "code": fault.code.name,
        "fclass": fault.code.fclass.name,
        "ring": fault.ring,
        "cur_ring": fault.cur_ring,
        "segment": _segment_name(machine, fault.segno),
        "wordno": fault.wordno,
        "detail": fault.detail,
        "counters": counters,
    }


def _run_to_verdict(machine: Machine, process, program: AttackProgram):
    """One ``machine.run`` of the attack; the fault (or None if it won)."""
    try:
        machine.run(
            process, program.entry, ring=program.ring, max_steps=_MAX_STEPS
        )
    except Fault as fault:
        return fault
    return None


def _run_restore_tier(
    program: AttackProgram,
    hardware_rings: bool,
    hardening: HardeningConfig,
) -> Dict[str, Any]:
    machine = Machine(
        services=False,
        hardware_rings=hardware_rings,
        hardening=hardening,
        **TIER_CONFIGS["jit"],
    )
    process = install_attack(machine, program)
    machine.start(process, program.entry, program.ring)
    machine.processor.reset_counters()
    for _ in range(SNAPSHOT_STEP):
        try:
            machine.processor.step()
        except (Fault, MachineHalted):
            # a corpus program never faults inside its warmup; if one
            # somehow does, the plain figure is still the verdict
            return _figure(machine, None)
    restored = restore_machine(snapshot_machine(machine))
    try:
        restored.processor.run(max_steps=_MAX_STEPS)
    except Fault as fault:
        return _figure(restored, fault)
    return _figure(restored, None)


def run_entry(
    program: AttackProgram,
    tier: str,
    hardware_rings: bool = True,
    hardening: Optional[HardeningConfig] = None,
) -> Dict[str, Any]:
    """Run one corpus program under one tier; returns its fault figure.

    ``hardening=None`` (the default) builds the machine with whatever
    extension the program names in ``program.hardening`` — a plain 1971
    machine for the classic families.  Pass an explicit
    ``HardeningConfig()`` to force the flag *off* (the ablation
    direction) or any other config to probe mismatched flags.

    The result carries the figure under ``"figure"``; for the
    ``fast_gate`` tier it also carries ``"repeat"`` — the figure of a
    second, warm-path run of the same attack on the same machine.
    """
    if tier not in TIER_CONFIGS:
        raise ConfigurationError(
            f"unknown tier {tier!r}; expected one of {list(TIER_CONFIGS)}"
        )
    if hardening is None:
        hardening = _program_hardening(program)
    if tier == "restore":
        return {
            "tier": tier,
            "figure": _run_restore_tier(program, hardware_rings, hardening),
            "repeat": None,
        }
    machine = Machine(
        services=False,
        hardware_rings=hardware_rings,
        hardening=hardening,
        **TIER_CONFIGS[tier],
    )
    process = install_attack(machine, program)
    figure = _figure(machine, _run_to_verdict(machine, process, program))
    repeat = None
    if tier == "fast_gate":
        repeat = _figure(machine, _run_to_verdict(machine, process, program))
    return {"tier": tier, "figure": figure, "repeat": repeat}


def _check_oracle(
    program: AttackProgram, tier: str, figure: Dict[str, Any]
) -> Iterable[str]:
    if not figure["faulted"]:
        yield f"{tier}: attack did NOT fault (ran to completion)"
        return
    if figure["code"] != program.expect_code.name:
        yield (
            f"{tier}: fault code {figure['code']} != expected "
            f"{program.expect_code.name}"
        )
    if figure["fclass"] != program.expect_class.name:
        yield (
            f"{tier}: fault class {figure['fclass']} != expected "
            f"{program.expect_class.name}"
        )
    if (
        program.expect_ring is not None
        and figure["ring"] != program.expect_ring
    ):
        yield (
            f"{tier}: validation ring {figure['ring']} != expected "
            f"{program.expect_ring}"
        )
    if (
        program.expect_segment is not None
        and figure["segment"] != program.expect_segment
    ):
        yield (
            f"{tier}: fault segment {figure['segment']!r} != expected "
            f"{program.expect_segment!r}"
        )


def check_program(
    program: AttackProgram,
    tiers: Sequence[str] = TIER_NAMES,
    hardware_rings: bool = True,
) -> Dict[str, Any]:
    """Sweep one program across ``tiers``; oracle + bit-identity report.

    For a hardened program (``program.hardening`` set) the sweep runs
    both halves of the ablation: the tier matrix above with the named
    flag *on* (must hit the oracle fault), then :data:`ABLATION_TIERS`
    with the flag *off* — where the attack must come out the other way
    (``program.unhardened_outcome``), again bit-identically, proving
    the fault is the extension's doing and nothing else's.
    """
    problems = []
    figures: Dict[str, Dict[str, Any]] = {}
    reference_tier: Optional[str] = None
    for tier in tiers:
        result = run_entry(program, tier, hardware_rings=hardware_rings)
        figure = result["figure"]
        figures[tier] = figure
        problems.extend(_check_oracle(program, tier, figure))
        if reference_tier is None:
            reference_tier = tier
        elif figure != figures[reference_tier]:
            diverging = sorted(
                key
                for key in figure
                if figure[key] != figures[reference_tier][key]
            )
            problems.append(
                f"{tier}: figure diverges from {reference_tier} on "
                f"{diverging}"
            )
        if result["repeat"] is not None:
            for key in SECURITY_KEYS:
                if result["repeat"][key] != figure[key]:
                    problems.append(
                        f"{tier}: warm repeat changed {key}: "
                        f"{figure[key]!r} -> {result['repeat'][key]!r}"
                    )
    ablation: Dict[str, Dict[str, Any]] = {}
    if program.hardening is not None:
        flag_off = HardeningConfig()
        off_reference: Optional[str] = None
        for tier in ABLATION_TIERS:
            figure = run_entry(
                program,
                tier,
                hardware_rings=hardware_rings,
                hardening=flag_off,
            )["figure"]
            ablation[tier] = figure
            if program.unhardened_outcome == "halts":
                if figure["faulted"]:
                    problems.append(
                        f"{tier} (flag off): attack faulted with "
                        f"{figure['code']}; without {program.hardening} "
                        "it should have run to completion"
                    )
            elif figure["faulted"] and (
                figure["code"] == program.expect_code.name
            ):
                problems.append(
                    f"{tier} (flag off): attack still faulted with the "
                    f"hardened code {figure['code']}; the fault is not "
                    f"{program.hardening}'s doing"
                )
            if off_reference is None:
                off_reference = tier
            elif figure != ablation[off_reference]:
                diverging = sorted(
                    key
                    for key in figure
                    if figure[key] != ablation[off_reference][key]
                )
                problems.append(
                    f"{tier} (flag off): figure diverges from "
                    f"{off_reference} on {diverging}"
                )
    return {
        "name": program.name,
        "family": program.family,
        "seed": program.seed,
        "ring": program.ring,
        "hardening": program.hardening,
        "unhardened_outcome": program.unhardened_outcome,
        "expected": {
            "code": program.expect_code.name,
            "fclass": program.expect_class.name,
            "ring": program.expect_ring,
            "segment": program.expect_segment,
        },
        "figures": figures,
        "ablation": ablation,
        "ok": not problems,
        "problems": problems,
    }


def run_corpus(
    corpus: Optional[Sequence[AttackProgram]] = None,
    seed: int = DEFAULT_SEED,
    per_family: int = 1,
    families: Optional[Tuple[str, ...]] = None,
    tiers: Sequence[str] = TIER_NAMES,
    hardware_rings: bool = True,
    ring: Optional[int] = None,
) -> Dict[str, Any]:
    """The full adversarial sweep: corpus × tier matrix.

    Returns ``{"ok", "total", "failed", "seed", "hardware_rings",
    "tiers", "programs": [check_program reports]}``.
    """
    for tier in tiers:
        if tier not in TIER_CONFIGS:
            raise ConfigurationError(
                f"unknown tier {tier!r}; expected one of {list(TIER_CONFIGS)}"
            )
    if corpus is None:
        corpus = generate_corpus(
            seed=seed, per_family=per_family, families=families, ring=ring
        )
    reports = [
        check_program(program, tiers=tiers, hardware_rings=hardware_rings)
        for program in corpus
    ]
    failed = sum(1 for report in reports if not report["ok"])
    return {
        "ok": failed == 0,
        "total": len(reports),
        "failed": failed,
        "seed": seed,
        "hardware_rings": hardware_rings,
        "tiers": list(tiers),
        "programs": reports,
    }
