"""System registry: named configurations of the machine under test.

Each name maps to a factory that assembles a :class:`Machine` with the
right fault-time prefetcher and (for HoPP variants) the HoPP data plane.
HoPP runs *on top of* Fastswap (Section V: "we integrate HoPP with
Fastswap"), so every ``hopp*`` system keeps the Fastswap read-ahead on
the fault path and adds the asynchronous data plane beside it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.baselines.base import NoPrefetch
from repro.baselines.depthn import DepthNPrefetcher
from repro.baselines.fastswap import FastswapPrefetcher
from repro.baselines.leap import LeapPrefetcher
from repro.baselines.vma_readahead import VmaReadaheadPrefetcher
from repro.hopp.policy import PolicyConfig
from repro.hopp.system import HoppConfig, HoppDataPlane
from repro.hopp.three_tier import TierConfig
from repro.sim.machine import Machine, MachineConfig

@dataclass(frozen=True)
class SystemSpec:
    """A buildable system configuration."""

    name: str
    builder: Callable[[MachineConfig], Machine]
    #: Whether the paper's accounting says this system charges prefetched
    #: pages to the application cgroup.
    charges_prefetch: bool = True

    def build(self, config: MachineConfig) -> Machine:
        config = replace(config, charge_prefetch=self.charges_prefetch)
        return self.builder(config)


def _plain(prefetcher_factory: Callable[[], object]) -> Callable[[MachineConfig], Machine]:
    def build(config: MachineConfig) -> Machine:
        return Machine(config, fault_prefetcher=prefetcher_factory())

    return build


def _hopp(hopp_config_factory: Callable[[], HoppConfig]) -> Callable[[MachineConfig], Machine]:
    def build(config: MachineConfig) -> Machine:
        machine = Machine(config, fault_prefetcher=FastswapPrefetcher())
        plane = HoppDataPlane(machine, hopp_config_factory())
        machine.hopp = plane
        machine.controller.add_tap(plane.on_mc_access)
        return machine

    return build


def _hopp_cfg(**overrides) -> Callable[[], HoppConfig]:
    def factory() -> HoppConfig:
        return HoppConfig(**overrides)

    return factory


_REGISTRY: Dict[str, SystemSpec] = {}

#: HoPP-based systems keep their HoppConfig factory here so
#: :func:`variant` can rebuild them with knob overrides (the autotuner's
#: way of exploring HPD/STT/policy geometry without new registry names).
_HOPP_FACTORIES: Dict[str, Callable[[], HoppConfig]] = {}


def _register(spec: SystemSpec) -> None:
    _REGISTRY[spec.name] = spec


def _register_hopp(
    name: str, factory: Callable[[], HoppConfig], **spec_kwargs
) -> None:
    _HOPP_FACTORIES[name] = factory
    _register(SystemSpec(name, _hopp(factory), **spec_kwargs))


_register(SystemSpec("noprefetch", _plain(NoPrefetch)))
_register(SystemSpec("fastswap", _plain(FastswapPrefetcher), charges_prefetch=False))
_register(SystemSpec("leap", _plain(LeapPrefetcher), charges_prefetch=False))
_register(SystemSpec("vma-readahead", _plain(VmaReadaheadPrefetcher), charges_prefetch=False))
_register(SystemSpec("depth-16", _plain(lambda: DepthNPrefetcher(16))))
_register(SystemSpec("depth-32", _plain(lambda: DepthNPrefetcher(32))))

# Full HoPP and its ablations.
_register_hopp("hopp", _hopp_cfg())
_register_hopp("hopp-ssp", _hopp_cfg(tiers=TierConfig.only("ssp")))
_register_hopp("hopp-ssp-lsp", _hopp_cfg(tiers=TierConfig.only("ssp", "lsp")))
# No early PTE injection: HoPP's predictions land in the swapcache.
_register_hopp("hopp-swapcache", _hopp_cfg(inject_pte=False))
# Fixed prefetch offsets (Figure 22's sensitivity arms).
_register_hopp(
    "hopp-offset-1",
    _hopp_cfg(policy=PolicyConfig(adaptive=False, initial_offset=1.0)),
)
_register_hopp(
    "hopp-offset-20k",
    _hopp_cfg(
        policy=PolicyConfig(
            adaptive=False, initial_offset=20_000.0, offset_max=20_000.0
        )
    ),
)
# Section IV extension: long streams graduate to 2 MB batch requests.
_register_hopp("hopp-huge", _hopp_cfg(hugepage_enabled=True))
# Section IV extension: stream-behind pages hinted to reclaim.
_register_hopp("hopp-evict", _hopp_cfg(eviction_advisor_enabled=True))
# Section III-D alternative: an online learned stride-context model
# in the trainer slot instead of the three-tier cascade.
_register_hopp("hopp-learned", _hopp_cfg(trainer="learned"))
# The Section II-B "revamped majority" prefetcher: full trace + pages
# clustering + large-window majority voting, without the new tiers and
# without early PTE injection.
_register_hopp(
    "majority-full", _hopp_cfg(tiers=TierConfig.only("ssp"), inject_pte=False)
)


def build(name: str) -> SystemSpec:
    """Look up a system by name; raises with the known names on typos."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise KeyError(
            f"unknown system {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        )
    return spec


#: Config field types a knob override may carry (JSON-stable scalars).
_SCALAR_TYPES = (bool, int, float, str)


def _knob_paths(config: object, prefix: str = "") -> List[str]:
    """Every overridable dotted path of a (possibly nested) config
    dataclass: scalar fields directly, dataclass fields recursively."""
    paths: List[str] = []
    for spec_field in fields(config):
        value = getattr(config, spec_field.name)
        path = f"{prefix}{spec_field.name}"
        if isinstance(value, _SCALAR_TYPES):
            paths.append(path)
        elif is_dataclass(value):
            paths.extend(_knob_paths(value, prefix=f"{path}."))
    return paths


def hopp_knobs() -> List[str]:
    """All dotted HoppConfig paths :func:`variant` accepts as overrides
    (e.g. ``hpd_threshold``, ``policy.alpha``, ``breaker.window``)."""
    return sorted(_knob_paths(HoppConfig()))


def hopp_knob_values(name: str) -> Dict[str, object]:
    """Every tunable knob of a registered HoPP system with its current
    value — the "paper default" design point searches warm-start from."""
    factory = _HOPP_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"system {name!r} is not tunable (no HoppConfig); tunable "
            f"systems: {', '.join(sorted(_HOPP_FACTORIES))}"
        )
    config = factory()
    values: Dict[str, object] = {}
    for path in _knob_paths(config):
        node: object = config
        for part in path.split("."):
            node = getattr(node, part)
        values[path] = node
    return values


def _override_one(config: object, path: str, value: object) -> object:
    """``dataclasses.replace`` along one dotted path, with type checks
    loud enough to catch a tuning-space typo at spec-build time."""
    head, _, rest = path.partition(".")
    known = {spec_field.name for spec_field in fields(config)}
    if head not in known:
        raise ValueError(
            f"unknown HoPP knob {path!r}; tunable knobs: "
            f"{', '.join(hopp_knobs())}"
        )
    current = getattr(config, head)
    if rest:
        if not is_dataclass(current):
            raise ValueError(
                f"HoPP knob {head!r} has no sub-knob {rest!r}"
            )
        return replace(config, **{head: _override_one(current, rest, value)})
    if not isinstance(current, _SCALAR_TYPES):
        raise ValueError(
            f"HoPP knob {path!r} is a {type(current).__name__} section, "
            "not a scalar; override its fields individually "
            f"({path}.<field>)"
        )
    if isinstance(current, bool):
        if not isinstance(value, bool):
            raise ValueError(
                f"HoPP knob {path!r} wants a bool, got {value!r}"
            )
    elif isinstance(current, int) and not isinstance(current, bool):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"HoPP knob {path!r} wants an int, got {value!r}"
            )
    elif isinstance(current, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"HoPP knob {path!r} wants a float, got {value!r}"
            )
        value = float(value)
    elif isinstance(current, str) and not isinstance(value, str):
        raise ValueError(f"HoPP knob {path!r} wants a str, got {value!r}")
    return replace(config, **{head: value})


def variant(name: str, overrides: Optional[Dict[str, object]] = None) -> SystemSpec:
    """A registered system with HoppConfig knob overrides applied.

    ``overrides`` maps dotted config paths (see :func:`hopp_knobs`) to
    values: ``variant("hopp", {"hpd_threshold": 16, "policy.alpha":
    0.4})``.  Only HoPP-based systems are tunable — they are the ones
    whose geometry the paper's design space covers.  The returned spec
    keeps the base name (the overrides live in the RunSpec key, not the
    label) and stays cacheable: its builder is this module's code, and
    every override is a validated scalar captured by
    ``RunSpec.system_kwargs``.
    """
    base = build(name)
    if not overrides:
        return base
    factory = _HOPP_FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"system {name!r} is not tunable (no HoppConfig); tunable "
            f"systems: {', '.join(sorted(_HOPP_FACTORIES))}"
        )
    frozen = dict(overrides)
    _apply(factory(), frozen)  # validate every path/type up front

    def config_factory() -> HoppConfig:
        return _apply(factory(), frozen)

    return SystemSpec(
        name=base.name,
        builder=_hopp(config_factory),
        charges_prefetch=base.charges_prefetch,
    )


def _apply(config: HoppConfig, overrides: Dict[str, object]) -> HoppConfig:
    for path in sorted(overrides):
        config = _override_one(config, path, overrides[path])
    return config


def names() -> list:
    return sorted(_REGISTRY)


def register(spec: SystemSpec) -> None:
    """Extension point: add a custom system configuration."""
    _register(spec)
