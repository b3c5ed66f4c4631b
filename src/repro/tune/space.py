"""Typed search-space DSL for the design-space autotuner.

A :class:`SearchSpace` is an ordered tuple of named parameters, each a
typed dimension (int / float / categorical, linear or log scale) whose
``name`` is a dotted *binding path* that says where the sampled value
lands in a :class:`~repro.exec.spec.RunSpec`:

``system.<knob>``
    A HoppConfig knob override (``system.hpd_threshold``,
    ``system.policy.alpha`` — see :func:`repro.sim.systems.hopp_knobs`),
    shipped via ``RunSpec.system_kwargs``.
``cluster.<field>``
    A :class:`~repro.cluster.cluster.ClusterConfig` field of the spec's
    env (``cluster.nodes``, ``cluster.placement``,
    ``cluster.replication``).
``memtier.<field>``
    A :class:`~repro.memtier.MemtierConfig` field; the special value
    ``memtier.pool_nodes = 0`` turns tiering off entirely (RunEnv
    ``memtier=None``), making "no CXL pool" a searchable design point.
``workload.<kwarg>``
    A workload constructor override (``workload.passes`` — the
    trace-length fidelity axis successive halving scales).
``run.fraction``
    The local-memory fraction.

Everything is a pure value object: sampling and mutation draw only from
the caller's ``random.Random``, so a search trajectory is a function of
its seed.  ``to_dict``/``from_dict`` round-trip a space through the
journal header, which is how a resumed run proves it is continuing the
same search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Dict, List, Optional, Tuple

from repro.exec.spec import RunSpec
from repro.memtier import MemtierConfig

#: A sampled design point: binding path -> scalar value.
Config = Dict[str, object]

#: Binding roots :func:`to_run_spec` understands.
BINDING_ROOTS = ("system", "cluster", "memtier", "workload", "run")


class SpaceError(ValueError):
    """A malformed parameter, space, or config."""


def _check_name(name: str) -> None:
    root, dot, rest = name.partition(".")
    if root not in BINDING_ROOTS or not dot or not rest:
        raise SpaceError(
            f"parameter name {name!r} must be '<root>.<path>' with root "
            f"in {', '.join(BINDING_ROOTS)}"
        )
    if root == "run" and rest != "fraction":
        raise SpaceError(
            f"parameter name {name!r}: the 'run' root only binds "
            "'run.fraction'"
        )


@dataclass(frozen=True)
class IntParam:
    """An integer dimension in [lo, hi]; ``log=True`` samples on a log
    scale (geometry-style knobs where 2 -> 4 matters like 16 -> 32)."""

    name: str
    lo: int
    hi: int
    log: bool = False

    def __post_init__(self) -> None:
        _check_name(self.name)
        if not isinstance(self.lo, int) or not isinstance(self.hi, int):
            raise SpaceError(f"{self.name}: int bounds must be ints")
        if self.lo > self.hi:
            raise SpaceError(f"{self.name}: lo {self.lo} > hi {self.hi}")
        if self.log and self.lo < 1:
            raise SpaceError(f"{self.name}: log scale needs lo >= 1")

    def sample(self, rng: Random) -> int:
        if self.log:
            value = math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))
            return min(self.hi, max(self.lo, int(round(value))))
        return rng.randint(self.lo, self.hi)

    def mutate(self, value: object, rng: Random) -> int:
        current = int(value)  # journal round-trips keep ints exact
        if self.log:
            moved = int(round(current * math.exp(rng.gauss(0.0, 0.5))))
        else:
            span = max(1, (self.hi - self.lo) // 4)
            moved = current + int(round(rng.gauss(0.0, span)))
        moved = min(self.hi, max(self.lo, moved))
        if moved == current:
            # A mutation that moves nowhere stalls evolution on small
            # ranges; force one deterministic step toward the far bound.
            step = 1 if current < self.hi else -1
            moved = min(self.hi, max(self.lo, current + step))
        return moved

    def validate(self, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpaceError(f"{self.name}: expected int, got {value!r}")
        if not self.lo <= value <= self.hi:
            raise SpaceError(
                f"{self.name}: {value} outside [{self.lo}, {self.hi}]"
            )

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "int", "name": self.name, "lo": self.lo,
                "hi": self.hi, "log": self.log}


@dataclass(frozen=True)
class FloatParam:
    """A float dimension in [lo, hi], linear or log scale."""

    name: str
    lo: float
    hi: float
    log: bool = False

    def __post_init__(self) -> None:
        _check_name(self.name)
        if self.lo > self.hi:
            raise SpaceError(f"{self.name}: lo {self.lo} > hi {self.hi}")
        if self.log and self.lo <= 0:
            raise SpaceError(f"{self.name}: log scale needs lo > 0")

    def sample(self, rng: Random) -> float:
        if self.log:
            return math.exp(rng.uniform(math.log(self.lo), math.log(self.hi)))
        return rng.uniform(self.lo, self.hi)

    def mutate(self, value: object, rng: Random) -> float:
        current = float(value)
        if self.log:
            moved = current * math.exp(rng.gauss(0.0, 0.4))
        else:
            moved = current + rng.gauss(0.0, 0.25 * (self.hi - self.lo))
        moved = min(self.hi, max(self.lo, moved))
        if moved == current and self.lo < self.hi:
            # A draw clamped back onto the current value (sitting on a
            # bound) would stall evolution; step halfway to the far
            # bound instead so mutation always moves.
            target = self.lo if current - self.lo > self.hi - current else self.hi
            moved = (current + target) / 2.0
        return moved

    def validate(self, value: object) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SpaceError(f"{self.name}: expected float, got {value!r}")
        if not self.lo <= value <= self.hi:
            raise SpaceError(
                f"{self.name}: {value} outside [{self.lo}, {self.hi}]"
            )

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "float", "name": self.name, "lo": self.lo,
                "hi": self.hi, "log": self.log}


@dataclass(frozen=True)
class CatParam:
    """A categorical dimension over an explicit choice tuple."""

    name: str
    choices: Tuple[object, ...]

    def __post_init__(self) -> None:
        _check_name(self.name)
        choices = tuple(self.choices)
        object.__setattr__(self, "choices", choices)
        if len(choices) < 2:
            raise SpaceError(f"{self.name}: needs >= 2 choices")
        if len(set(map(repr, choices))) != len(choices):
            raise SpaceError(f"{self.name}: duplicate choices")

    def sample(self, rng: Random) -> object:
        return self.choices[rng.randrange(len(self.choices))]

    def mutate(self, value: object, rng: Random) -> object:
        others = [c for c in self.choices if c != value]
        return others[rng.randrange(len(others))]

    def validate(self, value: object) -> None:
        if value not in self.choices:
            raise SpaceError(
                f"{self.name}: {value!r} not in {self.choices!r}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "cat", "name": self.name,
                "choices": list(self.choices)}


Param = object  # IntParam | FloatParam | CatParam (py3.9-safe alias)

_PARAM_KINDS = {"int": IntParam, "float": FloatParam, "cat": CatParam}


def _param_from_dict(payload: Dict[str, object]):
    kind = payload.get("kind")
    cls = _PARAM_KINDS.get(kind)
    if cls is None:
        raise SpaceError(f"unknown parameter kind {kind!r}")
    if cls is CatParam:
        return CatParam(payload["name"], tuple(payload["choices"]))
    return cls(payload["name"], payload["lo"], payload["hi"],
               bool(payload.get("log", False)))


@dataclass(frozen=True)
class SearchSpace:
    """An ordered, validated tuple of parameters."""

    params: Tuple[Param, ...]
    name: str = "custom"

    def __post_init__(self) -> None:
        params = tuple(self.params)
        object.__setattr__(self, "params", params)
        if not params:
            raise SpaceError("a search space needs >= 1 parameter")
        names = [p.name for p in params]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpaceError(f"duplicate parameter names: {', '.join(dupes)}")

    def __iter__(self):
        return iter(self.params)

    def sample(self, rng: Random) -> Config:
        """One design point, drawing each dimension in declared order."""
        return {p.name: p.sample(rng) for p in self.params}

    def mutate(self, config: Config, rng: Random, rate: float = 0.35) -> Config:
        """A neighbor of ``config``: each dimension moves with
        probability ``rate``; at least one always moves."""
        self.validate(config)
        child = dict(config)
        moved = False
        for param in self.params:
            if rng.random() < rate:
                child[param.name] = param.mutate(config[param.name], rng)
                moved = True
        if not moved:
            param = self.params[rng.randrange(len(self.params))]
            child[param.name] = param.mutate(config[param.name], rng)
        return child

    def validate(self, config: Config) -> None:
        """``config`` must bind exactly this space's dimensions."""
        expected = {p.name for p in self.params}
        got = set(config)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise SpaceError(
                f"config does not match space: missing {missing}, "
                f"extra {extra}"
            )
        for param in self.params:
            param.validate(config[param.name])

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name,
                "params": [p.to_dict() for p in self.params]}

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "SearchSpace":
        return SearchSpace(
            params=tuple(_param_from_dict(p) for p in payload["params"]),
            name=payload.get("name", "custom"),
        )


def to_run_spec(base: RunSpec, config: Config) -> RunSpec:
    """Bind a design point onto a base RunSpec.

    The base carries everything the search does not touch (workload,
    seed, fabric, fault plan...); each config entry lands where its
    binding root says.  Pure: the base is never modified, and the same
    (base, config) always produces an identical spec — which is what
    makes the result cacheable and the search resumable.
    """
    system_kwargs = dict(base.system_kwargs)
    workload_kwargs = dict(base.workload_kwargs)
    cluster_fields: Dict[str, object] = {}
    memtier_fields: Dict[str, object] = {}
    fraction = base.fraction
    for name in sorted(config):
        value = config[name]
        root, _, path = name.partition(".")
        if root == "system":
            system_kwargs[path] = value
        elif root == "workload":
            workload_kwargs[path] = value
        elif root == "cluster":
            cluster_fields[path] = value
        elif root == "memtier":
            memtier_fields[path] = value
        elif root == "run":  # _check_name pinned path == "fraction"
            fraction = float(value)
        else:
            raise SpaceError(f"unknown binding root in {name!r}")

    cluster = base.env.cluster
    if cluster_fields:
        cluster = replace(cluster, **cluster_fields)
    memtier = base.env.memtier
    if memtier_fields:
        pool_nodes = memtier_fields.pop("pool_nodes", None)
        if pool_nodes == 0:
            # "No pooled tier" is itself a design point.
            memtier = None
        else:
            if pool_nodes is not None:
                memtier_fields["pool_nodes"] = pool_nodes
            memtier = replace(memtier or MemtierConfig(), **memtier_fields)
    return replace(
        base,
        fraction=fraction,
        workload_kwargs=workload_kwargs,
        system_kwargs=system_kwargs,
        env=replace(base.env, cluster=cluster, memtier=memtier),
    )


def _snap(param: Param, value: object) -> object:
    """Coerce a base-spec value onto a dimension: clamp numeric ranges,
    snap to the nearest numeric choice, refuse anything else loudly."""
    if isinstance(param, CatParam):
        if value in param.choices:
            return value
        numeric = [
            c for c in param.choices
            if isinstance(c, (int, float)) and not isinstance(c, bool)
        ]
        if (
            numeric
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        ):
            return min(numeric, key=lambda c: (abs(c - value), c))
        raise SpaceError(
            f"{param.name}: base value {value!r} is not a choice in "
            f"{param.choices!r} and cannot be snapped"
        )
    if isinstance(param, IntParam):
        return min(param.hi, max(param.lo, int(value)))
    return float(min(param.hi, max(param.lo, float(value))))


def default_config(space: SearchSpace, base: RunSpec) -> Config:
    """``base`` expressed as a design point in ``space``.

    This is "the paper's configuration" as the search sees it: every
    ``system.*`` dimension takes the registered system's current knob
    value, cluster/memtier/run dimensions take the base spec's settings
    (snapped into the dimension's domain when the default sits outside
    it).  Evolutionary search seeds generation zero with this point, so
    the best-found config can never score below the expert baseline.
    """
    from repro.sim import systems as systems_mod

    knob_values: Optional[Dict[str, object]] = None
    config: Config = {}
    for param in space.params:
        root, _, path = param.name.partition(".")
        if root == "system":
            if path in base.system_kwargs:
                value = base.system_kwargs[path]
            else:
                if knob_values is None:
                    knob_values = systems_mod.hopp_knob_values(base.system)
                value = knob_values[path]
        elif root == "cluster":
            value = getattr(base.env.cluster, path)
        elif root == "memtier":
            if base.env.memtier is None:
                value = 0 if path == "pool_nodes" else getattr(
                    MemtierConfig(), path
                )
            else:
                value = getattr(base.env.memtier, path)
        elif root == "workload":
            if path not in base.workload_kwargs:
                raise SpaceError(
                    f"{param.name}: base spec has no workload kwarg "
                    f"{path!r} to take a default from"
                )
            value = base.workload_kwargs[path]
        else:  # run.fraction
            value = base.fraction
        config[param.name] = _snap(param, value)
    space.validate(config)
    return config


# ---------------------------------------------------------------------------
# Named spaces (the paper's hand-tuned tables as searchable dimensions).

_SPACES: Dict[str, Callable[[], SearchSpace]] = {}


def register_space(name: str, factory: Callable[[], SearchSpace]) -> None:
    """Extension point: add a named space for the CLI / benches."""
    _SPACES[name] = factory


def space_names() -> List[str]:
    return sorted(_SPACES)


def build_space(name: str) -> SearchSpace:
    factory = _SPACES.get(name)
    if factory is None:
        raise SpaceError(
            f"unknown search space {name!r}; known: "
            f"{', '.join(space_names())}"
        )
    return factory()


def _hpd_params() -> Tuple[Param, ...]:
    # Table 2 sweeps the hot threshold N; Table 3 and the A2 ablation
    # sweep the table geometry.
    return (
        IntParam("system.hpd_threshold", 2, 32, log=True),
        CatParam("system.hpd_sets", (1, 2, 4, 8, 16)),
        CatParam("system.hpd_ways", (4, 8, 16, 32)),
    )


def _stt_params() -> Tuple[Param, ...]:
    return (
        CatParam("system.stt_entries", (16, 32, 64, 128)),
        CatParam("system.stt_history_len", (8, 16, 32)),
        CatParam("system.stt_stream_delta", (32, 64, 128)),
    )


def _policy_params() -> Tuple[Param, ...]:
    # Figure 22's alpha / T-range / i_max sensitivity arms.  The T
    # ranges are disjoint so t_min < t_max holds at every design point.
    return (
        FloatParam("system.policy.alpha", 0.02, 0.8, log=True),
        IntParam("system.policy.intensity", 1, 4),
        FloatParam("system.policy.offset_max", 64.0, 4096.0, log=True),
        FloatParam("system.policy.t_min_us", 10.0, 100.0, log=True),
        FloatParam("system.policy.t_max_us", 500.0, 20_000.0, log=True),
    )


def _placement_params() -> Tuple[Param, ...]:
    # nodes >= 2 keeps every sampled replication in ClusterConfig's
    # valid range, so the space never produces an unbuildable spec.
    return (
        CatParam("cluster.nodes", (2, 3)),
        CatParam("cluster.replication", (1, 2)),
        CatParam("cluster.placement", ("interleave", "hash", "affinity")),
        CatParam("memtier.pool_nodes", (0, 1, 2)),
        FloatParam("memtier.cxl_latency_us", 0.4, 3.2, log=True),
    )


register_space("hpd", lambda: SearchSpace(_hpd_params(), name="hpd"))
register_space(
    "hopp-core",
    lambda: SearchSpace(
        _hpd_params() + _stt_params() + _policy_params(), name="hopp-core"
    ),
)
register_space(
    "placement", lambda: SearchSpace(_placement_params(), name="placement")
)
register_space(
    "full",
    lambda: SearchSpace(
        _hpd_params() + _stt_params() + _policy_params() + _placement_params(),
        name="full",
    ),
)
