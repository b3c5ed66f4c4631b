"""Content-addressed on-disk RunResult cache and the materialized-trace
cache.

Every cache entry is keyed by a SHA-256 over the canonical JSON of
``RunSpec.key_dict()`` plus :data:`SCHEMA_VERSION` — the code-schema
stamp.  Bump the version whenever a change makes old results
incomparable (new counters, different float accumulation, a modeling
fix): every existing entry then misses and re-runs, which is exactly the
safe failure mode.

Two refusal rules protect correctness (the PR-4 audit):

* A spec whose workload or system resolves outside the ``repro`` package
  (user-registered extensions) is *uncacheable* — the key cannot see the
  user's code, so a stale hit would be silent and wrong.
* A stored entry is only served when its embedded key dict equals the
  requesting spec's key dict — a hash collision or a hand-edited file
  yields a miss, never a wrong result.

Every ``RunEnv`` field, including ``check_invariants`` and the fault
plan (armed or not, including the *empty-but-armed* ``FaultPlan()``),
is part of the key by construction: ``RunSpec.key_dict`` projects each
one explicitly.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.sim import systems as systems_mod
from repro.sim.metrics import RunResult
from repro.workloads import build as build_workload
from repro.workloads import registry as workload_registry

#: Code-schema version folded into every cache key.  Bump on any change
#: to simulator semantics, RunResult fields, or key composition.
#: v2: telemetry subsystem — RunSpec gained the ``telemetry`` key and
#: RunResult's full wire format gained the ``machine`` counter section.
#: v3: memory tiers — RunSpec gained the ``memtier`` key dimension and
#: RunResult's wire format gained the optional ``memtier`` section.
#: v4: end-to-end integrity — RunSpec gained the ``scrub`` key
#: dimension, FaultPlan gained corruption fields, and RunResult's wire
#: format gained the optional ``integrity`` section.
#: v5: design-space autotuner — RunSpec gained the ``system_kwargs``
#: key dimension (HoppConfig knob overrides on registered systems).
#: v6: a run with the sanitizer armed but no fault plan gets its final
#: sweep, so its ``invariant_checks`` grows by one.
SCHEMA_VERSION = 6


def canonical_json(payload: Dict[str, object]) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(spec) -> str:
    """SHA-256 hex digest of (schema version, spec key dict)."""
    body = canonical_json({"schema": SCHEMA_VERSION, "spec": spec.key_dict()})
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-hopp``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-hopp"


def cacheability(spec) -> Tuple[bool, str]:
    """Whether ``spec``'s result may be cached, and why not if not.

    Only specs that resolve entirely inside the ``repro`` package are
    cacheable: the schema version stamps *our* code, so a workload or
    system registered by downstream code (``workloads.register`` /
    ``systems.register``) has no honest key."""
    workload_cls = workload_registry._REGISTRY.get(spec.workload)
    if workload_cls is None:
        return False, f"unknown workload {spec.workload!r}"
    if not workload_cls.__module__.startswith("repro."):
        return False, (
            f"workload {spec.workload!r} is user-registered "
            f"({workload_cls.__module__}); its code is outside the schema hash"
        )
    try:
        system_spec = systems_mod.build(spec.system)
    except KeyError:
        return False, f"unknown system {spec.system!r}"
    if not system_spec.builder.__module__.startswith("repro."):
        return False, (
            f"system {spec.system!r} is user-registered "
            f"({system_spec.builder.__module__}); its code is outside the schema hash"
        )
    return True, ""


class ResultCache:
    """Content-addressed RunResult store: one JSON file per key, laid
    out ``<root>/<digest[:2]>/<digest>.json`` with atomic writes."""

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.refused = 0

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    def get(self, spec) -> Optional[RunResult]:
        """The cached RunResult for ``spec``, or None on any doubt."""
        ok, _why = cacheability(spec)
        if not ok:
            self.refused += 1
            return None
        digest = cache_key(spec)
        path = self._path(digest)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if payload.get("schema") != SCHEMA_VERSION or payload.get("key") != spec.key_dict():
            # Stale schema, hash collision, or a tampered file: a miss,
            # never a wrong result.
            self.misses += 1
            return None
        self.hits += 1
        return RunResult.from_dict(payload["result"])

    def put(self, spec, result: RunResult) -> Optional[Path]:
        """Store ``result`` under ``spec``'s key; returns the path, or
        None when the spec is uncacheable."""
        ok, _why = cacheability(spec)
        if not ok:
            self.refused += 1
            return None
        digest = cache_key(spec)
        path = self._path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": SCHEMA_VERSION,
            "key": spec.key_dict(),
            "result": result.to_dict(full=True),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
        self.stores += 1
        return path

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "refused": self.refused,
        }


class TraceCache:
    """Materialize each workload config's access trace once.

    A sweep re-runs the same (workload, seed, kwargs) trace under many
    systems and fractions; generating it per point is pure waste.  The
    cache holds the few most recent traces as immutable lists (bounded —
    a trace holds hundreds of thousands of entries, one per access,
    though the visits to one page share their access tuples)."""

    def __init__(self, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._traces: Dict[str, List[tuple]] = {}
        self._order: List[str] = []
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(name: str, seed: int, kwargs: Dict[str, object]) -> str:
        return canonical_json(
            {"workload": name, "seed": seed, "kwargs": {str(k): kwargs[k] for k in sorted(kwargs)}}
        )

    def get(self, name: str, seed: int, kwargs: Optional[Dict[str, object]] = None) -> List[tuple]:
        """The materialized trace for the workload config, generating it
        on first request."""
        kwargs = kwargs or {}
        key = self._key(name, seed, kwargs)
        trace = self._traces.get(key)
        if trace is not None:
            self.hits += 1
            self._order.remove(key)
            self._order.append(key)
            return trace
        self.misses += 1
        workload = build_workload(name, seed=seed, **kwargs)
        trace = list(workload.trace())
        while len(self._order) >= self.capacity:
            evicted = self._order.pop(0)
            del self._traces[evicted]
        self._traces[key] = trace
        self._order.append(key)
        return trace
