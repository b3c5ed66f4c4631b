"""Trace pins: the exact access sequence of every registered workload.

Each case hashes a workload's whole ``(pid, vaddr)`` stream, so any
change to what a generator emits, to its order, or to the RNG draws
behind it moves a digest.  Trace-generation speedups are only legal
if they keep every digest.  A PR that intentionally changes a trace
should regenerate tests/data/trace_digests_v1.json with ``_digest``
below and say why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from itertools import chain
from pathlib import Path

import pytest

from repro.workloads import build, names

DIGEST_PATH = Path(__file__).parent / "data" / "trace_digests_v1.json"

#: (workload, seed, kwargs): every registered workload at its defaults
#: on two seeds, plus the benchmark's long kv-cache trace.
_CASES = [(name, seed, {}) for seed in (1, 7) for name in names()] + [
    ("kv-cache", 11, {"operations": 40000}),
]


def _key(name, seed, kwargs) -> str:
    return "|".join([name, str(seed)] + [f"{k}={v}" for k, v in kwargs.items()])


def _digest(trace) -> str:
    """SHA-256 of the trace as little-endian int64 words, pid then vaddr."""
    words = array("q", chain.from_iterable(trace))
    if sys.byteorder != "little":
        words.byteswap()
    return hashlib.sha256(words.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def pinned():
    with open(DIGEST_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def test_every_case_pinned(pinned):
    assert sorted(pinned) == sorted(_key(*case) for case in _CASES)


@pytest.mark.parametrize("case", _CASES, ids=[_key(*case) for case in _CASES])
def test_trace_matches_pinned_digest(case, pinned):
    name, seed, kwargs = case
    assert _digest(build(name, seed=seed, **kwargs).trace()) == pinned[_key(*case)]
