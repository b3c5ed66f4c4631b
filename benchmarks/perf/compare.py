#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/perf/compare.py --base A1.json A2.json ... \\
        --new B1.json B2.json ...

Each file is a ``run.py --out`` document; ``FILE#KEY`` takes the list of
such documents stored under ``KEY`` in a JSON object (``baseline.json``
holds two A/A sets, ``a`` and ``b``).  Runs pair up in the order given.

For every workload and end-to-end metric it prints each side's median
and quartiles and one verdict:

* ``improved``: over at least ten pairs, the new side wins at least 9
  of every 10 (ties count for neither) and the medians differ by more
  than the base side's interquartile range;
* ``regressed``: the new median is worse than the base median by more
  than the metric's bound;
* ``unresolved``: the run-to-run spread (interquartile range over
  median, the wider side) exceeds the bound, and not every new run
  beats every base run;
* ``unchanged``: none of the above.

It also reports whether runs of the same seed produced the same
``RunResult`` digests on both sides.  The exit code is 1 when anything
regressed or a digest differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10


def load(arguments: List[str]) -> List[dict]:
    """Run documents from ``FILE`` or ``FILE#KEY`` arguments."""
    docs: List[dict] = []
    for argument in arguments:
        path, _, key = argument.partition("#")
        with open(path) as handle:
            data = json.load(handle)
        docs.extend(data[key] if key else [data])
    return docs


def _values(docs: List[dict], workload: str, metric: str) -> List[float]:
    """The metric's value in every document that measured it (traced
    runs report per-layer metrics only)."""
    cells = [
        doc["workloads"][workload]["metrics"].get(metric)
        for doc in docs
        if workload in doc["workloads"]
    ]
    return [cell["value"] for cell in cells if cell is not None]


def _summary(values: List[float]) -> Tuple[float, float, float]:
    """Median and first and third quartiles."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(base: List[float], new: List[float], better: str, bound: float) -> Tuple[str, str]:
    """The verdict for one metric, and the pair-win tally."""
    sign = 1.0 if better == "higher" else -1.0
    (b_med, b_q1, b_q3), (n_med, n_q1, n_q3) = _summary(base), _summary(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    tally = f"{wins}/{len(pairs)}"
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= 0.9 * len(pairs)
        and sign * (n_med - b_med) > b_q3 - b_q1
    ):
        return "improved", tally
    if sign * (b_med - n_med) > bound * abs(b_med):
        return "regressed", tally
    spread = max(
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
        (n_q3 - n_q1) / abs(n_med) if n_med else 0.0,
    )
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved", tally
    return "unchanged", tally


def _digests(docs: List[dict], workload: str) -> Dict[int, dict]:
    return {
        doc["seed"]: doc["workloads"][workload]["digests"]
        for doc in docs
        if workload in doc["workloads"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_FILE.read_text())
    base, new = load(args.base), load(args.new)
    workloads = [w["name"] for w in spec["workloads"]]
    bad = False
    print(
        f"{'workload':16} {'metric':12} {'base median [q1, q3]':>34} "
        f"{'new median [q1, q3]':>34} {'change':>8} {'bound':>6} {'wins':>6}  verdict"
    )
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b_vals = _values(base, workload, name)
            n_vals = _values(new, workload, name)
            if not b_vals or not n_vals:
                continue
            result, tally = verdict(b_vals, n_vals, metric["better"], metric["bound"])
            bad |= result == "regressed"
            b_med, b_q1, b_q3 = _summary(b_vals)
            n_med, n_q1, n_q3 = _summary(n_vals)
            change = (n_med - b_med) / b_med if b_med else 0.0
            b_txt = f"{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]"
            n_txt = f"{n_med:.6g} [{n_q1:.6g}, {n_q3:.6g}]"
            print(
                f"{workload:16} {name:12} {b_txt:>34} {n_txt:>34} "
                f"{change:>+8.2%} {metric['bound']:>6.0%} {tally:>6}  {result}"
            )
        b_dig, n_dig = _digests(base, workload), _digests(new, workload)
        shared = sorted(set(b_dig) & set(n_dig))
        if shared:
            same = all(b_dig[seed] == n_dig[seed] for seed in shared)
            bad |= not same
            seeds = ",".join(map(str, shared))
            print(f"{workload:16} digests of seed {seeds}: {'equal' if same else 'DIFFER'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
