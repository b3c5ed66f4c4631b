"""The Tuner driver: ask -> evaluate through the exec engine -> tell.

Every candidate evaluation is a :class:`~repro.exec.spec.RunSpec` sent
through :func:`repro.exec.pool.execute`, so a batch fans out over
``jobs`` workers and every point lands in (and is served from) the
content-addressed ResultCache — re-running or resuming a search performs
zero fresh simulator work for points it has already seen.

Determinism and resume
----------------------
A search is a pure function of (seed, space, strategy config, objective,
base spec): strategies draw randomness only from their own seeded RNG,
evaluations are deterministic simulations, and the loop schedule depends
on nothing else.  The journal (``tune.jsonl``) records a header (that
identity) plus one line per trial.  Resuming replays the loop from trial
zero: the strategies re-propose the identical configs, journaled trials
are served from the journal (no simulation, no cache lookup even), and
the first un-journaled trial continues live — so a killed run picks up
exactly where it died, with the identical trajectory, asserted by tests
and the CI smoke.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.cache import ResultCache, canonical_json
from repro.exec.pool import execute, local_ct_spec
from repro.exec.spec import RunSpec
from repro.tune.objective import Objective, extract_metrics
from repro.tune.space import SearchSpace, to_run_spec
from repro.tune.strategy import Strategy, Trial, TrialRequest

#: Journal format version; bump when the line schema changes.
JOURNAL_VERSION = 1


class TuneError(ValueError):
    """A malformed tuning setup or an inconsistent journal."""


@dataclass(frozen=True)
class FidelitySpec:
    """The trace-length ladder successive halving climbs.

    ``kwarg`` names a workload constructor knob that scales the trace
    (``passes``, ``iterations``, ``operations``...); ``values`` are its
    rung settings, cheapest first, full fidelity last.  Strategies that
    do not use rungs always evaluate at ``values[-1]``.
    """

    kwarg: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not self.kwarg:
            raise TuneError("fidelity kwarg must be non-empty")
        if not values:
            raise TuneError("fidelity needs >= 1 rung value")

    def value_for(self, fidelity: Optional[int]) -> object:
        if fidelity is None:
            return self.values[-1]
        if not 0 <= fidelity < len(self.values):
            raise TuneError(
                f"fidelity rung {fidelity} outside ladder of "
                f"{len(self.values)}"
            )
        return self.values[fidelity]

    def to_dict(self) -> Dict[str, object]:
        return {"kwarg": self.kwarg, "values": list(self.values)}

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "FidelitySpec":
        return FidelitySpec(payload["kwarg"], tuple(payload["values"]))


@dataclass
class TuneResult:
    """Everything a finished (or exhausted-budget) search produced."""

    trials: List[Trial]
    best: Optional[Trial]
    evaluations: int
    journal_replays: int
    cache_stats: Dict[str, int]
    space: SearchSpace
    objective: Objective
    strategy_name: str

    def trajectory(self) -> List[Tuple[int, float]]:
        """archgym-style best-fitness-vs-trials: (trial index, best
        score seen so far), one entry per trial."""
        out: List[Tuple[int, float]] = []
        best = float("-inf")
        for trial in self.trials:
            if trial.score > best:
                best = trial.score
            out.append((trial.index, best))
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy_name,
            "space": self.space.to_dict(),
            "objective": self.objective.to_dict(),
            "evaluations": self.evaluations,
            "journal_replays": self.journal_replays,
            "cache": dict(self.cache_stats),
            "best": None if self.best is None else self.best.to_dict(),
            "trajectory": [[i, s] for i, s in self.trajectory()],
            "trials": [t.to_dict() for t in self.trials],
        }


class Tuner:
    """Drive one strategy over one search space against one base spec.

    ``base`` pins everything the space does not bind: workload, system,
    seed, fabric, fault plan.  ``budget`` caps candidate evaluations
    (CT_local yardstick runs are free: they are shared across trials and
    almost always cache hits).  ``journal`` (a path) arms trial logging
    and resume; ``resume=True`` replays an existing journal first.
    """

    def __init__(
        self,
        space: SearchSpace,
        strategy: Strategy,
        base: RunSpec,
        budget: int,
        objective: Optional[Objective] = None,
        fidelity: Optional[FidelitySpec] = None,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        journal: Optional[Path] = None,
        resume: bool = False,
    ) -> None:
        if budget < 1:
            raise TuneError(f"budget must be >= 1 evaluation, got {budget}")
        if jobs < 1:
            raise TuneError(f"jobs must be >= 1, got {jobs}")
        self.space = space
        self.strategy = strategy
        self.base = base
        self.budget = budget
        self.objective = objective or Objective()
        self.fidelity = fidelity
        self.jobs = jobs
        self.cache = cache
        self.journal = Path(journal) if journal is not None else None
        self.resume = resume
        self._replay: List[Dict[str, object]] = []
        self.journal_replays = 0
        self._ct_local: Dict[str, float] = {}

    # -- journal ----------------------------------------------------------

    def _header(self) -> Dict[str, object]:
        return {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "space": self.space.to_dict(),
            "strategy": {
                "name": self.strategy.name,
                "config": self.strategy.config_dict(),
            },
            "objective": self.objective.to_dict(),
            "fidelity": (
                None if self.fidelity is None else self.fidelity.to_dict()
            ),
            # key_dict is the canonical projection of every
            # result-affecting base input — exactly the identity a
            # resumed run must share.
            "base": self.base.key_dict(),
        }

    def _load_journal(self) -> None:
        try:
            lines = self.journal.read_text(encoding="utf-8").splitlines()
        except OSError as error:
            raise TuneError(
                f"cannot resume: journal {self.journal} unreadable ({error})"
            ) from None
        if not lines:
            raise TuneError(f"cannot resume: journal {self.journal} is empty")
        try:
            header = json.loads(lines[0])
            entries = [json.loads(line) for line in lines[1:] if line.strip()]
        except ValueError as error:
            raise TuneError(
                f"cannot resume: journal {self.journal} is not valid "
                f"JSONL ({error})"
            ) from None
        if header.get("kind") != "header":
            raise TuneError(
                f"cannot resume: journal {self.journal} has no header line"
            )
        ours = self._header()
        if canonical_json(header) != canonical_json(ours):
            raise TuneError(
                "cannot resume: journal header does not match this search "
                "(seed, space, strategy, objective, or base spec differ); "
                "start a fresh journal or rerun the original configuration"
            )
        for position, entry in enumerate(entries):
            if entry.get("kind") != "trial" or entry.get("index") != position:
                raise TuneError(
                    f"cannot resume: journal {self.journal} trial line "
                    f"{position} is malformed or out of order"
                )
        self._replay = entries

    def _write_header(self) -> None:
        self.journal.parent.mkdir(parents=True, exist_ok=True)
        with open(self.journal, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self._header(), sort_keys=True) + "\n")

    def _append_trials(self, trials: Sequence[Trial]) -> None:
        fresh = [t for t in trials if t.source != "journal"]
        if not fresh or self.journal is None:
            return
        with open(self.journal, "a", encoding="utf-8") as handle:
            for trial in fresh:
                handle.write(json.dumps(trial.to_dict(), sort_keys=True) + "\n")

    # -- evaluation -------------------------------------------------------

    def _spec_for(self, request: TrialRequest) -> RunSpec:
        base = self.base
        if self.fidelity is not None:
            kwargs = dict(base.workload_kwargs)
            kwargs[self.fidelity.kwarg] = self.fidelity.value_for(
                request.fidelity
            )
            base = replace(base, workload_kwargs=kwargs)
        elif request.fidelity is not None:
            raise TuneError(
                "strategy proposed a fidelity rung but the tuner has no "
                "FidelitySpec; successive halving needs one"
            )
        return to_run_spec(base, request.config)

    def _ct_key(self, spec: RunSpec) -> str:
        return canonical_json(
            {"workload": spec.workload, "kwargs": {
                str(k): spec.workload_kwargs[k]
                for k in sorted(spec.workload_kwargs)
            }}
        )

    def _evaluate(
        self, requests: Sequence[TrialRequest], start_index: int
    ) -> List[Trial]:
        trials: List[Optional[Trial]] = [None] * len(requests)
        live: List[Tuple[int, TrialRequest, RunSpec]] = []
        for offset, request in enumerate(requests):
            index = start_index + offset
            if index < len(self._replay):
                entry = self._replay[index]
                same_config = entry["config"] == {
                    str(k): request.config[k] for k in request.config
                }
                if not same_config or entry.get("fidelity") != request.fidelity:
                    raise TuneError(
                        f"cannot resume: journal trial {index} diverges from "
                        "the re-proposed trajectory (the journal belongs to "
                        "a different search)"
                    )
                trials[offset] = Trial(
                    index=index,
                    config=dict(entry["config"]),
                    fidelity=entry.get("fidelity"),
                    metrics=dict(entry["metrics"]),
                    score=float(entry["score"]),
                    source="journal",
                )
                self.journal_replays += 1
            else:
                live.append((offset, request, self._spec_for(request)))

        if live:
            # One execute() batch: the CT_local yardsticks this batch
            # still misses, then every candidate point — the pool and
            # cache see them all at once.
            ct_keys_needed: List[str] = []
            ct_specs: List[RunSpec] = []
            for _, _, spec in live:
                key = self._ct_key(spec)
                if key not in self._ct_local and key not in ct_keys_needed:
                    ct_keys_needed.append(key)
                    ct_specs.append(
                        local_ct_spec(
                            spec.workload, spec.seed, spec.fabric,
                            spec.workload_kwargs,
                        )
                    )
            batch = ct_specs + [spec for _, _, spec in live]
            outputs = execute(batch, jobs=self.jobs, cache=self.cache)
            for key, result in zip(ct_keys_needed, outputs):
                self._ct_local[key] = result.completion_time_us
            for (offset, request, spec), result in zip(
                live, outputs[len(ct_specs):]
            ):
                metrics = extract_metrics(
                    result, self._ct_local[self._ct_key(spec)]
                )
                trials[offset] = Trial(
                    index=start_index + offset,
                    config=dict(request.config),
                    fidelity=request.fidelity,
                    metrics=metrics,
                    score=self.objective.score(metrics),
                )
        return list(trials)

    # -- driver -----------------------------------------------------------

    def run(self) -> TuneResult:
        if self.journal is not None:
            if self.resume and self.journal.exists():
                self._load_journal()
            else:
                self._write_header()

        all_trials: List[Trial] = []
        while len(all_trials) < self.budget and not self.strategy.finished():
            remaining = self.budget - len(all_trials)
            requests = self.strategy.ask(remaining)
            if not requests:
                break
            if len(requests) > remaining:
                raise TuneError(
                    f"strategy over-asked: {len(requests)} requests with "
                    f"{remaining} budget remaining"
                )
            trials = self._evaluate(requests, start_index=len(all_trials))
            self._append_trials(trials)
            self.strategy.tell(trials)
            all_trials.extend(trials)

        best = None
        top_rung = -1 if self.fidelity is None else len(self.fidelity.values) - 1
        for trial in all_trials:
            # Only full-fidelity scores compete for "best": a cheap-rung
            # proxy number is not comparable to a full evaluation.
            full = trial.fidelity is None or trial.fidelity == top_rung
            if full and (best is None or trial.score > best.score):
                best = trial
        result = TuneResult(
            trials=all_trials,
            best=best,
            evaluations=len(all_trials) - self.journal_replays,
            journal_replays=self.journal_replays,
            cache_stats=(
                self.cache.stats() if self.cache is not None else {}
            ),
            space=self.space,
            objective=self.objective,
            strategy_name=self.strategy.name,
        )
        return result
