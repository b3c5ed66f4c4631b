"""Search strategies behind a common ask/tell interface.

A :class:`Strategy` proposes batches of design points (``ask``) and
learns their scores (``tell``).  All randomness comes from a private
``random.Random(seed)`` advanced only inside ``ask``, so the proposal
sequence is a pure function of (seed, space, strategy config, tell
history) — that is the whole determinism/resume argument: re-running the
loop replays the identical trajectory, whether the evaluations come from
the simulator, the result cache, or the journal.

Three strategies ship:

* :class:`RandomSearch` — seeded uniform sampling; the honest baseline.
* :class:`Evolutionary` — a (mu + lambda) loop: keep the best ``mu``
  ever seen, breed ``lam`` children by binary tournament + mutation.
  Optionally warm-started from expert configs (e.g. the paper's).
* :class:`SuccessiveHalving` — a cohort at the cheapest trace-length
  rung, top 1/eta promoted per rung until the full-fidelity rung.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Sequence

from repro.tune.space import Config, SearchSpace


class StrategyError(ValueError):
    """A malformed strategy configuration."""


@dataclass(frozen=True)
class TrialRequest:
    """One proposed evaluation: a design point at a fidelity rung.

    ``fidelity`` indexes the tuner's trace-length ladder; ``None`` means
    full fidelity (the only rung random/evolutionary search uses).
    """

    config: Config
    fidelity: Optional[int] = None


@dataclass
class Trial:
    """One completed evaluation, as the strategies and journal see it."""

    index: int
    config: Config
    fidelity: Optional[int]
    metrics: Dict[str, float]
    score: float
    source: str = "run"  # "run" (simulated or cache-served) | "journal"

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "trial",
            "index": self.index,
            "config": dict(self.config),
            "fidelity": self.fidelity,
            "metrics": dict(self.metrics),
            "score": self.score,
        }


class Strategy:
    """ask/tell interface every search strategy implements."""

    name: str = "strategy"

    def config_dict(self) -> Dict[str, object]:
        """The journal-header projection: everything that shapes the
        proposal sequence besides the space and the tell history."""
        raise NotImplementedError

    def ask(self, remaining: int) -> List[TrialRequest]:
        """At most ``remaining`` proposals (> 0); empty means done."""
        raise NotImplementedError

    def tell(self, trials: Sequence[Trial]) -> None:
        """Results for the last ``ask`` batch, in proposal order."""
        raise NotImplementedError

    def finished(self) -> bool:
        """True once the strategy has nothing left to propose."""
        return False


class RandomSearch(Strategy):
    """Seeded uniform sampling over the space, ``batch`` points per ask."""

    name = "random"

    def __init__(self, space: SearchSpace, seed: int, batch: int = 8) -> None:
        if batch < 1:
            raise StrategyError(f"batch must be >= 1, got {batch}")
        self.space = space
        self.seed = seed
        self.batch = batch
        self._rng = Random(seed)

    def config_dict(self) -> Dict[str, object]:
        return {"seed": self.seed, "batch": self.batch}

    def ask(self, remaining: int) -> List[TrialRequest]:
        count = min(self.batch, remaining)
        return [TrialRequest(self.space.sample(self._rng)) for _ in range(count)]

    def tell(self, trials: Sequence[Trial]) -> None:
        pass  # memoryless by design


class Evolutionary(Strategy):
    """(mu + lambda) evolution: elitist parent pool, tournament + mutate.

    ``seed_configs`` warm-start the initial population (the classic
    "include the expert config" trick — the paper's defaults enter
    generation zero, so the best-found can never fall below them).
    """

    name = "evolve"

    def __init__(
        self,
        space: SearchSpace,
        seed: int,
        mu: int = 6,
        lam: int = 6,
        mutation_rate: float = 0.35,
        seed_configs: Sequence[Config] = (),
    ) -> None:
        if mu < 1 or lam < 1:
            raise StrategyError(f"mu and lam must be >= 1, got {mu}/{lam}")
        if not 0.0 < mutation_rate <= 1.0:
            raise StrategyError(
                f"mutation_rate must be in (0, 1], got {mutation_rate}"
            )
        self.space = space
        self.seed = seed
        self.mu = mu
        self.lam = lam
        self.mutation_rate = mutation_rate
        self.seed_configs = tuple(dict(c) for c in seed_configs)
        for config in self.seed_configs:
            space.validate(config)
        self._rng = Random(seed)
        self._told: List[Trial] = []
        self._generation = 0

    def config_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "mu": self.mu,
            "lam": self.lam,
            "mutation_rate": self.mutation_rate,
            "seed_configs": [dict(c) for c in self.seed_configs],
        }

    def _parents(self) -> List[Trial]:
        """The best ``mu`` trials ever told, earliest index on ties —
        the elitist (mu + lambda) survivor rule."""
        ranked = sorted(self._told, key=lambda t: (-t.score, t.index))
        return ranked[: self.mu]

    def ask(self, remaining: int) -> List[TrialRequest]:
        if self._generation == 0:
            count = min(self.mu, remaining)
            initial = [dict(c) for c in self.seed_configs[:count]]
            while len(initial) < count:
                initial.append(self.space.sample(self._rng))
            return [TrialRequest(config) for config in initial]
        parents = self._parents()
        children: List[TrialRequest] = []
        for _ in range(min(self.lam, remaining)):
            a = parents[self._rng.randrange(len(parents))]
            b = parents[self._rng.randrange(len(parents))]
            winner = a if (a.score, -a.index) >= (b.score, -b.index) else b
            children.append(
                TrialRequest(
                    self.space.mutate(
                        winner.config, self._rng, rate=self.mutation_rate
                    )
                )
            )
        return children

    def tell(self, trials: Sequence[Trial]) -> None:
        self._told.extend(trials)
        self._generation += 1


class SuccessiveHalving(Strategy):
    """Successive halving over the tuner's trace-length fidelity ladder.

    An ``initial`` cohort runs at rung 0 (the shortest traces); after
    each rung the top ``1/eta`` by score are promoted to the next rung,
    down to the final full-fidelity rung.  Cheap rungs weed out the bulk
    of the space, full fidelity decides among the survivors.
    """

    name = "sha"

    def __init__(
        self,
        space: SearchSpace,
        seed: int,
        initial: int = 8,
        eta: int = 2,
        rungs: int = 2,
    ) -> None:
        if initial < 1:
            raise StrategyError(f"initial cohort must be >= 1, got {initial}")
        if eta < 2:
            raise StrategyError(f"eta must be >= 2, got {eta}")
        if rungs < 1:
            raise StrategyError(f"rungs must be >= 1, got {rungs}")
        self.space = space
        self.seed = seed
        self.initial = initial
        self.eta = eta
        self.rungs = rungs
        self._rng = Random(seed)
        self._rung = 0
        self._cohort: Optional[List[Config]] = None
        self._last_told: List[Trial] = []
        self._finished = False

    def config_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "initial": self.initial,
            "eta": self.eta,
            "rungs": self.rungs,
        }

    @staticmethod
    def plan_initial(budget: int, eta: int = 2, rungs: int = 2) -> int:
        """The largest rung-0 cohort whose full ladder fits ``budget``
        evaluations (every rung evaluation costs one budget unit)."""
        if budget < 1:
            raise StrategyError(f"budget must be >= 1, got {budget}")
        best = 1
        for n0 in range(1, budget + 1):
            total, n = 0, n0
            for _ in range(rungs):
                total += n
                n = max(1, n // eta)
            if total <= budget:
                best = n0
            else:
                break
        return best

    def ask(self, remaining: int) -> List[TrialRequest]:
        if self._finished:
            return []
        if self._cohort is None:
            self._cohort = [
                self.space.sample(self._rng) for _ in range(self.initial)
            ]
        else:
            ranked = sorted(
                self._last_told, key=lambda t: (-t.score, t.index)
            )
            keep = max(1, len(ranked) // self.eta)
            self._cohort = [dict(t.config) for t in ranked[:keep]]
            self._rung += 1
        cohort = self._cohort[:remaining]
        return [
            TrialRequest(dict(config), fidelity=self._rung)
            for config in cohort
        ]

    def tell(self, trials: Sequence[Trial]) -> None:
        self._last_told = list(trials)
        # A lone survivor still climbs the remaining rungs: the final
        # decision must come from full fidelity, not a cheap proxy.
        if self._rung >= self.rungs - 1:
            self._finished = True

    def finished(self) -> bool:
        return self._finished


def strategy_names() -> List[str]:
    """The strategies ``repro tune --strategy`` accepts."""
    strategies = (RandomSearch, Evolutionary, SuccessiveHalving)
    return sorted(strategy.name for strategy in strategies)
