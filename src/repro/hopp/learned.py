"""An online learned prefetcher — the Section III-D alternative.

"Our proposal is just one solution in a large design space, advanced
solutions like machine learning-based ones [58] can also be enabled by
full trace."

:class:`LearnedStridePredictor` is a compact online model in the spirit
of table-based neural/Markov prefetchers (Shi et al. [58], Joseph &
Grunwald [25]): an order-``context_len`` stride-context table with
exponentially decayed counts, trained continuously on the STT's stream
observations and queried for the most probable next stride.  It plugs
into the same trainer slot as the three-tier cascade, so the two
designs are directly comparable (``hopp-learned`` vs ``hopp``).

It generalizes SSP (constant-stride contexts predict the constant) and
LSP (ladder stride patterns are exactly recurring contexts), but it
must *learn* each pattern instance instead of recognizing the shape
analytically — the trade the paper's hand-built tiers avoid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.types import PrefetchDecision, StreamObservation

TIER_NAME = "learned"


@dataclass
class _ContextStats:
    counts: Dict[int, float] = field(default_factory=dict)
    total: float = 0.0

    def update(self, stride: int, decay: float) -> None:
        for key in list(self.counts):
            self.counts[key] *= decay
        self.total *= decay
        self.counts[stride] = self.counts.get(stride, 0.0) + 1.0
        self.total += 1.0
        # Prune vanishing entries so the table stays compact.
        for key in [k for k, v in self.counts.items() if v < 0.01]:
            del self.counts[key]

    def best(self) -> Optional[Tuple[int, float]]:
        if not self.counts or self.total <= 0.0:
            return None
        stride, weight = max(self.counts.items(), key=lambda item: item[1])
        return stride, weight / self.total


class LearnedStridePredictor:
    """Order-N stride-context model with confidence gating.

    ``context_len``      strides of history forming the context key.
    ``confidence``       minimum probability mass the predicted stride
                         must hold before a prefetch is issued (the
                         accuracy/coverage dial).
    ``decay``            per-update exponential decay, so the model
                         tracks phase changes.
    ``max_contexts``     table capacity; coldest contexts are evicted.
    """

    def __init__(
        self,
        context_len: int = 2,
        confidence: float = 0.55,
        decay: float = 0.98,
        max_contexts: int = 4096,
    ) -> None:
        if context_len < 1:
            raise ValueError("context_len must be >= 1")
        if not 0.0 < confidence <= 1.0:
            raise ValueError("confidence must be in (0, 1]")
        self.context_len = context_len
        self.confidence = confidence
        self.decay = decay
        self.max_contexts = max_contexts
        self._table: Dict[Tuple[int, ...], _ContextStats] = {}
        self.predictions = 0
        self.abstentions = 0

    # -- online training + inference -----------------------------------------

    def train(self, observation: StreamObservation) -> Optional[PrefetchDecision]:
        """Update the model with the newest transition, then predict."""
        strides = observation.stride_history
        if len(strides) < self.context_len + 1:
            return None
        # Learn every (context -> next stride) transition in the window
        # that ends at the newest stride; older ones were learned when
        # they were newest, so only the latest transition is new.
        context = tuple(strides[-self.context_len - 1 : -1])
        self._learn(context, strides[-1])
        # Predict from the context ending at the newest stride.
        query = tuple(strides[-self.context_len :])
        stats = self._table.get(query)
        prediction = stats.best() if stats is not None else None
        if prediction is None:
            self.abstentions += 1
            return None
        stride, probability = prediction
        if probability < self.confidence or stride == 0:
            self.abstentions += 1
            return None
        self.predictions += 1
        return PrefetchDecision(
            tier=TIER_NAME,
            base_vpn=observation.vpn_history[-1],
            per_offset_stride=stride,
        )

    def _learn(self, context: Tuple[int, ...], next_stride: int) -> None:
        stats = self._table.get(context)
        if stats is None:
            if len(self._table) >= self.max_contexts:
                coldest = min(self._table.items(), key=lambda item: item[1].total)
                del self._table[coldest[0]]
            stats = _ContextStats()
            self._table[context] = stats
        stats.update(next_stride, self.decay)

    @property
    def table_size(self) -> int:
        return len(self._table)


class LearnedTrainer:
    """Adapter exposing the three-tier trainer's interface."""

    def __init__(self, predictor: Optional[LearnedStridePredictor] = None) -> None:
        self.predictor = predictor or LearnedStridePredictor()
        self.decisions_by_tier: Dict[str, int] = {TIER_NAME: 0}
        self.no_decision = 0

    def train(self, observation: StreamObservation) -> Optional[PrefetchDecision]:
        decision = self.predictor.train(observation)
        if decision is None:
            self.no_decision += 1
        else:
            self.decisions_by_tier[TIER_NAME] += 1
        return decision
