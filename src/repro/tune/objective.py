"""Composable objective layer: what "better" means for a design point.

An :class:`Objective` names one metric to maximize (or minimize) and any
number of :class:`Constraint` bounds on other metrics.  Scalarization is
penalty-based: the score is the goal metric minus ``penalty *
violation`` per violated constraint, so infeasible points sort below
feasible ones but still rank among themselves (the search can climb out
of an infeasible region instead of flailing on ties).

Metrics are extracted from a RunResult plus its CT_local reference
(normalized performance needs the yardstick).  :func:`pareto_front`
reports the non-dominated set when one scalar is not the whole story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sim.metrics import METRICS, RunResult


class ObjectiveError(ValueError):
    """A malformed objective or constraint expression."""


def extract_metrics(result: RunResult, ct_local_us: float) -> Dict[str, float]:
    """The full metric vector for one evaluated design point."""
    return {name: get(result, ct_local_us) for name, get in METRICS.items()}


@dataclass(frozen=True)
class Constraint:
    """``metric <op> bound`` with a scalarization penalty weight."""

    metric: str
    op: str  # ">=" or "<="
    bound: float
    penalty: float = 10.0

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ObjectiveError(
                f"unknown constraint metric {self.metric!r}; known: "
                f"{', '.join(METRICS)}"
            )
        if self.op not in (">=", "<="):
            raise ObjectiveError(
                f"constraint op must be '>=' or '<=', got {self.op!r}"
            )
        if self.penalty <= 0:
            raise ObjectiveError("constraint penalty must be > 0")

    def violation(self, metrics: Dict[str, float]) -> float:
        """How far outside the bound the point sits (0 = satisfied)."""
        value = metrics[self.metric]
        if self.op == ">=":
            return max(0.0, self.bound - value)
        return max(0.0, value - self.bound)

    def to_dict(self) -> Dict[str, object]:
        return {"metric": self.metric, "op": self.op, "bound": self.bound,
                "penalty": self.penalty}

    @staticmethod
    def parse(text: str) -> "Constraint":
        """``"accuracy>=0.5"`` / ``"prefetch_wasted<=200"`` (an optional
        ``@<penalty>`` suffix overrides the default weight)."""
        body, penalty = text, 10.0
        if "@" in text:
            body, raw = text.rsplit("@", 1)
            try:
                penalty = float(raw)
            except ValueError:
                raise ObjectiveError(
                    f"bad constraint penalty {raw!r} in {text!r}"
                ) from None
        for op in (">=", "<="):
            if op in body:
                metric, raw_bound = body.split(op, 1)
                try:
                    bound = float(raw_bound)
                except ValueError:
                    raise ObjectiveError(
                        f"bad constraint bound {raw_bound!r} in {text!r}"
                    ) from None
                return Constraint(metric.strip(), op, bound, penalty)
        raise ObjectiveError(
            f"constraint {text!r} needs '>=' or '<=' (e.g. 'accuracy>=0.5')"
        )


@dataclass(frozen=True)
class Objective:
    """Maximize (or minimize) ``goal`` subject to ``constraints``."""

    goal: str = "normalized_performance"
    maximize: bool = True
    constraints: Tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        if self.goal not in METRICS:
            raise ObjectiveError(
                f"unknown objective metric {self.goal!r}; known: "
                f"{', '.join(METRICS)}"
            )
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def score(self, metrics: Dict[str, float]) -> float:
        """Scalarized fitness: higher is always better."""
        base = metrics[self.goal]
        if not self.maximize:
            base = -base
        return base - sum(
            c.penalty * c.violation(metrics) for c in self.constraints
        )

    def feasible(self, metrics: Dict[str, float]) -> bool:
        return all(c.violation(metrics) == 0.0 for c in self.constraints)

    def to_dict(self) -> Dict[str, object]:
        return {
            "goal": self.goal,
            "maximize": self.maximize,
            "constraints": [c.to_dict() for c in self.constraints],
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "Objective":
        return Objective(
            goal=payload["goal"],
            maximize=bool(payload["maximize"]),
            constraints=tuple(
                Constraint(c["metric"], c["op"], c["bound"], c["penalty"])
                for c in payload.get("constraints", ())
            ),
        )

    @staticmethod
    def parse(goal: str, constraints: Sequence[str] = ()) -> "Objective":
        """CLI form: goal is a metric name, ``-`` prefix to minimize."""
        maximize = True
        goal = goal.strip()
        if goal.startswith("-"):
            maximize = False
            goal = goal[1:].strip()
        return Objective(
            goal=goal,
            maximize=maximize,
            constraints=tuple(Constraint.parse(c) for c in constraints),
        )


def pareto_front(
    metric_rows: Sequence[Dict[str, float]],
    axes: Sequence[str] = ("coverage", "accuracy"),
) -> List[int]:
    """Indices of the non-dominated rows, maximizing every axis.

    Ties are kept (two identical points both survive), so the front is
    deterministic in input order.
    """
    if not axes:
        raise ObjectiveError("pareto_front needs >= 1 axis")
    front: List[int] = []
    for i, row in enumerate(metric_rows):
        dominated = False
        for j, other in enumerate(metric_rows):
            if j == i:
                continue
            at_least = all(other[a] >= row[a] for a in axes)
            strictly = any(other[a] > row[a] for a in axes)
            if at_least and strictly:
                dominated = True
                break
        if not dominated:
            front.append(i)
    return front
