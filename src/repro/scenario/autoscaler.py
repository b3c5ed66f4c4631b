"""Elastic remote-capacity autoscaler over the standby node pool.

The cluster is built with its *maximum* node count; nodes beyond the
initial active set are parked in the health monitor's standby overlay
(:meth:`HealthMonitor.retire`) — healthy hardware, reachable, holding
zero pages, excluded from placement.  The autoscaler then moves nodes
between the pools, reusing the recovery machinery end to end:

* **scale-out** — sustained pressure above ``out_pressure`` for
  ``sustain_rounds`` rounds activates the lowest-id standby node
  (:meth:`HealthMonitor.activate`) and fires
  :meth:`RepairEngine.on_node_rejoin`, whose top-up sweep re-spreads
  under-replicated slots onto the fresh capacity — exactly the rack-in
  path a crash-rejoin takes.
* **scale-in** — sustained calm below ``in_pressure`` flags the
  highest-id active node with
  :meth:`HealthMonitor.retire_after_drain` and starts a graceful
  drain (:meth:`RemoteBackend.drain_node`): the repair engine
  evacuates its pages in the background and, on completion, the node
  parks itself in standby instead of rejoining placement.

State machine: ``STEADY -> (hot streak) -> SCALE_OUT -> cooldown ->
STEADY -> (calm streak) -> SCALE_IN -> cooldown -> STEADY``.  The
cooldown stops flapping; chaos composes freely — a node crash during
peak just makes the pressure signal angrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cluster.health import NodeState

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.sim.machine import Machine


@dataclass(frozen=True)
class AutoscalerConfig:
    #: Pressure at/above which a round counts toward scale-out.
    out_pressure: float = 1.0
    #: Pressure at/below which a round counts toward scale-in.
    in_pressure: float = 0.2
    #: Consecutive qualifying rounds before acting.
    sustain_rounds: int = 2
    #: Rounds to hold after any action before evaluating again.
    cooldown_rounds: int = 2
    #: Never scale below this many active (placeable or draining) nodes.
    min_active: int = 1

    def __post_init__(self) -> None:
        if self.out_pressure <= self.in_pressure:
            raise ValueError("out_pressure must exceed in_pressure")
        if self.sustain_rounds < 1 or self.cooldown_rounds < 0:
            raise ValueError("sustain_rounds >= 1, cooldown_rounds >= 0")
        if self.min_active < 1:
            raise ValueError("min_active must be >= 1")


class Autoscaler:
    """Round-driven elastic controller; requires armed recovery."""

    def __init__(
        self, machine: "Machine", config: AutoscalerConfig = AutoscalerConfig()
    ) -> None:
        if machine.backend.health is None:
            raise RuntimeError(
                "autoscaler needs armed recovery: build the machine with "
                "a fault plan (an empty FaultPlan() suffices)"
            )
        self.machine = machine
        self.config = config
        self._hot = 0
        self._calm = 0
        self._cooldown = 0
        self.scale_outs = 0
        self.scale_ins = 0
        #: (round, action, node_id) audit trail.
        self.events: List[List[object]] = []

    # -- pool queries -----------------------------------------------------------------

    def active_nodes(self) -> List[int]:
        """Nodes serving placement or mid-drain (still active capacity)."""
        health = self.machine.backend.health
        return [
            node_id
            for node_id in sorted(health.states_snapshot())
            if not health.is_standby(node_id)
            and health.state(node_id)
            in (NodeState.UP, NodeState.SUSPECT, NodeState.DRAINING)
        ]

    def standby_nodes(self) -> List[int]:
        return self.machine.backend.health.standby_nodes()

    # -- control loop -----------------------------------------------------------------

    def observe(self, pressure: float, rnd: int) -> Optional[str]:
        """One round's pressure sample; returns the action taken."""
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        if pressure >= self.config.out_pressure:
            self._hot += 1
            self._calm = 0
        elif pressure <= self.config.in_pressure:
            self._calm += 1
            self._hot = 0
        else:
            self._hot = 0
            self._calm = 0
        if self._hot >= self.config.sustain_rounds:
            self._hot = 0
            return self._scale_out(rnd)
        if self._calm >= self.config.sustain_rounds:
            self._calm = 0
            return self._scale_in(rnd)
        return None

    def _scale_out(self, rnd: int) -> Optional[str]:
        standby = self.standby_nodes()
        if not standby:
            return None
        node_id = standby[0]
        now = self.machine.now_us
        backend = self.machine.backend
        backend.health.activate(node_id)
        # A standby node could only have left UP if its hardware died
        # while parked; only rack in live machines.
        if backend.health.state(node_id) is NodeState.UP:
            backend.repair.on_node_rejoin(node_id, now)
        self.scale_outs += 1
        self._cooldown = self.config.cooldown_rounds
        self.events.append([rnd, "scale_out", node_id])
        return "scale_out"

    def _scale_in(self, rnd: int) -> Optional[str]:
        backend = self.machine.backend
        health = backend.health
        candidates = [
            node_id
            for node_id in self.active_nodes()
            if health.state(node_id) in (NodeState.UP, NodeState.SUSPECT)
        ]
        # Count only non-draining capacity against the floor: a node
        # mid-drain is already on its way out, and retiring the last
        # placeable node would leave its pages nowhere to evacuate.
        if len(candidates) <= self.config.min_active:
            return None
        node_id = candidates[-1]
        health.retire_after_drain(node_id)
        backend.drain_node(node_id, self.machine.now_us)
        self.scale_ins += 1
        self._cooldown = self.config.cooldown_rounds
        self.events.append([rnd, "scale_in", node_id])
        return "scale_in"

    # -- export -----------------------------------------------------------------------

    def export(self) -> Dict[str, object]:
        return {
            "scale_outs": self.scale_outs,
            "scale_ins": self.scale_ins,
            "active_nodes": self.active_nodes(),
            "standby_nodes": self.standby_nodes(),
            "events": [list(e) for e in self.events],
        }
