"""Per-node health monitoring for the remote-memory cluster.

DRackSim-style rack simulators treat node failure as a first-class
cluster event, not just a flaky link; this module gives each
:class:`~repro.net.remote.RemoteMemoryNode` a small state machine:

```
        observed timeouts / missed heartbeat
  UP ─────────────────────────────────────────► SUSPECT
  ▲                                               │
  │ observed success                              │ probe confirms the
  │                                               ▼ node is dead
  └────────────────────────────────────────────  DOWN
                                                  │ node answers again
 UP ◄── next heartbeat ──  REJOINING  ◄───────────┘ (node_rejoin time)
  │
  │ drain requested                     drain queue emptied
  └──────────────► DRAINING ──────────────► REJOINING
```

* **UP** — serving; placeable.
* **SUSPECT** — consecutive demand/writeback timeouts crossed the
  threshold, or a heartbeat found the node unresponsive.  Still
  placeable (the condition may be a transient window); one observed
  success clears it.
* **DOWN** — a probe confirmed a permanent crash
  (``FaultPlan.node_crash``).  Not placeable, not readable; the repair
  engine re-replicates its directory entries.
* **DRAINING** — operator-requested graceful removal: no new
  writebacks land, reads still serve, and the repair engine evacuates
  its pages.
* **REJOINING** — the node answers again (``node_rejoin``) or its
  drain completed; re-admitted to placement at the next heartbeat.

Detection is deterministic: heartbeats fire on simulated-time
boundaries (``heartbeat_interval_us``), probes ask the node's own
seeded :class:`~repro.net.faults.FaultInjector`, and no control-plane
message ever touches the data fabric — so arming the monitor without a
crash in the plan leaves every data-path number byte-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.telemetry.events import EV_NODE_STATE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.cluster.cluster import RemoteMemoryCluster


class NodeState(enum.Enum):
    UP = "up"
    SUSPECT = "suspect"
    DOWN = "down"
    DRAINING = "draining"
    REJOINING = "rejoining"


#: Health events emitted to the repair engine: (event, node_id).
EVENT_DOWN = "down"
EVENT_REJOIN = "rejoin"

HealthEvent = Tuple[str, int]


@dataclass(frozen=True)
class HealthConfig:
    """Detection knobs.

    ``heartbeat_interval_us``    control-plane poll period; bounds how
                                 stale the monitor's view can be.
    ``suspect_after_timeouts``   consecutive data-path timeouts on one
                                 node before it turns SUSPECT.
    """

    heartbeat_interval_us: float = 500.0
    suspect_after_timeouts: int = 3

    def __post_init__(self) -> None:
        if self.heartbeat_interval_us <= 0:
            raise ValueError("heartbeat_interval_us must be > 0")
        if self.suspect_after_timeouts < 1:
            raise ValueError("suspect_after_timeouts must be >= 1")


class HealthMonitor:
    """Tracks one :class:`NodeState` per cluster node.

    Fed from two sides: the data path reports per-node timeouts and
    successes as they happen (free — the traffic existed anyway), and
    :meth:`tick` models the periodic control-plane heartbeat that
    notices crashes even when no demand traffic touches the dead node.
    """

    def __init__(
        self,
        cluster: "RemoteMemoryCluster",
        config: HealthConfig = HealthConfig(),
    ) -> None:
        self.cluster = cluster
        self.config = config
        self._states: Dict[int, NodeState] = {
            node.node_id: NodeState.UP for node in cluster.nodes
        }
        self._consecutive_timeouts: Dict[int, int] = {
            node.node_id: 0 for node in cluster.nodes
        }
        self._next_heartbeat_us = 0.0
        #: Elastic-capacity overlay: node ids parked out of placement
        #: (scenario autoscaler standby pool).  A standby node keeps its
        #: UP state machine — it is healthy hardware, just not serving —
        #: so crash detection still works the instant it is activated.
        #: Empty (the default) leaves every placement decision untouched.
        self._standby: set = set()
        #: Nodes whose in-progress drain should park them in standby
        #: instead of re-admitting them (autoscaler scale-in).
        self._retire_after_drain: set = set()
        #: Telemetry event bus; None keeps transitions probe-free.  Set
        #: by the backend when telemetry is armed — the monitor never
        #: creates one itself.
        self.bus = None
        #: (now_us, node_id, from_state, to_state) audit trail.
        self.transitions: List[Tuple[float, int, NodeState, NodeState]] = []
        self.node_crashes = 0
        self.node_rejoins = 0
        self.drains_completed = 0

    # -- queries ----------------------------------------------------------------------

    def state(self, node_id: int) -> NodeState:
        return self._states[node_id]

    def is_placeable(self, node_id: int) -> bool:
        """New copies may land here (UP/SUSPECT/REJOINING, not standby)."""
        if node_id in self._standby:
            return False
        return self._states[node_id] not in (NodeState.DOWN, NodeState.DRAINING)

    def is_standby(self, node_id: int) -> bool:
        return node_id in self._standby

    def standby_nodes(self) -> List[int]:
        return sorted(self._standby)

    def is_readable(self, node_id: int) -> bool:
        """Existing copies may be read (everything but DOWN)."""
        return self._states[node_id] is not NodeState.DOWN

    def placeable_count(self) -> int:
        return sum(
            1 for node_id in self._states if self.is_placeable(node_id)
        )

    def states_snapshot(self) -> Dict[int, str]:
        return {
            node_id: state.value for node_id, state in self._states.items()
        }

    # -- data-path observations --------------------------------------------------------

    def observe_timeout(self, node_id: int, now_us: float) -> List[HealthEvent]:
        """A demand read or writeback to ``node_id`` timed out."""
        self._consecutive_timeouts[node_id] += 1
        state = self._states[node_id]
        if (
            state is NodeState.UP
            and self._consecutive_timeouts[node_id]
            >= self.config.suspect_after_timeouts
        ):
            self._transition(node_id, NodeState.SUSPECT, now_us)
            state = NodeState.SUSPECT
        if state is NodeState.SUSPECT:
            return self._probe(node_id, now_us)
        return []

    def observe_success(self, node_id: int, now_us: float) -> None:
        """A transfer to ``node_id`` completed: it is demonstrably up."""
        self._consecutive_timeouts[node_id] = 0
        if self._states[node_id] is NodeState.SUSPECT:
            self._transition(node_id, NodeState.UP, now_us)

    # -- control plane ----------------------------------------------------------------

    def due_us(self) -> float:
        """The earliest time at which :meth:`tick` probes again."""
        return self._next_heartbeat_us

    def tick(self, now_us: float, force: bool = False) -> List[HealthEvent]:
        """The periodic heartbeat: probe every node, advance REJOINING
        nodes to UP, and return the recovery events that fired.
        ``force`` probes regardless of the schedule (end-of-run
        convergence) without disturbing the next scheduled beat."""
        if not force:
            if now_us < self._next_heartbeat_us:
                return []
            self._next_heartbeat_us = now_us + self.config.heartbeat_interval_us
        events: List[HealthEvent] = []
        for node_id in self._states:
            if self._states[node_id] is NodeState.REJOINING:
                self._transition(node_id, NodeState.UP, now_us)
                continue
            events.extend(self._probe(node_id, now_us))
        return events

    def start_drain(self, node_id: int, now_us: float) -> None:
        """Operator request: evacuate ``node_id`` gracefully."""
        state = self._states[node_id]
        if state is not NodeState.UP and state is not NodeState.SUSPECT:
            raise ValueError(
                f"cannot drain node {node_id} in state {state.value}"
            )
        self._transition(node_id, NodeState.DRAINING, now_us)

    def finish_drain(self, node_id: int, now_us: float) -> None:
        """The repair engine emptied a DRAINING node.  A node flagged by
        :meth:`retire_after_drain` parks in standby (scale-in); anyone
        else re-admits at the next heartbeat (operator maintenance)."""
        if self._states[node_id] is NodeState.DRAINING:
            self.drains_completed += 1
            if node_id in self._retire_after_drain:
                self._retire_after_drain.discard(node_id)
                self._standby.add(node_id)
                self._transition(node_id, NodeState.UP, now_us)
            else:
                self._transition(node_id, NodeState.REJOINING, now_us)

    # -- elastic capacity (scenario autoscaler) ----------------------------------------

    def retire(self, node_id: int) -> None:
        """Park an (empty) node in standby immediately — used to mark
        the initial standby pool before any page lands on it."""
        self._standby.add(node_id)

    def retire_after_drain(self, node_id: int) -> None:
        """Flag a node so that, once its drain completes, it parks in
        standby instead of rejoining placement."""
        self._retire_after_drain.add(node_id)

    def activate(self, node_id: int) -> None:
        """Return a standby node to placement (autoscaler scale-out)."""
        self._standby.discard(node_id)
        self._retire_after_drain.discard(node_id)

    # -- internals --------------------------------------------------------------------

    def _probe(self, node_id: int, now_us: float) -> List[HealthEvent]:
        """Ask the node's injector whether it is permanently dead; drive
        DOWN and REJOIN transitions off the answer."""
        injector = self.cluster.nodes[node_id].injector
        dead = injector is not None and injector.node_dead(now_us)
        state = self._states[node_id]
        if dead and state in (NodeState.UP, NodeState.SUSPECT, NodeState.DRAINING):
            self._transition(node_id, NodeState.DOWN, now_us)
            self.node_crashes += 1
            return [(EVENT_DOWN, node_id)]
        if not dead and state is NodeState.DOWN:
            self._transition(node_id, NodeState.REJOINING, now_us)
            self.node_rejoins += 1
            return [(EVENT_REJOIN, node_id)]
        return []

    def _transition(self, node_id: int, to: NodeState, now_us: float) -> None:
        frm = self._states[node_id]
        if frm is to:
            return
        self._states[node_id] = to
        self.transitions.append((now_us, node_id, frm, to))
        if self.bus is not None:
            self.bus.emit(
                EV_NODE_STATE, now_us,
                node=node_id, frm=frm.value, to=to.value,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HealthMonitor({self.states_snapshot()})"
