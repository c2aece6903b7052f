"""Control-plane event bus: the observable record of what the IGP did.

Everything interesting the control plane does — adjacency transitions,
LSA floods, SPF runs, route programming, carrier changes, fast-reroute
activations — is published here as a :class:`CtrlEvent`.  Tests and
benchmarks read the bus instead of poking at speaker internals, and a
converged network can be *explained* after the fact by replaying the
event log (the ``journalctl -u frr`` view of the simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class CtrlEvent:
    """One timestamped control-plane occurrence."""

    time_ns: int
    node: str
    kind: str
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        return f"[{self.time_ns / 1e6:10.3f} ms] {self.node:<4} {self.kind} {extra}"


class ControlBus:
    """Publish/subscribe fan-out plus an append-only event log.

    Subscribers register per event kind (or ``"*"`` for everything);
    publication is synchronous and in registration order, so handlers
    run at the simulated instant the event happened.
    """

    def __init__(self, clock):
        self.clock = clock  # its ``now_ns`` stamps each event (a Scheduler)
        self.events: list[CtrlEvent] = []
        # Running totals per (kind, node) — the telemetry ``ctrl_events``
        # counter reads this instead of re-scanning the log.
        self.counts: dict[tuple[str, str], int] = {}
        self._subscribers: dict[str, list[Callable[[CtrlEvent], None]]] = {}

    def subscribe(self, kind: str, handler: Callable[[CtrlEvent], None]) -> None:
        """Call ``handler(event)`` on every event of ``kind`` (``"*"`` = all)."""
        self._subscribers.setdefault(kind, []).append(handler)

    def publish(self, node: str, kind: str, **detail) -> CtrlEvent:
        event = CtrlEvent(self.clock.now_ns, node, kind, detail)
        self.events.append(event)
        key = (kind, node)
        self.counts[key] = self.counts.get(key, 0) + 1
        for handler in self._subscribers.get(kind, ()):
            handler(event)
        for handler in self._subscribers.get("*", ()):
            handler(event)
        return event

    # -- log queries ---------------------------------------------------------
    def of(self, kind: str, node: str | None = None) -> list[CtrlEvent]:
        """All logged events of ``kind`` (optionally from one node)."""
        return [
            e
            for e in self.events
            if e.kind == kind and (node is None or e.node == node)
        ]

    def count(self, kind: str, node: str | None = None) -> int:
        return len(self.of(kind, node))

    def last(self, kind: str, node: str | None = None) -> CtrlEvent | None:
        matches = self.of(kind, node)
        return matches[-1] if matches else None

    def dump(self) -> str:
        """The whole event log, one line per event (debugging aid)."""
        return "\n".join(str(e) for e in self.events)
