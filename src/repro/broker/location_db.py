"""The broker's location database.

Stores, per MN, the latest location record plus bounded history.  Every
record is tagged with its provenance: ``RECEIVED`` (an actual LU arrived)
or ``ESTIMATED`` (the Location Estimator filled a gap while LUs were being
filtered) — the distinction the paper's Fig. 7 analysis rests on.
"""

from __future__ import annotations

import enum
import types
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.geometry import Vec2
from repro.telemetry import NULL_TELEMETRY

__all__ = ["RecordSource", "LocationRecord", "LocationDB"]


class RecordSource(enum.Enum):
    """Where a location record came from."""

    RECEIVED = "received"
    ESTIMATED = "estimated"


# Looking an enum member up through its class costs a descriptor call;
# LocationDB.store, which runs once per stored record, compares against this
# module constant instead.
_RECEIVED = RecordSource.RECEIVED


@dataclass(frozen=True, slots=True)
class LocationRecord:
    """One entry of the location DB."""

    node_id: str
    time: float
    position: Vec2
    source: RecordSource

    @property
    def is_estimate(self) -> bool:
        """True when this record was produced by the Location Estimator."""
        return self.source is RecordSource.ESTIMATED


class LocationDB:
    """Latest-record store with bounded per-node history."""

    def __init__(
        self,
        history_length: int = 128,
        *,
        telemetry: Any = None,
        name: str = "db",
    ) -> None:
        if history_length < 1:
            raise ValueError(f"history_length must be >= 1, got {history_length}")
        self._latest: dict[str, LocationRecord] = {}
        self._latest_view = types.MappingProxyType(self._latest)
        self._history: dict[str, deque[LocationRecord]] = {}
        self._history_length = history_length
        self.stored_received = 0
        self.stored_estimated = 0
        tm = telemetry if telemetry is not None else NULL_TELEMETRY
        self._instrumented = tm.enabled
        self._t_received = tm.counter("broker.db.stored_received", db=name)
        self._t_estimated = tm.counter("broker.db.stored_estimated", db=name)
        self._t_nodes = tm.gauge("broker.db.nodes", db=name)

    def store(self, record: LocationRecord) -> None:
        """Insert a record; it becomes the node's latest."""
        node_id = record.node_id
        previous = self._latest.get(node_id)
        if previous is not None and record.time < previous.time:
            raise ValueError(
                f"record for {node_id} at {record.time} is older than "
                f"latest ({previous.time})"
            )
        self._latest[node_id] = record
        # dict.setdefault would construct a throwaway deque on every call;
        # this path runs once per stored record across the whole simulation.
        history = self._history.get(node_id)
        if history is None:
            history = self._history[node_id] = deque(
                maxlen=self._history_length
            )
        history.append(record)
        received = record.source is _RECEIVED
        if received:
            self.stored_received += 1
        else:
            self.stored_estimated += 1
        if self._instrumented:
            if received:
                self._t_received.inc()
            else:
                self._t_estimated.inc()
            self._t_nodes.set(len(self._latest))

    def state_dict(self) -> dict:
        """Durable DB state as JSON-safe values.

        Only latest records and counters are durable; per-node history is a
        bounded diagnostic ring and is reseeded with the latest record on
        restore.
        """
        return {
            "history_length": self._history_length,
            "latest": {
                node_id: [
                    record.time,
                    record.position.x,
                    record.position.y,
                    record.source.value,
                ]
                for node_id, record in sorted(self._latest.items())
            },
            "stored_estimated": self.stored_estimated,
            "stored_received": self.stored_received,
        }

    def load_state(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict`.

        Latest records and counters round-trip exactly; each node's history
        restarts with just its latest record.
        """
        self._latest.clear()
        self._history.clear()
        self._history_length = int(state["history_length"])
        for node_id, row in state["latest"].items():
            record = LocationRecord(
                node_id=node_id,
                time=float(row[0]),
                position=Vec2(float(row[1]), float(row[2])),
                source=RecordSource(row[3]),
            )
            self._latest[node_id] = record
            history: deque[LocationRecord] = deque(maxlen=self._history_length)
            history.append(record)
            self._history[node_id] = history
        self.stored_estimated = int(state["stored_estimated"])
        self.stored_received = int(state["stored_received"])
        if self._instrumented:
            self._t_nodes.set(len(self._latest))

    def latest(self, node_id: str) -> LocationRecord | None:
        """The node's most recent record, if any."""
        return self._latest.get(node_id)

    def position_of(self, node_id: str) -> Vec2 | None:
        """Convenience: the node's latest stored position."""
        record = self._latest.get(node_id)
        return record.position if record else None

    @property
    def latest_map(self) -> Mapping[str, LocationRecord]:
        """Zero-copy read-only view of every node's latest record.

        Bulk consumers (the harness's per-step error measurement) read
        thousands of latest records per simulated second; this view spares
        them a method call and ``None`` dance per node.
        """
        return self._latest_view

    def history(self, node_id: str) -> list[LocationRecord]:
        """The node's retained history, oldest first."""
        return list(self._history.get(node_id, ()))

    def node_ids(self) -> list[str]:
        """Ids of every node with at least one record."""
        return list(self._latest)

    def __len__(self) -> int:
        return len(self._latest)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._latest

    @property
    def estimate_fraction(self) -> float:
        """Fraction of stored records that were estimates."""
        total = self.stored_received + self.stored_estimated
        return self.stored_estimated / total if total else 0.0
