"""Measured cost counters for the maintenance simulator.

The analytic model of Sec. 6 *estimates* messages, bytes, and I/Os.  The
simulator executes Algorithm 1 for real and counts the same three factors,
so the two can be compared (the paper lists this cross-validation as
future work; our substrate is executable, so we do it).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MaintenanceCounters:
    """Messages, bytes, and I/Os observed during simulated maintenance."""

    messages: int = 0
    bytes_transferred: int = 0
    io_operations: int = 0

    def record_message(self, payload_bytes: int) -> None:
        """One message carrying ``payload_bytes`` of tuple data."""
        self.messages += 1
        self.bytes_transferred += payload_bytes

    def record_messages(self, messages: int, payload_bytes: int) -> None:
        """``messages`` messages carrying ``payload_bytes`` in total."""
        self.messages += messages
        self.bytes_transferred += payload_bytes

    def record_io(self, operations: int) -> None:
        self.io_operations += operations

    def snapshot(self) -> "MaintenanceCounters":
        """Immutable copy of the current totals (pair with :meth:`diff`)."""
        return MaintenanceCounters(
            self.messages, self.bytes_transferred, self.io_operations
        )

    def diff(self, earlier: "MaintenanceCounters") -> "MaintenanceCounters":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return MaintenanceCounters(
            self.messages - earlier.messages,
            self.bytes_transferred - earlier.bytes_transferred,
            self.io_operations - earlier.io_operations,
        )

    def merged(self, other: "MaintenanceCounters") -> "MaintenanceCounters":
        return MaintenanceCounters(
            self.messages + other.messages,
            self.bytes_transferred + other.bytes_transferred,
            self.io_operations + other.io_operations,
        )

    def reset(self) -> None:
        self.messages = 0
        self.bytes_transferred = 0
        self.io_operations = 0

    def __str__(self) -> str:
        return (
            f"messages={self.messages} bytes={self.bytes_transferred} "
            f"ios={self.io_operations}"
        )
