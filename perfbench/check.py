"""Correctness verdicts and latency samples for benchmark operations.

:class:`DeliveryTracker` serves the workloads with a fixed membership.
For every benchmark operation it records the due time and how many
members still have to deliver it; the entry is dropped the moment the
last member delivers, so the bookkeeping is proportional to the
operations in flight.  Along the way it checks:

* **no duplicates** — at every member, deliveries from one origin carry
  strictly increasing message numbers (an origin attaches in order, so a
  repeat or a step back is a duplicate or a reorder);
* **prefix-consistent agreed order** — every member delivers benchmark
  operations in one common order.  The reference order is kept only
  between the slowest and the fastest member's position;
* **completion** — every operation reaches every member.

Latency runs from an operation's *due* time to its delivery at the last
member that must deliver it, on the clock that stamps deliveries.

:class:`ChaosTracker` serves fault-injection runs, where a member only
has to deliver an operation if it shared a view with the operation's
origin when it was submitted, stayed up to the end of the run, and was
not split from the origin by a later view change before delivering it.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Hashable, Iterable

__all__ = ["DeliveryTracker", "ChaosTracker", "failed_ops"]

Key = tuple[str, int]


def failed_ops(attempted: int, incomplete: int, misordered: int, lost: int) -> int:
    """Operations not completed correctly, never more than were attempted.

    ``incomplete`` ops never reached every member that must deliver
    them, ``misordered`` deliveries broke the duplicate or agreed-order
    checks, and ``lost`` ops were delivered but not applied by a
    replica.
    """
    return min(attempted, incomplete + misordered + lost)


class DeliveryTracker:
    """Fixed-membership delivery checker and latency recorder."""

    #: Trim the reference order after this many benchmark deliveries.
    TRIM_EVERY = 1024

    def __init__(self, members: Iterable[str]) -> None:
        self.members = tuple(members)
        self._inflight: dict[Key, list] = {}
        self._last_no: dict[tuple[str, str], int] = {}
        self._order: deque[Key] = deque()
        self._base = 0  # absolute position of _order[0]
        self._cursor = {m: 0 for m in self.members}
        self._since_trim = 0
        self.latencies = array("d")
        self.dues = array("d")
        self.submitted = 0
        self.deliveries = 0
        self.duplicates = 0
        self.order_mismatches = 0

    # ------------------------------------------------------------------
    def submit(self, key: Key, due: float) -> None:
        """Register one benchmark operation due at ``due``."""
        self.submitted += 1
        self._inflight[key] = [due, len(self.members)]

    def delivered(self, member: str, origin: str, msg_no: int, at: float) -> None:
        """Record one delivery of any multicast at ``member``."""
        self.deliveries += 1
        last = self._last_no.get((member, origin), 0)
        if msg_no <= last:
            self.duplicates += 1
            return
        self._last_no[(member, origin)] = msg_no
        key = (origin, msg_no)
        entry = self._inflight.get(key)
        if entry is None:
            return  # not a benchmark operation (e.g. a resync message)
        pos = self._cursor[member]
        end = self._base + len(self._order)
        if pos == end:
            self._order.append(key)
        elif self._order[pos - self._base] != key:
            self.order_mismatches += 1
        self._cursor[member] = pos + 1
        entry[1] -= 1
        if entry[1] == 0:
            del self._inflight[key]
            self.latencies.append(at - entry[0])
            self.dues.append(entry[0])
        self._since_trim += 1
        if self._since_trim >= self.TRIM_EVERY:
            self._trim()

    def _trim(self) -> None:
        self._since_trim = 0
        low = min(self._cursor.values())
        while self._base < low and self._order:
            self._order.popleft()
            self._base += 1

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Operations not yet delivered at every member."""
        return len(self._inflight)

    @property
    def bookkeeping(self) -> int:
        """Entries held: in-flight operations plus the reference window."""
        return len(self._inflight) + len(self._order)


class ChaosTracker:
    """Delivery obligations under crashes, partitions and restarts.

    An operation obliges the members given at submission: those up and in
    a view shared with its origin.  A member is released when it later
    crashes, when it installs a view that lacks the origin, or when the
    origin installs a view that lacks it, before delivering.  Obligations are
    released as those events happen; an operation leaves the in-flight
    set once no obligation remains, with a latency sample if at least one
    obligated member delivered it.
    """

    def __init__(self) -> None:
        self._inflight: dict[Hashable, list] = {}
        self.latencies = array("d")
        self.submitted = 0
        self.deliveries = 0
        self.released = 0

    def submit(self, key: Key, due: float, obliged: Iterable[str]) -> None:
        self.submitted += 1
        # [due, origin, members still obliged, last obliged delivery time]
        entry = [due, key[0], set(obliged), None]
        if entry[2]:
            self._inflight[key] = entry

    def delivered(self, member: str, origin: str, msg_no: int, at: float) -> None:
        self.deliveries += 1
        entry = self._inflight.get((origin, msg_no))
        if entry is None or member not in entry[2]:
            return
        entry[2].discard(member)
        entry[3] = at
        if not entry[2]:
            self._resolve((origin, msg_no), entry)

    def crashed(self, member: str) -> None:
        """``member`` went down: it owes nothing submitted so far."""
        self._release(lambda origin, obliged: {member} & obliged)

    def view(self, member: str, members: Iterable[str]) -> None:
        """``member`` installed a view.

        The member stops owing operations whose origin the view lacks,
        and operations *from* the member stop obliging the members its
        view lacks (the token that carries them no longer visits those).
        """
        present = set(members)

        def released(origin: str, obliged: set) -> set:
            if origin == member:
                return obliged - present
            if member in obliged and origin not in present:
                return {member}
            return set()

        self._release(released)

    def _release(self, released) -> None:
        done = []
        for key, entry in self._inflight.items():
            drop = released(entry[1], entry[2])
            if drop:
                entry[2] -= drop
                self.released += len(drop)
                if not entry[2]:
                    done.append((key, entry))
        for key, entry in done:
            self._resolve(key, entry)

    def _resolve(self, key: Hashable, entry: list) -> None:
        del self._inflight[key]
        if entry[3] is not None:
            self.latencies.append(entry[3] - entry[0])

    @property
    def in_flight(self) -> int:
        return len(self._inflight)
