"""Seeded open-loop operation generator and the pacers that drive it.

The generator draws Poisson arrivals at a fixed rate: each operation's
*due* time is fixed by the seed alone, never by how fast the system
answers, so a stall makes later operations wait instead of thinning the
load (an open loop).  Operations are produced lazily, one at a time, so
the benchmark holds only the next operation, never the whole schedule.

Two pacers issue the operations: :class:`SimPacer` on the simulator's
virtual clock, where every operation is issued exactly on time, and
:class:`AsyncPacer` on an asyncio loop, where the loop may run late and
the lateness of each issue is recorded.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

__all__ = ["Op", "OpenLoop", "SimPacer", "AsyncPacer"]


@dataclass(frozen=True, slots=True)
class Op:
    """One generated operation."""

    due: float
    kind: str  #: "agreed", "safe" or "set"
    origin: int  #: index of the member that issues it
    size: int  #: payload bytes
    key: int  #: key index for "set" operations, else -1


class OpenLoop:
    """Poisson arrivals at ``rate`` per second from ``start`` to ``stop``.

    ``mix`` is a sequence of ``(kind, weight)`` pairs.  The RNG is seeded
    from a string, so the stream is identical in every process whatever
    its hash seed.
    """

    def __init__(
        self,
        seed: int,
        *,
        label: str,
        rate: float,
        members: int,
        start: float,
        stop: float,
        mix: Sequence[tuple[str, float]] = (("agreed", 1.0),),
        sizes: tuple[int, int] = (64, 256),
        keys: int = 4096,
    ) -> None:
        if rate <= 0.0:
            raise ValueError("rate must be positive")
        self._seed = f"perfbench-{label}-{seed}"
        self.rate = rate
        self.members = members
        self.start = start
        self.stop = stop
        self.sizes = sizes
        self.keys = keys
        total = sum(w for _, w in mix)
        self._kinds = [k for k, _ in mix]
        self._cum = []
        acc = 0.0
        for _, w in mix:
            acc += w / total
            self._cum.append(acc)

    def __iter__(self) -> Iterator[Op]:
        """A fresh pass over the same stream: every pass yields equal ops."""
        rng = random.Random(self._seed)
        due = self.start
        while True:
            due += rng.expovariate(self.rate)
            if due >= self.stop:
                return
            u = rng.random()
            kind = self._kinds[-1]
            for k, edge in zip(self._kinds, self._cum):
                if u < edge:
                    kind = k
                    break
            origin = rng.randrange(self.members)
            size = rng.randint(*self.sizes)
            key = rng.randrange(self.keys) if kind == "set" else -1
            yield Op(due, kind, origin, size, key)


class SimPacer:
    """Issues generated operations on a simulator ``EventLoop``.

    Exactly one pending event at a time: the next operation's due time.
    """

    def __init__(self, loop, ops: OpenLoop, issue: Callable[[Op], None]) -> None:
        self.loop = loop
        self.issue = issue
        self._ops = iter(ops)
        self.issued = 0

    def start(self) -> None:
        self._schedule()

    def _schedule(self) -> None:
        op = next(self._ops, None)
        if op is not None:
            self.loop.call_at(op.due, self._fire, op)

    def _fire(self, op: Op) -> None:
        self.issued += 1
        self.issue(op)
        self._schedule()


class AsyncPacer:
    """Issues generated operations on an asyncio loop, recording lateness.

    Each wakeup issues every operation already due, so a late loop
    catches up in a burst instead of dropping load.  ``lateness`` holds
    one sample (seconds) per issued operation.
    """

    def __init__(self, loop, ops: OpenLoop, issue: Callable[[Op], None]) -> None:
        self.loop = loop
        self.issue = issue
        self._ops = iter(ops)
        self._next: Op | None = None
        self.issued = 0
        self.lateness = array("d")
        self.done = False

    def start(self) -> None:
        self._next = next(self._ops, None)
        self._arm()

    def _arm(self) -> None:
        if self._next is None:
            self.done = True
            return
        self.loop.call_at(self._next.due, self._fire)

    def _fire(self) -> None:
        now = self.loop.time()
        op = self._next
        while op is not None and op.due <= now:
            self.lateness.append(now - op.due)
            self.issued += 1
            self.issue(op)
            op = next(self._ops, None)
        self._next = op
        self._arm()

