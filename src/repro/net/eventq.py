"""Pluggable event-queue backends for the simulation engine.

The :class:`~repro.net.engine.Simulator` hot loop is one queue pop per
event, so the queue's constant factors dominate every experiment's wall
time. Two interchangeable backends are provided:

:class:`HeapQueue`
    The seed behaviour: a binary heap (:mod:`heapq`) of
    :class:`~repro.net.engine.Event` objects. O(log n) per operation,
    and — the real cost in CPython — every sift comparison is a Python
    ``Event.__lt__`` call.

:class:`CalendarQueue`
    The default: a calendar queue in the spirit of Brown's O(1) priority
    queue (CACM 1988), the structure ns-2 itself uses for its event
    list — the event-engine analogue of the paper's O(1) scheduling
    story. Events are hashed by time into width-``w`` buckets ("days");
    the current bucket is sorted once (a C-level sort of plain tuples)
    and drained by index, so the steady-state cost per event is one list
    append plus an amortised share of one C sort — no per-comparison
    Python calls at all. The bucket width adapts automatically to the
    observed event density (see below).

Determinism contract
--------------------
Both backends dequeue in exactly ``(time, seq)`` order: earlier times
first, and ties broken by scheduling order. The equivalence is
property-tested (random times, ties, cancellations, mid-run inserts) and
asserted end-to-end: experiment artifacts are bit-identical under
``--engine heap`` and ``--engine calendar``.

Calendar internals
------------------
Buckets are keyed by *epoch* ``int(time / width)`` in a dict, with a
small int-heap of occupied epochs, so sparse regions of the timeline
cost nothing (no empty-bucket scan, unlike the classic ring layout).
``pop`` drains a sorted "near" list (the promoted current epoch) by
index; events scheduled into the current epoch are placed by
``bisect.insort`` on plain ``(time, seq, event)`` tuples. Because float
division by a positive width is monotone, epoch assignment preserves
time order exactly, so the promoted minimum epoch always holds the
global minimum event.

Resizing: when a promoted bucket holds more than ``resize_hi``
*distinct* timestamps, the width is recomputed from that bucket's
distinct-timestamp density (one rebuild instead of repeated halving). A
bucket that is oversized only through ties — a batch of synchronised
sources firing at one instant — is left alone, because no width can
split simultaneous events. A long streak of near-empty promotions
doubles the width. Rebuilds only happen between epochs (the near list
empty), which is what keeps the near/far ordering invariant trivially
true.

Every rebuild, shrink or widen, also spends a rehash budget: it is
allowed only once the queue has drained (promoted) at least as many
events as the previous rebuild moved. Each rebuild's moves are thus
repaid by events drained before the next rebuild, except the last
rebuild's, which are at most the pending population; so for any arrival
pattern the total rehash work is at most *events popped + peak pending*
— Brown's amortised O(1) argument made explicit. The count lives in
``_promote``, so ``push`` pays nothing for it.
"""

from __future__ import annotations

import heapq
import os
from bisect import insort
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import Event

__all__ = [
    "QUEUE_KINDS",
    "DEFAULT_KIND",
    "ENGINE_ENV_VAR",
    "HeapQueue",
    "CalendarQueue",
    "make_queue",
    "default_kind",
]

#: Environment variable consulted for the process-default backend. Set by
#: the harness (``--engine``) before sweep pools spawn, so pool workers
#: build their Simulators on the same backend as the parent.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: The fast backend is the default; ``heap`` is the seed behaviour.
DEFAULT_KIND = "calendar"

#: Epoch used for times where ``int(time / width)`` overflows (inf). Must
#: sort after every finite epoch: the largest achievable one is
#: max_float / min_subnormal ~= 3.6e631 < 2^2100, so 2^2200 is safely
#: beyond it for any positive width.
_FAR_EPOCH = 1 << 2200


def default_kind() -> str:
    """The process-default backend kind (``REPRO_ENGINE`` or calendar)."""
    kind = os.environ.get(ENGINE_ENV_VAR, DEFAULT_KIND)
    if kind not in QUEUE_KINDS:
        raise ConfigurationError(
            f"{ENGINE_ENV_VAR}={kind!r} is not a queue kind; "
            f"choose from {sorted(QUEUE_KINDS)}"
        )
    return kind


class HeapQueue:
    """The seed backend: ``heapq`` over :class:`Event` objects."""

    kind = "heap"

    __slots__ = ("_heap", "size")

    def __init__(self) -> None:
        self._heap: List["Event"] = []
        self.size = 0

    def push(self, event: "Event") -> None:
        heapq.heappush(self._heap, event)
        self.size += 1

    def pop(self) -> "Event":
        event = heapq.heappop(self._heap)
        self.size -= 1
        return event

    def peek(self) -> Optional["Event"]:
        heap = self._heap
        return heap[0] if heap else None

    def peek_time(self) -> Optional[float]:
        """Earliest queued timestamp without popping (None when empty)."""
        heap = self._heap
        return heap[0].time if heap else None

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def stats(self) -> Dict[str, float]:
        """Backend-specific observability counters."""
        return {}

    def __repr__(self) -> str:
        return f"HeapQueue(pending={self.size})"


class CalendarQueue:
    """Calendar queue: O(1) amortised enqueue/dequeue, width-adaptive.

    Args:
        width: Initial bucket width in seconds of simulated time. The
            width self-tunes, so the default only matters for the first
            few promotions.
        target_per_bucket: Desired events per bucket; the resize rules
            steer the observed bucket occupancy towards this.
        resize_hi: A promoted bucket with more distinct timestamps than
            this triggers a width recomputation (shrink) from its
            measured density.
        widen_streak: This many consecutive near-empty promotions double
            the width.
        min_width / max_width: Clamps for the adaptive width.
    """

    kind = "calendar"

    __slots__ = (
        "_width", "_near", "_head", "_far", "_epochs", "_cur_epoch",
        "size", "resizes", "rehashed", "_target", "_hi", "_widen_streak",
        "_small_run", "_min_width", "_max_width", "_drained", "_budget",
    )

    def __init__(
        self,
        *,
        width: float = 0.01,
        target_per_bucket: int = 16,
        resize_hi: int = 512,
        widen_streak: int = 64,
        min_width: float = 1e-12,
        max_width: float = 1e6,
    ) -> None:
        if width <= 0:
            raise ConfigurationError(f"bucket width must be > 0, got {width}")
        if target_per_bucket < 1 or resize_hi < 2 * target_per_bucket:
            raise ConfigurationError(
                "need target_per_bucket >= 1 and "
                "resize_hi >= 2 * target_per_bucket"
            )
        self._width = float(width)
        #: Sorted (time, seq, event) tuples of the current epoch,
        #: consumed from ``_head`` (index-pop; no O(n) list shifts).
        self._near: List[Tuple[float, int, "Event"]] = []
        self._head = 0
        #: epoch -> unsorted list of (time, seq, event) tuples.
        self._far: Dict[int, List[Tuple[float, int, "Event"]]] = {}
        #: Min-heap of occupied epochs (plain ints: C-speed sifts).
        self._epochs: List[int] = []
        #: Epoch covered by ``_near``; None until the first promotion.
        self._cur_epoch: Optional[int] = None
        self.size = 0
        #: Number of automatic width changes (observability).
        self.resizes = 0
        #: Tuples moved by rebuilds, in total (observability).
        self.rehashed = 0
        self._target = target_per_bucket
        self._hi = resize_hi
        self._widen_streak = widen_streak
        self._small_run = 0
        self._min_width = min_width
        self._max_width = max_width
        #: Events promoted since the last rebuild, and the number that
        #: rebuild moved: the next rebuild waits until drained >= budget.
        self._drained = 0
        self._budget = 0

    # -- core operations ----------------------------------------------------

    def push(self, event: "Event") -> None:
        t = event.time
        try:
            epoch = int(t / self._width)
        except (OverflowError, ValueError):
            epoch = _FAR_EPOCH
        cur = self._cur_epoch
        if cur is not None and epoch <= cur:
            # Lands in the epoch being drained: keep the remaining near
            # list sorted (C bisect on plain tuples; lo skips the
            # already-consumed prefix).
            insort(self._near, (t, event.seq, event), lo=self._head)
        else:
            bucket = self._far.get(epoch)
            if bucket is None:
                self._far[epoch] = bucket = [(t, event.seq, event)]
                heapq.heappush(self._epochs, epoch)
            else:
                bucket.append((t, event.seq, event))
        self.size += 1

    def pop(self) -> "Event":
        head = self._head
        if head >= len(self._near):
            self._promote()
            head = self._head
        item = self._near[head]
        head += 1
        # Compact the consumed prefix occasionally so a long-lived queue
        # does not pin every fired event's tuple.
        if head >= 1024 and head * 2 >= len(self._near):
            del self._near[:head]
            head = 0
        self._head = head
        self.size -= 1
        return item[2]

    def peek(self) -> Optional["Event"]:
        if self._head >= len(self._near):
            if not self._far:
                return None
            self._promote()
        return self._near[self._head][2]

    def peek_time(self) -> Optional[float]:
        """Earliest queued timestamp without popping (None when empty).

        May promote a bucket (like :meth:`peek`) but never reorders or
        consumes anything.
        """
        event = self.peek()
        return None if event is None else event.time

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    # -- bucket management --------------------------------------------------

    def _promote(self) -> None:
        """Install the earliest occupied epoch as the near list.

        Caller guarantees at least one far bucket exists. Resizes happen
        only here — the near list is empty, so rehashing every pending
        event cannot break the near/far time ordering — and only once
        the rehash budget is paid (see the module docstring).
        """
        epoch = heapq.heappop(self._epochs)
        bucket = self._far.pop(epoch)
        n = len(bucket)
        if n > self._hi and self._drained >= self._budget:
            rewidth = self._density_width(bucket)
            if rewidth < self._width:
                self._rebuild(rewidth, bucket)
                epoch = heapq.heappop(self._epochs)
                bucket = self._far.pop(epoch)
                n = len(bucket)
        if n <= 2:
            self._small_run += 1
            if (
                self._small_run >= self._widen_streak
                and self._width < self._max_width
                and self._drained >= self._budget
            ):
                self._rebuild(min(self._width * 2.0, self._max_width), bucket)
                epoch = heapq.heappop(self._epochs)
                bucket = self._far.pop(epoch)
                n = len(bucket)
        else:
            self._small_run = 0
        bucket.sort()
        self._drained += n
        self._near = bucket
        self._head = 0
        self._cur_epoch = epoch

    def _density_width(self, bucket: List[Tuple[float, int, "Event"]]) -> float:
        """Width putting ~``target_per_bucket`` distinct timestamps of this
        bucket's density in one bucket; clamped to guarantee an actual
        shrink. Returns the current width (no shrink) when the bucket has
        at most ``resize_hi`` distinct timestamps: its excess is ties."""
        times = {item[0] for item in bucket}
        distinct = len(times)
        if distinct <= self._hi:
            return self._width
        width = (max(times) - min(times)) * self._target / distinct
        return max(min(width, self._width / 2.0), self._min_width)

    def _rebuild(
        self, width: float, extra: List[Tuple[float, int, "Event"]]
    ) -> None:
        """Re-hash every pending far item (plus ``extra``) under ``width``."""
        items = extra
        for bucket in self._far.values():
            items += bucket
        self._width = width
        self._far = far = {}
        self._cur_epoch = None
        self.resizes += 1
        self.rehashed += len(items)
        self._budget = len(items)
        self._drained = 0
        self._small_run = 0
        for item in items:
            try:
                epoch = int(item[0] / width)
            except (OverflowError, ValueError):
                epoch = _FAR_EPOCH
            bucket = far.get(epoch)
            if bucket is None:
                far[epoch] = [item]
            else:
                bucket.append(item)
        self._epochs = list(far)
        heapq.heapify(self._epochs)

    # -- observability ------------------------------------------------------

    @property
    def width(self) -> float:
        """Current bucket width in seconds."""
        return self._width

    def stats(self) -> Dict[str, float]:
        """Backend-specific observability counters."""
        return {
            "queue_resizes": self.resizes,
            "queue_rehashed": self.rehashed,
        }

    def __repr__(self) -> str:
        return (
            f"CalendarQueue(pending={self.size}, width={self._width:.3g}, "
            f"buckets={len(self._far)}, resizes={self.resizes})"
        )


QUEUE_KINDS = {
    "heap": HeapQueue,
    "calendar": CalendarQueue,
}


def make_queue(kind: Optional[str] = None):
    """Build an event queue: ``"heap"``, ``"calendar"``, or the default.

    ``None`` resolves the process default (``REPRO_ENGINE`` environment
    variable, else ``calendar``).
    """
    if kind is None:
        kind = default_kind()
    try:
        factory = QUEUE_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown event-queue kind {kind!r}; "
            f"choose from {sorted(QUEUE_KINDS)}"
        ) from None
    return factory()
