"""Sliding windows, slide intervals, and merge thresholds.

The paper's windows come in two flavours (Section 2.1): *count-based*
(``W_c`` — a window of the last ``L`` tuples, advancing every ``W_s``
tuples) and *time-based* (``W_t`` — the last ``L`` seconds, advancing every
``W_s`` seconds).  SPO-Join additionally derives its **merging threshold**
``delta`` from the slide interval: either the full slide interval
(``delta = W_s``) or, for large slides, the slide divided by the number of
downstream PO-Join processing elements (``delta = W_s / |PEs|``,
Section 3.3).
"""

from __future__ import annotations

import enum
import math
import warnings
from typing import Optional, Tuple

__all__ = ["WindowKind", "WindowSpec", "MergePolicy", "MergeClock"]

#: Relative slack when deciding whether length/slide is an integral
#: ratio: time-based specs produce quotients like 1.0/0.2 =
#: 4.999999999999999 that are divisible in intent.
_DIVISIBILITY_TOL = 1e-9


def _interval_count(total: float, step: float) -> Tuple[int, bool]:
    """How many ``step`` intervals cover ``total``, and whether exactly.

    Returns ``(ceil(total / step), exact)`` with a relative float
    tolerance: a quotient within ``_DIVISIBILITY_TOL`` of an integer is
    treated as that integer.  Ceiling (never banker's rounding) is the
    explicit semantics for non-divisible specs — a partial trailing
    interval still needs covering, so retention rounds *up*.
    """
    ratio = total / step
    nearest = round(ratio)
    if abs(ratio - nearest) <= _DIVISIBILITY_TOL * max(1.0, abs(ratio)):
        return max(1, int(nearest)), True
    return max(1, math.ceil(ratio)), False


class WindowKind(enum.Enum):
    COUNT = "count"
    TIME = "time"


class WindowSpec:
    """A sliding window ``W_L`` with slide interval ``W_s``.

    For count-based windows both quantities are tuple counts; for
    time-based windows they are seconds.
    """

    __slots__ = ("kind", "length", "slide")

    def __init__(self, kind: WindowKind, length: float, slide: float) -> None:
        if length <= 0:
            raise ValueError("window length must be positive")
        if slide <= 0:
            raise ValueError("slide interval must be positive")
        if slide > length:
            raise ValueError("slide interval cannot exceed window length")
        __, exact = _interval_count(length, slide)
        if not exact:
            warnings.warn(
                f"window length {length!r} is not an integral multiple of "
                f"slide {slide!r}; slide counts round up (ceiling), so the "
                "effective window covers slightly more than L",
                UserWarning,
                stacklevel=3,
            )
        self.kind = kind
        self.length = length
        self.slide = slide

    @classmethod
    def count(cls, length: int, slide: int) -> "WindowSpec":
        return cls(WindowKind.COUNT, length, slide)

    @classmethod
    def time(cls, length: float, slide: float) -> "WindowSpec":
        return cls(WindowKind.TIME, length, slide)

    @property
    def num_slides(self) -> int:
        """Number of slide intervals that cover one full window.

        Explicit ceiling semantics: a non-divisible spec needs a partial
        trailing slide, which counts as a whole one (previously
        ``round()`` silently banker's-rounded it away half the time).
        """
        return _interval_count(self.length, self.slide)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WindowSpec({self.kind.value}, L={self.length}, s={self.slide})"


class MergePolicy:
    """Derives the merging threshold ``delta`` from the window spec.

    ``sub_intervals=1`` reproduces the small-slide strategy
    ``delta = W_s``; setting it to the number of downstream PO-Join PEs
    reproduces the large-slide strategy ``delta = W_s / |PEs_PO-Join|``
    (Section 3.3).  The immutable component then retains
    ``num_slides * sub_intervals`` linked PO-Join batches before expiry.
    """

    __slots__ = ("window", "sub_intervals")

    def __init__(self, window: WindowSpec, sub_intervals: int = 1) -> None:
        if sub_intervals < 1:
            raise ValueError("sub_intervals must be >= 1")
        self.window = window
        self.sub_intervals = sub_intervals

    @property
    def delta(self) -> float:
        """The merge threshold, in tuples (count windows) or seconds."""
        return self.window.slide / self.sub_intervals

    @property
    def max_batches(self) -> int:
        """Immutable batches retained before coarse-grained expiry.

        One window holds ``W_L / delta`` merge intervals; the newest slide's
        worth of data still lives in the mutable part, so the immutable
        linked list keeps the remainder.  Non-divisible ratios round
        *up* (ceiling): retaining a partial interval's extra batch beats
        expiring tuples still inside the window.
        """
        total = _interval_count(self.window.length, self.delta)[0]
        return max(1, total - self.sub_intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MergePolicy(delta={self.delta}, sub_intervals={self.sub_intervals}, "
            f"max_batches={self.max_batches})"
        )


class MergeClock:
    """Deterministic merge-boundary detection in router arrival order.

    Count windows fire every ``delta`` tuples (the firing tuple closes
    the interval); time windows arm on the first event time and fire
    whenever an event time reaches the deadline, which then advances by
    ``delta``.  Every consumer of the router's order — the local join,
    the distributed operators, the batch-cutting routers — advances its
    own copy, so all of them agree on boundaries (and on ``epoch``, the
    number of intervals closed so far) without coordination messages.
    """

    __slots__ = ("kind", "delta", "count", "next_time", "epoch")

    def __init__(self, policy: MergePolicy) -> None:
        self.kind = policy.window.kind
        self.delta = policy.delta
        #: Tuples seen in the open interval (count windows).
        self.count = 0.0
        #: Deadline of the open interval (time windows; None until armed).
        self.next_time: Optional[float] = None
        self.epoch = 0

    def advance(self, t) -> bool:
        """Step past tuple ``t``; True when it closes a merge interval.

        Count windows never read ``t`` (callers without a tuple at hand
        may pass None); time windows read its ``event_time``.
        """
        if self.kind is WindowKind.COUNT:
            self.count += 1
            if self.count >= self.delta:
                self.count = 0
                self.epoch += 1
                return True
            return False
        return self.advance_time(t.event_time)

    def advance_time(self, event_time: float) -> bool:
        """The time-window step of :meth:`advance`, from a bare event time."""
        if self.next_time is None:
            self.next_time = event_time + self.delta
            return False
        if event_time >= self.next_time:
            self.next_time += self.delta
            self.epoch += 1
            return True
        return False

    def copy(self) -> "MergeClock":
        """An independent clock with identical state (for lookahead)."""
        clone = MergeClock.__new__(MergeClock)
        clone.kind = self.kind
        clone.delta = self.delta
        clone.count = self.count
        clone.next_time = self.next_time
        clone.epoch = self.epoch
        return clone
