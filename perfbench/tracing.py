"""In-memory span tracing for the traced benchmark run.

A :class:`Tracer` wraps a layer's entry points from outside the program (it
replaces attributes on classes and modules and restores them afterwards), so
the code under ``src/`` carries no tracing hooks.  Every wrapped call records
one span ``[name, start, end, parent, op_id]``; spans stay in memory until the
run ends.  A call re-entering the layer it is already inside (for example
``Compressor.compress`` calling ``compress_bytes``) is folded into the outer
span, so ``calls`` counts entries into a layer, not internal recursion.
Calls made outside an op (set-up, output checks) record nothing.

A layer's *self time* is its span's duration minus the part of that interval
its child spans cover; the root ``op`` span's self time is the unattributed
remainder, so the self times of all spans of one op sum to the op's wall time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ROOT",
    "Tracer",
    "covered_length",
    "layer_totals",
    "self_times",
]

#: name of the per-op root span; its self time is the unattributed remainder
ROOT = "op"

#: field positions in a span record; the fifth field is the op id
NAME, START, END, PARENT = range(4)

#: ``after(counters, args, kwargs, result)`` — per-call counter update
AfterHook = Callable[[Dict[str, float], tuple, dict, object], None]


class Tracer:
    """Records spans around wrapped callables; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def wrap(self, fn: Callable, name: str, after: Optional[AfterHook] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``."""
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack or spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1], self.op_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[END] = clock()
            if after is not None:
                after(counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; every span inside carries ``op_id``."""
        self.op_id = op_id
        record = [ROOT, time.perf_counter(), 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record[END] = time.perf_counter()

    # -------------------------------------------------------------- patching

    def patch(self, owner: object, attr: str, name: str, after: Optional[AfterHook] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, after))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------- arithmetic


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered_length(children[index], span[START], span[END])
        for index, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"calls": n, "self_s": seconds}}`` summed over all spans."""
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += own
    return dict(totals)
