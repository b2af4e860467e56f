"""Work / span / memory cost model.

The paper's evaluation is framed around machine-independent ratios (AD
overhead = differentiated / primal).  We reproduce those with an instrumented
interpretation that counts:

* ``work``  — scalar operations (a bulk op over m elements costs m);
* ``span``  — the work-depth critical path: ``map`` iterations run in
  parallel (max), ``reduce``/``scan`` cost ``O(log n)`` levels of their
  operator, sequential loops sum their iterations;
* ``mem``   — global-memory element traffic (array reads + writes; scalars
  live in registers, which is exactly the locality argument of §4.1);
* ``peak_mem`` — high-water mark of live checkpoint/tape allocations, used by
  the strip-mining ablation.

The recorder is driven by hooks in the reference interpreter.  Frames nest:
a ``par`` frame combines its iterations with max, a ``red(n)`` frame with
``max * ceil(log2 n)`` (a balanced combining tree), a ``seq`` frame adds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

__all__ = ["CostRecorder", "Cost"]


@dataclass
class Cost:
    """An immutable summary of a recorded execution."""

    work: int = 0
    span: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    peak_alloc: int = 0

    @property
    def mem(self) -> int:
        return self.mem_reads + self.mem_writes

    def ratio(self, other: "Cost") -> float:
        """Work ratio self/other — the paper's 'overhead' metric."""
        return self.work / max(other.work, 1)


class _Frame:
    __slots__ = ("mode", "n", "span", "iter_max", "iter_span")

    def __init__(self, mode: str, n: int = 0) -> None:
        self.mode = mode  # 'seq' | 'par' | 'red'
        self.n = n
        self.span = 0  # accumulated sequential span in this frame
        self.iter_max = 0  # max span among completed iterations
        self.iter_span = 0


class CostRecorder:
    """Mutable cost accumulator passed to the interpreter."""

    def __init__(self) -> None:
        self.work = 0
        self.mem_reads = 0
        self.mem_writes = 0
        self.live_alloc = 0
        self.peak_alloc = 0
        self._frames: List[_Frame] = [_Frame("seq")]

    # -- scalar / memory events ------------------------------------------------

    def op(self, count: int = 1, span: int = 1) -> None:
        """``count`` scalar ops executed as one parallel step of depth ``span``."""
        self.work += count
        self._frames[-1].span += span

    def mem(self, reads: int = 0, writes: int = 0) -> None:
        self.mem_reads += reads
        self.mem_writes += writes

    def alloc(self, elems: int) -> None:
        """Tape/checkpoint allocation (tracked for peak footprint)."""
        self.live_alloc += elems
        self.peak_alloc = max(self.peak_alloc, self.live_alloc)

    def free(self, elems: int) -> None:
        self.live_alloc = max(0, self.live_alloc - elems)

    def alloc_mark(self) -> int:
        return self.live_alloc

    def alloc_release(self, mark: int) -> None:
        """Free everything allocated since ``mark`` (loop-iteration scoped:
        checkpoint buffers allocated inside an iteration die with it)."""
        self.live_alloc = min(self.live_alloc, mark)

    # -- structured frames -------------------------------------------------------

    def push(self, mode: str, n: int = 0) -> None:
        self._frames.append(_Frame(mode, n))

    def iter_begin(self) -> None:
        f = self._frames[-1]
        f.iter_span = f.span
        # Iterations of par/red frames each start from the frame's base span.

    def iter_end(self) -> None:
        f = self._frames[-1]
        delta = f.span - f.iter_span
        f.iter_max = max(f.iter_max, delta)
        if f.mode in ("par", "red"):
            f.span = f.iter_span  # parallel iterations don't accumulate

    def pop(self) -> None:
        f = self._frames.pop()
        parent = self._frames[-1]
        if f.mode == "par":
            parent.span += f.span + f.iter_max
        elif f.mode == "red":
            levels = max(1, math.ceil(math.log2(max(f.n, 2))))
            parent.span += f.span + f.iter_max * levels
        else:
            parent.span += f.span

    # -- summary ---------------------------------------------------------------

    def snapshot(self) -> Cost:
        return Cost(
            work=self.work,
            span=self._frames[0].span,
            mem_reads=self.mem_reads,
            mem_writes=self.mem_writes,
            peak_alloc=self.peak_alloc,
        )


class NullRecorder(CostRecorder):
    """Recorder that records nothing (kept API-compatible, near-zero cost)."""

    def op(self, count: int = 1, span: int = 1) -> None:  # noqa: D102
        pass

    def mem(self, reads: int = 0, writes: int = 0) -> None:  # noqa: D102
        pass

    def alloc(self, elems: int) -> None:  # noqa: D102
        pass

    def free(self, elems: int) -> None:  # noqa: D102
        pass

    def alloc_mark(self) -> int:  # noqa: D102
        return 0

    def alloc_release(self, mark: int) -> None:  # noqa: D102
        pass

    def push(self, mode: str, n: int = 0) -> None:  # noqa: D102
        pass

    def iter_begin(self) -> None:  # noqa: D102
        pass

    def iter_end(self) -> None:  # noqa: D102
        pass

    def pop(self) -> None:  # noqa: D102
        pass
