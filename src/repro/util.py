"""Small shared utilities: fresh-name supply, error types, bounded LRU."""
from __future__ import annotations

import itertools
import threading
from collections import OrderedDict

__all__ = [
    "ReproError",
    "IRError",
    "TypeError_",
    "ADError",
    "ExecError",
    "NameSupply",
    "fresh",
    "BoundedLRU",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed IR (construction or validation failure)."""


class TypeError_(ReproError):
    """IR type error (suffixed to avoid shadowing the builtin)."""


class ADError(ReproError):
    """A program cannot be differentiated (unsupported construct/shape)."""


class ExecError(ReproError):
    """Runtime failure while executing IR."""


class NameSupply:
    """Thread-safe supply of fresh SSA names.

    Names are ``<base>_<counter>``; the counter is global so every generated
    name in a program is unique, which the AD transforms rely on.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._lock = threading.Lock()

    def fresh(self, base: str = "t") -> str:
        # Strip any previous numeric suffix so repeated freshening doesn't
        # produce ever-growing names like x_1_2_3.
        stem, _, tail = base.rpartition("_")
        if stem and tail.isdigit():
            base = stem
        with self._lock:
            return f"{base}_{next(self._counter)}"


_GLOBAL_SUPPLY = NameSupply()


def fresh(base: str = "t") -> str:
    """Return a globally fresh name derived from ``base``."""
    return _GLOBAL_SUPPLY.fresh(base)


#: Sentinel distinguishing "no entry" from a stored ``None`` in
#: ``BoundedLRU.get`` — a stored ``None`` is a real value and must both be
#: returned and refreshed as most-recently used.
_MISSING = object()


class BoundedLRU:
    """An access-ordered mapping bounded to a capacity supplied at put time.

    The plan cache's store.

    Thread safety: every operation takes an internal re-entrant lock —
    ``OrderedDict.move_to_end``/``popitem`` are not safe under concurrent
    mutation (users may call one ``Compiled`` from several threads).
    Compound caller sequences (get-then-put) remain benign races: the worst
    case is one duplicate lowering, never a corrupted mapping.
    """

    def __init__(self) -> None:
        self._d: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.RLock()

    def get(self, key, default=None):
        """The stored value (refreshed as most-recent), or ``default``.

        A stored ``None`` is a hit, not a miss: it is refreshed and returned
        like any other value (callers that store ``None`` distinguish a miss
        by passing their own sentinel ``default``).
        """
        with self._lock:
            v = self._d.get(key, _MISSING)
            if v is _MISSING:
                return default
            self._d.move_to_end(key)
            return v

    def put(self, key, value, capacity: int) -> int:
        """Store ``key``; evict least-recent entries beyond ``capacity``.
        Returns the eviction count."""
        with self._lock:
            self._d[key] = value
            self._d.move_to_end(key)
            n = 0
            while len(self._d) > capacity:
                self._d.popitem(last=False)
                n += 1
            return n

    def __len__(self) -> int:
        with self._lock:
            return len(self._d)

    def clear(self) -> None:
        with self._lock:
            self._d.clear()
