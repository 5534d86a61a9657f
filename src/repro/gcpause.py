"""A scoped pause of CPython's cyclic garbage collector.

A collective builds its per-rank state in one synchronous burst: a
16384-rank write creates a writer, a log, its file and extent map, an
extent and a record for every rank before it yields.  The generational
collector, triggered by allocation counts, keeps re-walking that growing
heap during the burst and finds nothing to free, because the burst
builds state that stays alive.  :func:`collector_paused` switches the
collector off across such a section and restores the caller's state on
every exit (normal return, exception, or a generator closed around the
``with``).  It is used only around code that never yields, so no other
simulated process runs while the collector is off.

Pausing cannot change a result: reference counting still frees acyclic
garbage at once, and nothing in the package observes collection (no
finalizer, no weak reference).  Nested pauses are no-ops, and a caller
that switched the collector off itself finds it still off.
"""

from __future__ import annotations

import gc

__all__ = ["collector_paused"]


class collector_paused:
    """``with collector_paused():`` runs its body with the cyclic
    collector off (docs/MODEL.md §9, "Bulk builds and the cyclic
    collector").  A plain class rather than a generator-based context
    manager: a fault-heavy run enters thousands of small collectives,
    and this costs a fraction of a microsecond per entry."""

    __slots__ = ("_was_enabled",)

    def __enter__(self) -> None:
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info) -> None:
        if self._was_enabled:
            gc.enable()
