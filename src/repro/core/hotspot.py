"""Adaptive metadata hotspot mitigation (docs/MODEL.md §11).

The :class:`HotspotManager` closes the loop the ROADMAP's "millions of
users" story needs: the static round-robin range assignment bottlenecks a
skewed workload on one range owner, so the manager rolls the metadata
service's per-range activity (:meth:`MetadataService.take_heat`) into
online mitigation actions every ``hotspot_interval`` seconds:

* a **write-hot** range (``range_split_threshold`` ops per interval)
  splits into sub-ranges with independent member sets until its fan-out
  covers the active pool (:meth:`MetadataService.split_range`),
* a **read-hot** range re-replicates onto extra members and rotates which
  replica answers (:meth:`MetadataService.set_read_spread`),
* a split range that stays **cold** (below ``range_merge_threshold``) for
  two consecutive intervals merges back,
* when a hot range has exhausted the pool's fan-out, the pool itself
  **grows** (up to ``pool_max_servers``); grown servers idle for two
  intervals are drained and **retired** again.

Every action drains through the metadata service's quorum checks — the
minority side of a partition cannot split, merge, or migrate — and a
refused action is simply deferred to a later tick (``hotspot-deferred``).
State handoff is priced like a takeover: the journal/checkpoint pieces
replayed onto new members become a timed background transfer, and the
metadata service drops its mirror on every layout change exactly as on a
takeover (docs/MODEL.md §9).

The tick loop is a normal engine process, so it must let the engine drain
to quiescence: it exits after an idle interval and is restarted by the
metadata service's activity hook on the next recorded operation.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.core.errors import DataLossError
from repro.sim.engine import Event
from repro.units import GiB

__all__ = ["HotspotManager"]

#: Nominal serialized size of one replayed metadata piece and the
#: bandwidth of the handoff stream — the takeover replay cost model
#: (:mod:`repro.core.recovery`), shared so a split's handoff and a
#: takeover's replay price identically.
_HANDOFF_RECORD_BYTES = 64.0
_HANDOFF_BANDWIDTH = 4.0 * GiB
#: Consecutive cold intervals before a merge / pool shrink.
_COLD_TICKS = 2
#: Idle intervals the loop keeps ticking while splits or grown servers
#: are still outstanding (cold merges and pool shrinks need idle ticks
#: to mature) before it quiesces anyway — the bound keeps a permanently
#: deferred action (e.g. a merge refused for quorum on a dead sub) from
#: ticking the engine forever; the activity hook revives the loop.
_MAX_IDLE_TICKS = 8


class HotspotManager:
    """Heat-driven split/merge/re-replication/pool-elasticity daemon."""

    def __init__(self, system) -> None:
        # ``system`` is a UniviStorServers (typed loosely: import cycle).
        self.system = system
        self.engine = system.engine
        config = system.config
        self.split_threshold = config.range_split_threshold
        self.merge_threshold = config.range_merge_threshold
        self.interval = config.hotspot_interval
        self.pool_max = config.pool_max_servers
        metadata = system.metadata
        metadata.heat_enabled = True
        metadata.on_activity = self._on_activity
        #: range -> consecutive cold intervals (split ranges only).
        self._cold_streak: Dict[int, int] = {}
        #: Consecutive intervals the grown part of the pool stayed idle.
        self._pool_idle_streak = 0
        #: Servers this manager grew (only these are shrink candidates —
        #: the configured base deployment is never drained).
        self.grown_servers: List[int] = []
        #: Action log, newest last: (time, action, range_or_server).
        self.actions: List[tuple] = []
        self._loop: Optional[Event] = None

    # -- lifecycle ---------------------------------------------------------
    def _on_activity(self) -> None:
        """Metadata activity while the tick loop is quiesced: restart it."""
        if self._loop is None or self._loop.triggered:
            self._loop = self.engine.process(self._tick_loop(),
                                             name="hotspot-manager")

    def _tick_loop(self) -> Generator:
        idle = 0
        while True:
            yield self.engine.timeout(self.interval)
            heat = self.system.metadata.take_heat()
            acted = self._act(heat)
            if heat or acted:
                idle = 0
                continue
            # Idle interval: keep ticking while cold merges or pool
            # shrinks can still mature, then quiesce (the activity hook
            # revives the loop on the next recorded operation).
            idle += 1
            metadata = self.system.metadata
            pending = bool(metadata._splits) or bool(self.grown_servers)
            if not pending or idle >= _MAX_IDLE_TICKS:
                return

    # -- decision pass -----------------------------------------------------
    def _act(self, heat: Dict[int, tuple]) -> bool:
        metadata = self.system.metadata
        acted = False
        hot_saturated = False
        for range_index, (writes, reads) in sorted(heat.items()):
            total = writes + reads
            if total >= self.split_threshold:
                self._cold_streak.pop(range_index, None)
                self._pool_idle_streak = 0
                if writes >= reads:
                    did, saturated = self._split_hot(range_index)
                    acted |= did
                    hot_saturated |= saturated
                else:
                    acted |= self._spread_hot(range_index)
            elif (total <= self.merge_threshold
                    and range_index in metadata._splits):
                streak = self._cold_streak.get(range_index, 0) + 1
                self._cold_streak[range_index] = streak
                if streak >= _COLD_TICKS:
                    acted |= self._merge_cold(range_index)
        # Split ranges with *no* recorded activity this interval are cold
        # too — heat dicts only carry touched ranges.
        for range_index in list(metadata._splits):
            if range_index in heat:
                continue
            streak = self._cold_streak.get(range_index, 0) + 1
            self._cold_streak[range_index] = streak
            if streak >= _COLD_TICKS:
                acted |= self._merge_cold(range_index)
        acted |= self._resize_pool(hot_saturated, heat)
        return acted

    def _split_hot(self, range_index: int) -> tuple:
        """Split a write-hot range until its sub count reaches the active
        pool size; returns ``(acted, pool_saturated)``."""
        metadata = self.system.metadata

        def sub_count() -> int:
            subs = metadata._splits.get(range_index)
            return len(subs) if subs else 1

        pool_size = len(metadata.pool_servers())
        acted = False
        while sub_count() < pool_size:
            before = sub_count()
            try:
                moved = metadata.split_range(range_index)
            except DataLossError:
                self.system.count("hotspot-deferred")
                return acted, False
            if sub_count() <= before:
                return acted, False  # cannot split further (width < 2)
            acted = True
            self.system.count("meta-split")
            self.system.telemetry_hook(
                "hotspot-split",
                f"range:{range_index}x{len(metadata._splits[range_index])}",
                0.0)
            self.actions.append((self.engine.now, "split", range_index))
            self._handoff(f"split:range{range_index}", moved)
        saturated = (len(metadata._splits.get(range_index, ()))
                     >= pool_size > 0)
        return acted, saturated

    def _spread_hot(self, range_index: int) -> bool:
        """Re-replicate a read-hot range and rotate its read replica."""
        metadata = self.system.metadata
        if range_index in metadata._read_spread:
            return False  # already spread; rotation is doing its job
        try:
            moved = metadata.set_read_spread(range_index)
        except DataLossError:
            self.system.count("hotspot-deferred")
            return False
        self.system.count("meta-rereplicate")
        self.system.telemetry_hook("hotspot-rereplicate",
                                   f"range:{range_index}", 0.0)
        self.actions.append((self.engine.now, "rereplicate", range_index))
        if moved:
            self._handoff(f"rereplicate:range{range_index}", moved)
        return True

    def _merge_cold(self, range_index: int) -> bool:
        metadata = self.system.metadata
        try:
            moved = metadata.merge_range(range_index)
        except DataLossError:
            self.system.count("hotspot-deferred")
            return False
        self._cold_streak.pop(range_index, None)
        metadata._read_spread.pop(range_index, None)
        self.system.count("meta-merge")
        self.system.telemetry_hook("hotspot-merge", f"range:{range_index}",
                                   0.0)
        self.actions.append((self.engine.now, "merge", range_index))
        self._handoff(f"merge:range{range_index}", moved)
        return True

    # -- pool elasticity ---------------------------------------------------
    def _resize_pool(self, hot_saturated: bool, heat: Dict) -> bool:
        system = self.system
        if hot_saturated and self.pool_max > 0:
            if len(system.metadata.pool_servers()) < self.pool_max:
                new_id = system.grow_pool()
                self.grown_servers.append(new_id)
                self.actions.append((self.engine.now, "grow", new_id))
                return True
            return False
        if not self.grown_servers:
            return False
        if heat:
            self._pool_idle_streak = 0
            return False
        self._pool_idle_streak += 1
        if self._pool_idle_streak < _COLD_TICKS:
            return False
        # The grown part of the pool idled through the streak: drain the
        # newest grown server (LIFO keeps ids contiguous at the top).
        server_id = self.grown_servers[-1]
        moved = system.shrink_pool(server_id)
        if moved is None:
            self.system.count("hotspot-deferred")
            return False
        self.grown_servers.pop()
        self._pool_idle_streak = 0
        self.actions.append((self.engine.now, "shrink", server_id))
        self._handoff(f"shrink:server{server_id}", moved)
        return True

    # -- handoff pricing ---------------------------------------------------
    def _handoff(self, label: str, moved_pieces: int) -> None:
        """Price a layout change's state handoff like a takeover replay:
        the moved journal/checkpoint pieces stream as a timed background
        transfer (the layout switch itself is a metadata RPC round)."""
        if moved_pieces <= 0:
            return
        self.engine.process(self._handoff_cost(label, moved_pieces),
                            name=f"hotspot-handoff:{label}")

    def _handoff_cost(self, label: str, moved_pieces: int) -> Generator:
        t_start = self.engine.now
        nbytes = moved_pieces * _HANDOFF_RECORD_BYTES
        yield self.engine.timeout(nbytes / _HANDOFF_BANDWIDTH
                                  + moved_pieces * 1e-6)
        self.system.telemetry_hook("hotspot-handoff", label, nbytes,
                                   t_start=t_start)
