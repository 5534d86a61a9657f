"""Distributed and Hierarchical data Placement (§II-B1).

Each (file, process) pair owns one log per storage layer.  Writes append
into the current layer's log until it (or its backing device) runs out of
space, then spill to the next layer — transforming the application's
shared-file pattern into file-per-process logs spread over the hierarchy,
exactly Fig. 2.

A rank's layer geometry — tiers, c/p capacities, the virtual address
space, the store and device of every layer — is a shared, immutable
:class:`LayerPlan` (every rank on a node with the same communicator gets
the same one).  The mutable part, a layer's :class:`LogFile` and its
file, is created on the rank's first append to that layer, so a rank
that never spills owns one log, not one per layer.  A first append that
fits whole in fresh chunks builds the log already holding its bytes, in
one step (:meth:`PendingLog.create_filled`).

A log's space is a sequence of fixed-size **chunks**; data is appended
inside a chunk log-structured.  A **free-chunk stack** records reusable
chunk IDs: a fully dead chunk (all its bytes overwritten or deleted) is
pushed back and reused before fresh chunks are taken.  A log nothing
was freed from is a fill pointer; its per-chunk live bytes and its
free-chunk stack appear at its first free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.cluster.node import ComputeNode
from repro.core.config import StorageTier
from repro.core.va import VirtualAddressSpace
from repro.slotinit import slot_init
from repro.storage.datamodel import Payload
from repro.storage.device import CapacityError, StorageDevice
from repro.storage.posix import FileStore, SimFile

__all__ = ["Chunk", "LogFile", "PendingLog", "LayerPlan", "PlacedSegment",
           "DHPWriter", "LogFullError"]


class LogFullError(RuntimeError):
    """The log (or its device) cannot hold any more data."""


@dataclass(frozen=True)
class Chunk:
    """Descriptor of one log chunk (exposed for inspection/tests)."""

    chunk_id: int
    used: float
    live: float


@slot_init
@dataclass(frozen=True, slots=True)
class PlacedSegment:
    """Where one contiguous run of logical file bytes physically landed."""

    rank: int
    logical_offset: int
    length: int
    layer: int
    tier: StorageTier
    va: float
    physical_address: float


class LogFile:
    """One process's log on one storage layer.

    ``capacity`` bounds the log (the c/p rule); ``device`` is the capacity
    ledger actually charged chunk by chunk — a log may fail *before* its
    own bound if the device runs dry (other processes' logs compete for
    the same DRAM/BB space).  ``sim_file`` holds the real bytes.
    ``tier_totals``, when given, is a ``{tier: live bytes}`` ledger
    (with an entry for ``tier``) shared by a file's logs; the log keeps
    it current with :attr:`bytes_live`.  ``max_chunks``, when given,
    says ``capacity`` and ``chunk_size`` were already checked and
    converted (:meth:`PendingLog.make` does it once per layer plan).

    An append-only log is described by its fill pointer: the number of
    allocated chunks and the active chunk's fill.  Every allocated chunk
    but the active one is full, so no per-chunk usage is stored.  The
    per-chunk live bytes and the free-chunk stack are created by the
    first :meth:`free_segment` (docs/MODEL.md §2).
    """

    __slots__ = ("tier", "capacity", "chunk_size", "sim_file", "device",
                 "max_chunks", "tier_totals", "bytes_written", "bytes_live",
                 "_chunks", "_active", "_fill", "_live", "_free")

    def __init__(self, tier: StorageTier, capacity: float, chunk_size: float,
                 sim_file: SimFile, device: Optional[StorageDevice] = None,
                 tier_totals: Optional[Dict[StorageTier, float]] = None,
                 *, max_chunks: Union[int, float, None] = None):
        if max_chunks is None:
            capacity, chunk_size, max_chunks = _geometry(capacity,
                                                         chunk_size)
        self.tier = tier
        self.capacity = capacity
        self.chunk_size = chunk_size
        self.sim_file = sim_file
        self.device = device
        self.max_chunks = max_chunks
        self.tier_totals = tier_totals
        self.bytes_written = 0.0
        self.bytes_live = 0.0
        #: Allocated chunks; chunk ids are 0 .. _chunks - 1.
        self._chunks = 0
        self._active: Optional[int] = None  # chunk being appended to
        #: Bytes appended to the active chunk (every other one is full).
        self._fill = 0.0
        #: Live (not-yet-freed) bytes per chunk and the free-chunk stack,
        #: both ``None`` until the first free.
        self._live: Optional[List[float]] = None
        self._free: Optional[List[int]] = None

    # -- queries ---------------------------------------------------------
    @property
    def allocated_chunks(self) -> int:
        return self._chunks

    @property
    def free_stack(self) -> List[int]:
        return [] if self._free is None else list(self._free)

    def chunk(self, chunk_id: int) -> Chunk:
        cid = range(self._chunks)[chunk_id]  # list indexing rules
        used = self._fill if cid == self._active else self.chunk_size
        live = used if self._live is None else self._live[cid]
        return Chunk(chunk_id, used, live)

    def remaining_in_log(self) -> float:
        """Space the log could still accept (ignoring device pressure)."""
        if self.max_chunks is math.inf:
            return math.inf
        remaining = 0.0
        if self._active is not None:
            remaining += self.chunk_size - self._fill
        fresh = self.max_chunks - self._chunks
        if self._free:
            fresh += len(self._free)
        remaining += fresh * self.chunk_size
        return remaining

    # -- allocation -------------------------------------------------------
    def _take_chunk(self) -> int:
        """Pop a free chunk or mint a fresh one; charges the device."""
        if self._free:
            cid = self._free.pop()
            self._live[cid] = 0.0
            self._fill = 0.0
            return cid
        if self._chunks >= self.max_chunks:
            raise LogFullError(f"log on {self.tier.value} is full")
        if self.device is not None:
            try:
                self.device.allocate(self.chunk_size)
            except CapacityError as err:
                raise LogFullError(str(err)) from None
        if self._live is not None:
            self._live.append(0.0)
        self._fill = 0.0
        self._chunks += 1
        return self._chunks - 1

    def append(self, length: int, payload: Payload,
               payload_offset: int = 0) -> List[Tuple[float, int]]:
        """Append up to ``length`` bytes; returns [(physical_address, run_length)].

        Contiguous fresh chunks produce a single run; chunks reused from
        the free stack fragment the append.  The append is *partial* when
        the log (or its device) runs out of space: the returned runs sum
        to what actually landed here and the caller spills the remainder
        to the next layer (Fig. 2).  An already-full log returns ``[]``.
        """
        if length <= 0:
            raise ValueError(f"append length must be positive, got {length}")
        runs: List[Tuple[float, int]] = []
        placed = 0
        chunk = self.chunk_size
        while placed < length:
            if self._active is None:
                # Fast path: with no reusable chunks, a large append takes
                # a contiguous run of fresh chunks in one batch (a single
                # device charge and a single extent) instead of looping
                # chunk by chunk — O(1) per append instead of O(chunks).
                if not self._free:
                    n_chunks = self._take_fresh_batch(length - placed)
                    if n_chunks:
                        first = self._chunks
                        take = int(min(length - placed, n_chunks * chunk))
                        self._record_run(runs, first * chunk, take, payload,
                                         payload_offset + placed)
                        placed += take
                        self._chunks = first + n_chunks
                        # The batch fills its chunks in order; only a
                        # partial tail stays active.
                        full, rem = divmod(take, int(chunk))
                        if full < n_chunks:
                            self._active = first + full
                            self._fill = rem
                        if self._live is not None:
                            self._live.extend([chunk] * full)
                            if full < n_chunks:
                                self._live.append(rem)
                        continue
                try:
                    self._active = self._take_chunk()
                except LogFullError:
                    break
            used = self._fill
            space = chunk - used
            if space <= 0:
                self._active = None
                continue
            take = int(min(space, length - placed))
            addr = self._active * chunk + used
            self._record_run(runs, addr, take, payload,
                             payload_offset + placed)
            self._fill = used + take
            if self._live is not None:
                self._live[self._active] += take
            placed += take
            if self._fill >= chunk:
                self._active = None
        return runs

    def _record_run(self, runs: List[Tuple[float, int]], addr: float,
                    take: int, payload: Payload, payload_offset: int) -> None:
        """Write bytes and extend/append the physical run list."""
        if runs and runs[-1][0] + runs[-1][1] == addr:
            prev_addr, prev_len = runs[-1]
            runs[-1] = (prev_addr, prev_len + take)
        else:
            runs.append((addr, take))
        self.sim_file.write_at(int(addr), take, payload, payload_offset)
        self.bytes_written += take
        self.bytes_live += take
        if self.tier_totals is not None:
            self.tier_totals[self.tier] += take

    def _take_fresh_batch(self, nbytes: int) -> int:
        """Charge up to ceil(nbytes/chunk) fresh chunks, to be appended
        contiguously after the allocated ones by the caller.

        Returns the count, 0 when no fresh chunk can be allocated (log
        bound or device pressure); partial batches are fine — the caller
        loops.
        """
        want = max(1, math.ceil(nbytes / self.chunk_size))
        if self.max_chunks is not math.inf:
            want = min(want, int(self.max_chunks - self._chunks))
            if want <= 0:
                return 0
        if self.device is not None:
            # Charge what the device can actually hold.
            can = int(self.device.available // self.chunk_size)
            want = min(want, can)
            if want <= 0:
                return 0
            self.device.allocate(want * self.chunk_size)
        return want

    def free_segment(self, physical_address: float, length: int) -> None:
        """Mark bytes dead; fully dead chunks go back on the free stack."""
        if length <= 0:
            return
        live = self._live
        if live is None:
            # First free: every chunk is still as appended.
            live = self._live = [self.chunk_size] * self._chunks
            if self._active is not None:
                live[self._active] = self._fill
            self._free = []
        free = self._free
        remaining = length
        addr = physical_address
        while remaining > 0:
            cid = int(addr // self.chunk_size)
            if cid >= self._chunks:
                raise ValueError(
                    f"free of unallocated chunk {cid} (address {addr})")
            in_chunk = min(remaining,
                           self.chunk_size - (addr - cid * self.chunk_size))
            live[cid] -= in_chunk
            self.bytes_live -= in_chunk
            if self.tier_totals is not None:
                self.tier_totals[self.tier] -= in_chunk
            if live[cid] < -1e-6:
                raise ValueError(f"chunk {cid} live bytes went negative")
            if live[cid] <= 1e-6 and cid != self._active:
                # Chunk fully written (every inactive chunk is) and fully
                # dead: reusable (§II-B1).
                if cid not in free:
                    free.append(cid)
            addr += in_chunk
            remaining -= in_chunk


def _geometry(capacity: float, chunk_size: float
              ) -> Tuple[float, float, Union[int, float]]:
    """Checked ``(capacity, chunk_size, max_chunks)`` of a log."""
    if capacity <= 0:
        raise ValueError(f"log capacity must be positive, got {capacity}")
    if chunk_size <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")
    max_chunks = (math.inf if capacity == math.inf
                  else max(1, int(capacity // chunk_size)))
    return float(capacity), float(chunk_size), max_chunks


class PendingLog(NamedTuple):
    """A layer's log before its first append: everything needed to
    create it.  ``path`` is a template formatted with the owning rank;
    ``tier_totals`` is the file's ledger the log keeps current;
    ``max_chunks``, when set, marks ``capacity`` and ``chunk_size`` as
    checked (see :meth:`make`)."""

    tier: StorageTier
    capacity: float
    chunk_size: float
    store: FileStore
    device: Optional[StorageDevice]
    path: str
    tier_totals: Optional[Dict[StorageTier, float]] = None
    max_chunks: Union[int, float, None] = None

    @classmethod
    def make(cls, tier: StorageTier, capacity: float, chunk_size: float,
             store: FileStore, device: Optional[StorageDevice], path: str,
             tier_totals: Optional[Dict[StorageTier, float]] = None
             ) -> "PendingLog":
        """A pending log whose geometry is checked once, here, rather
        than by every log created from it."""
        capacity, chunk_size, max_chunks = _geometry(capacity, chunk_size)
        return cls(tier, capacity, chunk_size, store, device, path,
                   tier_totals, max_chunks)

    def create(self, rank: int) -> LogFile:
        return LogFile(self.tier, self.capacity, self.chunk_size,
                       self.store.create(self.path.format(rank=rank)),
                       self.device, self.tier_totals,
                       max_chunks=self.max_chunks)

    def create_filled(self, rank: int, length: int, payload: Payload,
                      payload_offset: int = 0) -> Optional[LogFile]:
        """The one-step first append (docs/MODEL.md §2): ``rank``'s log
        created holding ``length`` bytes in fresh chunks from address 0
        — its file and single extent, one device charge, the tier
        ledger — in the state :meth:`LogFile.append` leaves on a new
        log.  None when the request does not fit whole in fresh chunks
        (the log bound or the device's headroom) or the geometry is
        unchecked: the caller then takes the generic path."""
        chunk = self.chunk_size
        max_chunks = self.max_chunks
        n_chunks = math.ceil(length / chunk)
        # (A float quotient can round down past a whole chunk count.)
        if (max_chunks is None or n_chunks > max_chunks
                or n_chunks * chunk < length):
            return None
        device = self.device
        if device is not None:
            if n_chunks > device.available // chunk:
                return None
            device.allocate(n_chunks * chunk)
        log = self.create(rank)
        log.sim_file.write_at(0, length, payload, payload_offset)
        log.bytes_written = log.bytes_live = float(length)
        if self.tier_totals is not None:
            self.tier_totals[self.tier] += length
        log._chunks = n_chunks
        # The chunks fill in order; only a partial tail stays active.
        full, rem = divmod(length, int(chunk))
        if full < n_chunks:
            log._active = full
            log._fill = rem
        return log


def _check_layers(vas: VirtualAddressSpace,
                  logs: Sequence[Union[LogFile, PendingLog]]) -> None:
    """One log per VA layer, each on its layer's tier."""
    if len(logs) != vas.layers:
        raise ValueError("one log per VA layer required")
    for layer, (log, tier) in enumerate(zip(logs, vas.tiers)):
        if log.tier is not tier:
            raise ValueError(
                f"log {layer} tier {log.tier} != VA tier {tier}")


class LayerPlan(NamedTuple):
    """The shared layer geometry of a class of ranks: one virtual address
    space and one :class:`PendingLog` per layer (docs/MODEL.md §2)."""

    vas: VirtualAddressSpace
    logs: Tuple[PendingLog, ...]

    @classmethod
    def make(cls, vas: VirtualAddressSpace,
             logs: Sequence[PendingLog]) -> "LayerPlan":
        """A plan whose logs are checked against ``vas`` once, here;
        its writers are made with ``checked=True``."""
        _check_layers(vas, logs)
        return cls(vas, tuple(logs))


class DHPWriter:
    """DHP for one (file, rank): logs across layers + spill logic.

    The ``logs`` argument holds one entry per VA layer: a created
    :class:`LogFile`, or a :class:`PendingLog` the writer turns into one
    on its first append to that layer — in one step when the append
    fits whole (:meth:`PendingLog.create_filled`), else by creating it
    and appending.  :attr:`created_logs` lists the
    created ones; :meth:`log` looks one up by layer.  ``node`` is the
    compute node the rank runs on (the one its node-local logs live on);
    ``checked`` says ``logs`` already passed the layer check
    (:meth:`LayerPlan.make`).
    """

    __slots__ = ("rank", "vas", "node", "_logs", "_spill_level")

    def __init__(self, rank: int, vas: VirtualAddressSpace,
                 logs: Sequence[Union[LogFile, PendingLog]],
                 node: Optional[ComputeNode] = None, *,
                 checked: bool = False):
        if not checked:
            _check_layers(vas, logs)
        self.rank = rank
        self.vas = vas
        self.node = node
        self._logs: List[Union[LogFile, PendingLog]] = list(logs)
        #: Index of the shallowest layer that may still accept data; once
        #: a layer rejects an append the writer never returns to it (logs
        #: are append-only until chunks are freed).
        self._spill_level = 0

    def write(self, logical_offset: int, length: int, payload: Payload,
              payload_offset: int = 0) -> List[PlacedSegment]:
        """Place a logical write, spilling across layers as needed."""
        if length <= 0:
            raise ValueError(f"write length must be positive, got {length}")
        segments: List[PlacedSegment] = []
        placed = 0
        layer = self._spill_level
        while placed < length:
            if layer >= len(self._logs):
                raise LogFullError(
                    f"rank {self.rank}: data exhausted all "
                    f"{len(self._logs)} layers")
            log = self._logs[layer]
            device = log.device
            if device is not None and not device.accepts_placement:
                # Failed or degraded tier: spill straight past it without
                # raising ``_spill_level`` — a transient brownout should
                # not permanently retire the layer (graceful degradation).
                # Checked before a pending log is created.
                layer += 1
                continue
            if type(log) is PendingLog:
                filled = log.create_filled(self.rank, length - placed,
                                           payload, payload_offset + placed)
                if filled is not None:
                    self._logs[layer] = filled
                    segments.append(PlacedSegment(
                        self.rank, logical_offset + placed, length - placed,
                        layer, filled.tier, self.vas.va(layer, 0.0), 0.0))
                    return segments
                if device is not None and not device.can_allocate(
                        log.chunk_size):
                    # A fresh log could not take a single chunk: spill
                    # exactly as its empty append would, without
                    # creating it.
                    layer += 1
                    self._spill_level = max(self._spill_level, layer)
                    continue
                log = self._logs[layer] = log.create(self.rank)
            runs = log.append(length - placed, payload,
                              payload_offset + placed)
            for addr, run_len in runs:
                # Positional: rank, logical offset, length, layer, tier,
                # VA, physical address.
                segments.append(PlacedSegment(
                    self.rank, logical_offset + placed, run_len, layer,
                    log.tier, self.vas.va(layer, addr), addr))
                placed += run_len
            if placed < length:
                # This layer is out of space: spill downward (Fig. 2).
                layer += 1
                self._spill_level = max(self._spill_level, layer)
        return segments

    def bytes_live_on(self, tier: StorageTier) -> float:
        """Live bytes in this rank's created logs on ``tier``."""
        total = 0.0
        for log in self._logs:
            if log.tier is tier and type(log) is not PendingLog:
                total += log.bytes_live
        return total

    @property
    def created_logs(self) -> List[LogFile]:
        """The created logs, in layer order (a layer never appended to
        has none)."""
        return [log for log in self._logs if type(log) is not PendingLog]

    def log(self, layer: int) -> LogFile:
        """The log of ``layer``, which a placed segment points into."""
        log = self._logs[layer]
        if type(log) is PendingLog:
            raise KeyError(f"rank {self.rank}: no log on layer {layer}")
        return log

    def free(self, segment: PlacedSegment) -> None:
        """Release a previously placed segment (overwrite/delete path)."""
        self.log(segment.layer).free_segment(segment.physical_address,
                                             segment.length)

    def bytes_per_layer(self) -> List[float]:
        return [0.0 if type(log) is PendingLog else log.bytes_live
                for log in self._logs]
