"""Generic storage device: capacity ledger + fair-shared bandwidth pipe."""

from __future__ import annotations

import math
from typing import Optional

from repro.sim.engine import Engine, Event
from repro.sim.resources import BandwidthResource, ContentionModel

__all__ = ["CapacityError", "DeviceUnavailableError", "StorageDevice",
           "TransientIOError"]


class CapacityError(RuntimeError):
    """Raised when an allocation exceeds the device's remaining capacity."""


class TransientIOError(RuntimeError):
    """A recoverable I/O failure (injected write error, brownout).

    Retry with backoff may succeed — the fault-tolerant paths catch this
    and re-attempt up to ``UniviStorConfig.io_retry_limit`` times.
    """


class DeviceUnavailableError(TransientIOError):
    """The device is down.  Subclasses :class:`TransientIOError` because
    an outage may be a brownout: retries bridge a short one, and a
    permanent failure simply exhausts the retry budget and surfaces."""


class StorageDevice:
    """A device with finite capacity and a shared read/write pipe.

    Reads and writes share one :class:`BandwidthResource` (as they do on
    real devices); asymmetric read/write speed is expressed with the
    ``read_factor`` multiplier on per-stream caps.
    """

    def __init__(self, engine: Engine, name: str, capacity: float,
                 bandwidth: float, latency: float = 0.0,
                 read_factor: float = 1.0, duplex: bool = False,
                 contention_model: Optional[ContentionModel] = None):
        """``duplex=True`` gives reads their own pipe (of ``bandwidth *
        read_factor``): SSD appliances and DRAM serve concurrent reads
        and writes largely independently, which is what lets a consumer
        application overlap a producer without halving it (§III-D).
        Disk-based stores stay half-duplex (seek-bound)."""
        if capacity < 0:
            raise ValueError(f"negative capacity: {capacity}")
        self.engine = engine
        self.name = name
        self.capacity = float(capacity)
        self.read_factor = float(read_factor)
        self.pipe = BandwidthResource(engine, bandwidth, latency=latency,
                                      contention_model=contention_model,
                                      name=name)
        if duplex:
            self.read_pipe = BandwidthResource(
                engine, bandwidth * read_factor, latency=latency,
                name=f"{name}.read")
        else:
            self.read_pipe = self.pipe
        self._used = 0.0
        self._failed = False
        self._degrade_factor = 1.0
        self._pending_write_errors = 0

    # -- health (fault injection) ------------------------------------------
    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def degraded(self) -> bool:
        return self._degrade_factor < 1.0

    @property
    def health(self) -> str:
        if self._failed:
            return "failed"
        return "degraded" if self.degraded else "healthy"

    @property
    def accepts_placement(self) -> bool:
        """Whether DHP should place *new* data here (§II-B1 spill skips
        failed and degraded tiers; existing data stays readable)."""
        return not self._failed and not self.degraded

    def degrade(self, factor: float) -> None:
        """Throttle the device to ``factor`` of its bandwidth (straggler)."""
        self._degrade_factor = float(factor)
        self.pipe.set_degrade(factor)
        if self.read_pipe is not self.pipe:
            self.read_pipe.set_degrade(factor)

    def fail(self) -> None:
        """Take the device down: I/O raises until :meth:`restore`."""
        self._failed = True

    def restore(self) -> None:
        """Clear failure and degradation."""
        self._failed = False
        if self.degraded:
            self.degrade(1.0)

    def inject_write_errors(self, count: int) -> None:
        """Make the next ``count`` writes raise :class:`TransientIOError`."""
        if count < 0:
            raise ValueError(f"negative error count: {count}")
        self._pending_write_errors += count

    def _check_up(self, op: str) -> None:
        if self._failed:
            raise DeviceUnavailableError(f"{self.name}: device is down "
                                         f"({op} refused)")

    # -- capacity ledger ---------------------------------------------------
    @property
    def used(self) -> float:
        return self._used

    @property
    def available(self) -> float:
        return self.capacity - self._used

    def can_allocate(self, nbytes: float) -> bool:
        """Whether :meth:`allocate` of ``nbytes`` would succeed."""
        return self._used + nbytes <= self.capacity * (1 + 1e-9)

    def allocate(self, nbytes: float) -> None:
        """Reserve ``nbytes``; raises :class:`CapacityError` if impossible."""
        if nbytes < 0:
            raise ValueError(f"negative allocation: {nbytes}")
        if not self.can_allocate(nbytes):
            raise CapacityError(
                f"{self.name}: allocating {nbytes:.0f} B exceeds capacity "
                f"({self.available:.0f} B available)")
        self._used += nbytes

    def free(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError(f"negative free: {nbytes}")
        if nbytes > self._used * (1 + 1e-9):
            raise ValueError(
                f"{self.name}: freeing {nbytes:.0f} B but only "
                f"{self._used:.0f} B allocated")
        self._used = max(0.0, self._used - nbytes)

    # -- timed I/O -----------------------------------------------------------
    def write(self, nbytes: float, streams: int = 1,
              per_stream_cap: float = math.inf, efficiency: float = 1.0,
              tag: Optional[str] = None, weight: float = 1.0) -> Event:
        """Timed write of ``nbytes`` per stream; returns completion event."""
        self._check_up("write")
        if self._pending_write_errors > 0:
            self._pending_write_errors -= 1
            raise TransientIOError(f"{self.name}: injected write error "
                                   f"({self._pending_write_errors} left)")
        return self.pipe.transfer(nbytes, streams=streams,
                                  per_stream_cap=per_stream_cap,
                                  efficiency=efficiency, tag=tag or "write",
                                  weight=weight, meta={"op": "write"})

    def read(self, nbytes: float, streams: int = 1,
             per_stream_cap: float = math.inf, efficiency: float = 1.0,
             tag: Optional[str] = None, weight: float = 1.0) -> Event:
        """Timed read of ``nbytes`` per stream; returns completion event."""
        self._check_up("read")
        cap = per_stream_cap * self.read_factor if math.isfinite(
            per_stream_cap) else per_stream_cap
        return self.read_pipe.transfer(nbytes, streams=streams,
                                       per_stream_cap=cap,
                                       efficiency=efficiency,
                                       tag=tag or "read",
                                       weight=weight, meta={"op": "read"})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StorageDevice {self.name!r} used={self._used:.3g}/"
                f"{self.capacity:.3g} B>")
