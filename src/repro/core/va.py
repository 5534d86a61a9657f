"""Virtual addressing (§II-B2, Eq. 1).

A segment living at physical address ``A_i`` inside a process's log on
storage layer ``i`` has virtual address

.. math::  VA_i = \\sum_{k < i} C_k + A_i

where ``C_k`` is the capacity of the process's log on layer ``k`` (the
paper's summation bound is inclusive by typo; its own worked example —
segment D4 with physical address 1 in the layer-1 log behind a layer-0 log
of capacity 2 has VA 3 — fixes the convention, which we follow).  A VA
therefore simultaneously identifies the layer (by which capacity window it
falls into) and the physical address within that layer's log.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Sequence, Tuple

from repro.core.config import StorageTier

__all__ = ["VirtualAddressSpace"]

#: How far (in bytes) a resolved address may sit from a whole byte and
#: still be read as that byte; wider for large VAs, whose float spacing
#: is coarser.
_SNAP = 1e-6


class VirtualAddressSpace:
    """The VA <-> (layer, physical address) bijection for one process.

    Built from the ordered per-layer log capacities fixed at file-open
    time (the c/p rule of §II-B1).  The last layer may be unbounded (the
    PFS destination), expressed as ``float('inf')``.
    """

    def __init__(self, tiers: Sequence[StorageTier],
                 capacities: Sequence[float]):
        if len(tiers) != len(capacities):
            raise ValueError("tiers and capacities must align")
        if not tiers:
            raise ValueError("at least one layer is required")
        for i, c in enumerate(capacities):
            if c <= 0:
                raise ValueError(f"layer {i} has non-positive capacity {c}")
            if c == float("inf") and i != len(capacities) - 1:
                raise ValueError("only the last layer may be unbounded")
        self.tiers: Tuple[StorageTier, ...] = tuple(tiers)
        self.capacities: Tuple[float, ...] = tuple(float(c) for c in capacities)
        # bases[i] = sum of capacities below layer i; one extra entry caps
        # the addressable range.
        bases: List[float] = [0.0]
        for c in self.capacities:
            bases.append(bases[-1] + c)
        self._bases = bases

    @property
    def layers(self) -> int:
        return len(self.tiers)

    def layer_base(self, layer: int) -> float:
        """``sum_{k < layer} C_k`` — the VA window start of ``layer``."""
        self._check_layer(layer)
        return self._bases[layer]

    def layer_capacity(self, layer: int) -> float:
        self._check_layer(layer)
        return self.capacities[layer]

    def tier_of_layer(self, layer: int) -> StorageTier:
        self._check_layer(layer)
        return self.tiers[layer]

    def va(self, layer: int, physical_address: float) -> float:
        """Eq. 1: virtual address of ``physical_address`` in ``layer``."""
        self._check_layer(layer)
        if physical_address < 0:
            raise ValueError(f"negative physical address {physical_address}")
        if physical_address >= self.capacities[layer]:
            raise ValueError(
                f"physical address {physical_address} outside layer {layer} "
                f"log of capacity {self.capacities[layer]}")
        return self._bases[layer] + physical_address

    def resolve(self, va: float) -> Tuple[int, float]:
        """Inverse of Eq. 1: (layer, physical address) of ``va``."""
        if va < 0:
            raise ValueError(f"negative virtual address {va}")
        if va >= self._bases[-1]:
            raise ValueError(
                f"virtual address {va} beyond the addressable space "
                f"({self._bases[-1]})")
        layer = bisect.bisect_right(self._bases, va) - 1
        addr = va - self._bases[layer]
        if not addr.is_integer():
            # Log addresses are whole bytes: a VA summed from a fractional
            # layer base (a c/p capacity) can come back a rounding error
            # off one, which int() would truncate to the byte below.
            whole = round(addr)
            if abs(addr - whole) <= max(_SNAP, 8 * math.ulp(va)):
                addr = float(whole)
        return layer, addr

    def _check_layer(self, layer: int) -> None:
        if not 0 <= layer < len(self.tiers):
            raise ValueError(f"layer {layer} outside [0, {len(self.tiers)})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{t.value}:{c:.3g}"
                          for t, c in zip(self.tiers, self.capacities))
        return f"<VirtualAddressSpace {parts}>"
