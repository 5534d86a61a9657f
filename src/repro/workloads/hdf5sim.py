"""A minimal HDF5-like container layout.

Only the *shape* of HDF5 I/O matters to the experiments: a small metadata
region at the front of the file (superblock + object headers) that every
process reads/writes on open/close unless the collective optimisation is
on (§II-F), followed by contiguous dataset regions that ranks access in
disjoint blocks.  This module computes those offsets and generates the
corresponding :class:`~repro.simmpi.mpiio.IORequest` lists; it makes no
attempt to reproduce the real HDF5 bit format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.gcpause import collector_paused
from repro.simmpi.mpiio import IORequest
from repro.storage.datamodel import PatternPayload, Payload

__all__ = ["DatasetSpec", "Hdf5Layout"]

#: Size of the simulated superblock + object-header region.
METADATA_REGION_BYTES = 64 * 1024


@dataclass(frozen=True)
class DatasetSpec:
    """One named dataset: ``nprocs`` blocks of ``bytes_per_proc`` each."""

    name: str
    bytes_per_proc: int
    nprocs: int

    def __post_init__(self):
        if self.bytes_per_proc <= 0 or self.nprocs <= 0:
            raise ValueError(f"invalid dataset spec {self}")

    @property
    def total_bytes(self) -> int:
        return self.bytes_per_proc * self.nprocs


class Hdf5Layout:
    """Offset arithmetic for a container of contiguous datasets."""

    def __init__(self, datasets: List[DatasetSpec]):
        if not datasets:
            raise ValueError("need at least one dataset")
        names = [d.name for d in datasets]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dataset names in {names}")
        self.datasets = list(datasets)
        self._by_name: Dict[str, DatasetSpec] = {d.name: d for d in datasets}
        self._offsets: Dict[str, int] = {}
        cursor = METADATA_REGION_BYTES
        for ds in datasets:
            self._offsets[ds.name] = cursor
            cursor += ds.total_bytes
        self.file_size = cursor

    def dataset(self, name: str) -> DatasetSpec:
        return self._by_name[name]

    def dataset_offset(self, name: str) -> int:
        return self._offsets[name]

    def block_range(self, name: str, rank: int) -> Tuple[int, int]:
        """(offset, length) of ``rank``'s block of dataset ``name``."""
        ds = self.dataset(name)
        _check_rank(ds, rank)
        return (self._offsets[name] + rank * ds.bytes_per_proc,
                ds.bytes_per_proc)

    # -- request builders ---------------------------------------------------
    # A request list is a bulk build (one request, and for a write one
    # payload, per rank) that stays alive: the cyclic collector stays off
    # across it (docs/MODEL.md §9).
    def write_requests(self, name: str,
                       payload_seed_base: int = 0) -> List[IORequest]:
        """One block write per rank; rank ``r`` carries pattern payload
        ``seed_base + r`` starting at its dataset-local offset (so the
        whole dataset reads back as one coherent per-rank stream)."""
        ds = self.dataset(name)
        base, size = self._offsets[name], ds.bytes_per_proc
        with collector_paused():
            return [IORequest(rank, base + rank * size, size,
                              PatternPayload(payload_seed_base + rank),
                              payload_offset=0)
                    for rank in range(ds.nprocs)]

    def read_requests(self, name: str,
                      ranks: Optional[List[int]] = None,
                      reader_of_block=None) -> List[IORequest]:
        """Block reads; by default rank r reads block r (``reader_of_block``
        remaps, e.g. for a reader application with fewer ranks)."""
        ds = self.dataset(name)
        base, size = self._offsets[name], ds.bytes_per_proc
        out = []
        with collector_paused():
            for block in range(ds.nprocs) if ranks is None else ranks:
                reader = (block if reader_of_block is None
                          else reader_of_block(block))
                _check_rank(ds, block)
                out.append(IORequest(reader, base + block * size, size))
        return out

    def expected_block_payload(self, name: str, rank: int,
                               payload_seed_base: int = 0) -> Payload:
        return PatternPayload(payload_seed_base + rank)


def _check_rank(ds: DatasetSpec, rank: int) -> None:
    if not 0 <= rank < ds.nprocs:
        raise ValueError(f"rank {rank} outside dataset of {ds.nprocs}")
