"""The HDF5 micro-benchmark (§III-A/§III-B).

"Each process creates a shared HDF5 file and writes/reads an independent
but overall contiguous block of data" — 256 MiB per process in the
figures.  The benchmark is a pair of application generators (write phase,
read phase) runnable against any registered ADIO driver.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Mapping, Sequence, Union

from repro.simmpi.comm import Communicator
from repro.simulation import Simulation
from repro.storage.datamodel import Extent, Payload
from repro.units import MiB
from repro.workloads.hdf5sim import DatasetSpec, Hdf5Layout

__all__ = ["MicroBench", "verify_read_back"]


class MicroBench:
    """Shared-file contiguous-block write/read benchmark."""

    def __init__(self, sim: Simulation, comm: Communicator, path: str,
                 fstype: str, bytes_per_proc: float = 256 * MiB,
                 payload_seed_base: int = 1000):
        self.sim = sim
        self.comm = comm
        self.path = path
        self.fstype = fstype
        self.bytes_per_proc = int(bytes_per_proc)
        self.layout = Hdf5Layout([DatasetSpec("data", self.bytes_per_proc,
                                              comm.size)])
        self.payload_seed_base = payload_seed_base

    # -- phases ------------------------------------------------------------
    def write_phase(self, sync: bool = False) -> Generator:
        """Open + collective write + close (+ optionally wait for flush)."""
        fh = yield from self.sim.open(self.comm, self.path, "w",
                                      fstype=self.fstype)
        requests = self.layout.write_requests(
            "data", payload_seed_base=self.payload_seed_base)
        yield from fh.write_at_all(requests)
        yield from fh.close()
        if sync:
            yield from fh.sync()
        return fh

    def read_phase(self, verify: bool = False,
                   sample_bytes: int = 4096) -> Generator:
        """Open + collective read + close; optionally verify a sample.

        Full byte verification of 256 MiB x p is wasteful; ``verify``
        materialises the first ``sample_bytes`` of each rank's block and
        checks them against the expected pattern stream.
        """
        fh = yield from self.sim.open(self.comm, self.path, "r",
                                      fstype=self.fstype)
        requests = self.layout.read_requests("data")
        results = yield from fh.read_at_all(requests)
        yield from fh.close()
        if verify:
            self.verify_sample(results, sample_bytes)
        return results

    # -- verification -----------------------------------------------------------
    def verify_sample(self, results, sample_bytes: int = 4096) -> None:
        """Assert each rank's block starts with its expected pattern."""
        verify_read_back(
            results, self.comm.size, self.bytes_per_proc,
            lambda rank: self.layout.expected_block_payload(
                "data", rank, self.payload_seed_base),
            self.path, sample_bytes)


def verify_read_back(results: Mapping[int, Sequence[Extent]],
                     ranks: Union[int, Iterable[int]],
                     block_bytes: int, expected: Callable[[int], Payload],
                     label: str, sample_bytes: int = 4096) -> None:
    """Assert each rank read back the first ``min(sample_bytes,
    block_bytes)`` bytes of its ``expected(rank)`` stream.

    ``ranks`` is a rank count (ranks ``0..ranks-1``) or the rank ids to
    check.  A rank whose extents hold fewer bytes than that fails too:
    an empty read must not pass as an empty match.
    """
    want = min(sample_bytes, block_bytes)
    if isinstance(ranks, int):
        ranks = range(ranks)
    for rank in ranks:
        got = b""
        for ext in results.get(rank, ()):
            if len(got) >= want:
                break
            take = int(min(ext.length, want - len(got)))
            got += ext.payload.materialize(ext.payload_offset, take)
        if len(got) < want:
            raise AssertionError(
                f"{label}: rank {rank} read back {len(got)} of {want} bytes")
        if got != expected(rank).materialize(0, want):
            raise AssertionError(f"{label}: rank {rank} read-back mismatch")
