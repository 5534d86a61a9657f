"""BD-CATS-IO: the parallel clustering reader (§III-A/§III-D).

BD-CATS runs DBSCAN-style clustering over the particles VPIC produced;
its I/O kernel reads **all eight properties of all particles** from each
step file.  When the reader has fewer ranks than the writer (the workflow
experiments give each application half the processes), every reader rank
consumes multiple writer blocks.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.simmpi.comm import Communicator
from repro.simmpi.mpiio import IORequest
from repro.simulation import Simulation
from repro.workloads.iobench import verify_read_back
from repro.workloads.vpic import VPIC_PROPERTIES, VpicIO

__all__ = ["BdCatsIO"]


class BdCatsIO:
    """The BD-CATS-IO reader application, paired with a VpicIO writer."""

    def __init__(self, sim: Simulation, comm: Communicator, vpic: VpicIO,
                 fstype: str):
        self.sim = sim
        self.comm = comm
        self.vpic = vpic
        self.fstype = fstype
        # Reader rank -> the contiguous writer blocks it consumes; ranks
        # left without a block (more readers than writers) are absent.
        writers = vpic.comm.size
        readers = comm.size
        self._blocks: Dict[int, range] = {}
        for reader in range(readers):
            blocks = range(reader * writers // readers,
                           (reader + 1) * writers // readers)
            if blocks:
                self._blocks[reader] = blocks

    def _read_requests(self, step: int, prop: str) -> List[IORequest]:
        """All writer blocks of ``prop``, distributed over reader ranks.

        Contiguous writer blocks assigned to one reader rank coalesce
        into a single request (the real reader issues one hyperslab).
        """
        layout = self.vpic.layout(step)
        out: List[IORequest] = []
        for reader, blocks in self._blocks.items():
            first_off, length = layout.block_range(prop, blocks[0])
            out.append(IORequest(reader, first_off, length * len(blocks)))
        return out

    def read_step(self, step: int, verify_sample: bool = False) -> Generator:
        """Read all eight properties of one step file."""
        path = self.vpic.step_path(step)
        fh = yield from self.sim.open(self.comm, path, "r",
                                      fstype=self.fstype)
        results = None
        for i, prop in enumerate(VPIC_PROPERTIES):
            requests = self._read_requests(step, prop)
            results = yield from fh.read_at_all(requests)
            if verify_sample:
                self._verify(step, i, prop, results)
        yield from fh.close()
        return results

    def run(self, steps: Optional[int] = None,
            verify_sample: bool = False) -> Generator:
        """Read every step file in order (the analysis pass)."""
        steps = self.vpic.steps if steps is None else steps
        for step in range(steps):
            yield from self.read_step(step, verify_sample=verify_sample)

    def _verify(self, step: int, prop_index: int, prop: str,
                results) -> None:
        """Check the first bytes of every reader rank's first block."""
        layout = self.vpic.layout(step)
        seed_base = self.vpic.seed_base(step, prop_index)
        blocks = self._blocks
        verify_read_back(
            results, blocks, self.vpic.bytes_per_property,
            lambda reader: layout.expected_block_payload(
                prop, blocks[reader][0], seed_base),
            f"step {step} {prop}, stale or wrong data", sample_bytes=1024)

    # -- accounting ------------------------------------------------------------
    def measured_io_time(self) -> float:
        tel = self.sim.telemetry
        app = self.comm.name
        return (tel.total_time(app=app, op="open")
                + tel.total_time(app=app, op="read")
                + tel.total_time(app=app, op="close"))
