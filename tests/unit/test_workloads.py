"""Unit tests for the workload generators (hdf5sim, iobench, vpic, bdcats)."""

import pytest

from repro import IORequest, MachineSpec, Simulation, UniviStorConfig
from repro.storage.datamodel import Extent, PatternPayload
from repro.units import KiB, MiB
from repro.workloads import (
    BdCatsIO,
    DatasetSpec,
    Hdf5Layout,
    MicroBench,
    VPIC_BYTES_PER_PROC_PER_STEP,
    VpicIO,
)
from repro.workloads.hdf5sim import METADATA_REGION_BYTES
from repro.workloads.iobench import verify_read_back
from repro.workloads.vpic import VPIC_PROPERTIES


class TestHdf5Layout:
    def test_vpic_sizes_match_paper(self):
        """§III-A: 8 properties x 8 Mi particles x 4 B = 256 MiB/proc."""
        assert VPIC_BYTES_PER_PROC_PER_STEP == 256 * MiB
        assert len(VPIC_PROPERTIES) == 8

    def test_dataset_offsets_sequential(self):
        layout = Hdf5Layout([DatasetSpec("a", 100, 4),
                             DatasetSpec("b", 200, 4)])
        assert layout.dataset_offset("a") == METADATA_REGION_BYTES
        assert layout.dataset_offset("b") == METADATA_REGION_BYTES + 400
        assert layout.file_size == METADATA_REGION_BYTES + 400 + 800

    def test_block_ranges_disjoint_and_contiguous(self):
        layout = Hdf5Layout([DatasetSpec("a", 100, 4)])
        ranges = [layout.block_range("a", r) for r in range(4)]
        for (o1, l1), (o2, _l2) in zip(ranges, ranges[1:]):
            assert o1 + l1 == o2

    def test_block_range_bounds(self):
        layout = Hdf5Layout([DatasetSpec("a", 100, 4)])
        with pytest.raises(ValueError):
            layout.block_range("a", 4)
        with pytest.raises(KeyError):
            layout.block_range("nope", 0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Hdf5Layout([DatasetSpec("a", 1, 1), DatasetSpec("a", 1, 1)])

    def test_write_requests_cover_dataset(self):
        layout = Hdf5Layout([DatasetSpec("a", 100, 4)])
        reqs = layout.write_requests("a")
        assert len(reqs) == 4
        assert sum(r.length for r in reqs) == 400
        assert all(r.payload is not None for r in reqs)

    def test_read_requests_remap_readers(self):
        layout = Hdf5Layout([DatasetSpec("a", 100, 4)])
        reqs = layout.read_requests("a", reader_of_block=lambda b: b // 2)
        assert [r.rank for r in reqs] == [0, 0, 1, 1]

    def test_expected_payload_matches_write(self):
        layout = Hdf5Layout([DatasetSpec("a", 100, 2)])
        req = layout.write_requests("a", payload_seed_base=7)[1]
        expected = layout.expected_block_payload("a", 1, 7)
        assert req.payload.same_source(expected)

    def test_read_requests_check_ranks(self):
        layout = Hdf5Layout([DatasetSpec("a", 100, 4)])
        with pytest.raises(ValueError):
            layout.read_requests("a", ranks=[0, 4])
        with pytest.raises(KeyError):
            layout.read_requests("nope")
        with pytest.raises(KeyError):
            layout.dataset("nope")

    def test_request_lists_match_block_arithmetic(self):
        """The micro, VPIC-IO and BD-CATS-IO request lists are the ones
        per-rank block arithmetic gives: dataset ``k`` of ``n`` blocks
        of ``size`` starts ``k * n * size`` past the metadata region."""
        sim = make_sim()
        writers = sim.comm("vpic", 6, procs_per_node=3)
        readers = sim.comm("bdcats", 4, procs_per_node=2)
        size = 3 * MiB
        micro = MicroBench(sim, writers, "/m", "univistor",
                           bytes_per_proc=size, payload_seed_base=5)
        meta = METADATA_REGION_BYTES
        assert micro.layout.write_requests("data", 5) == [
            IORequest(r, meta + r * size, size, PatternPayload(5 + r))
            for r in range(6)]
        assert micro.layout.read_requests("data") == [
            IORequest(r, meta + r * size, size) for r in range(6)]
        vpic = VpicIO(sim, writers, "univistor", steps=2,
                      compute_seconds=0, particles_per_proc=1000)
        bdcats = BdCatsIO(sim, readers, vpic, "univistor")
        prop_bytes = vpic.bytes_per_property
        # Reader r gets writer blocks [6r // 4, 6(r + 1) // 4).
        reader_blocks = [(0, 1), (1, 2), (3, 1), (4, 2)]
        for step in range(2):
            layout = vpic.layout(step)
            for k, prop in enumerate(VPIC_PROPERTIES):
                base = meta + k * 6 * prop_bytes
                seed = vpic.seed_base(step, k)
                assert layout.write_requests(prop, seed) == [
                    IORequest(r, base + r * prop_bytes, prop_bytes,
                              PatternPayload(seed + r)) for r in range(6)]
                assert bdcats._read_requests(step, prop) == [
                    IORequest(r, base + first * prop_bytes,
                              count * prop_bytes)
                    for r, (first, count) in enumerate(reader_blocks)]


def make_sim(nodes=2):
    sim = Simulation(MachineSpec.small_test(nodes=nodes))
    sim.install_univistor(UniviStorConfig.dram_only())
    return sim


class TestMicroBench:
    def test_write_then_read_verifies(self):
        sim = make_sim()
        comm = sim.comm("iobench", 8, procs_per_node=4)
        bench = MicroBench(sim, comm, "/pfs/m.h5", "univistor",
                           bytes_per_proc=128 * KiB)

        def app():
            yield from bench.write_phase()
            yield from bench.read_phase(verify=True)

        sim.run_to_completion(app())
        assert sim.telemetry.total_bytes(op="write") == pytest.approx(
            8 * 128 * KiB)

    def test_verify_catches_corruption(self):
        sim = make_sim()
        comm = sim.comm("iobench", 4, procs_per_node=2)
        bench = MicroBench(sim, comm, "/pfs/m.h5", "univistor",
                           bytes_per_proc=64 * KiB)

        def app():
            yield from bench.write_phase()
            # Sabotage: overwrite rank 2's block with wrong data.
            from repro import IORequest, PatternPayload
            fh = yield from sim.open(comm, "/pfs/m.h5", "w",
                                     fstype="univistor")
            offset, length = bench.layout.block_range("data", 2)
            yield from fh.write_at_all([
                IORequest(2, offset, length, PatternPayload(666))])
            yield from fh.close()
            yield from bench.read_phase(verify=True)

        with pytest.raises(AssertionError, match="mismatch"):
            sim.run_to_completion(app())

    def test_verify_catches_empty_read_back(self):
        """A rank that gets no extents back must not pass as ``b"" == b""``."""
        sim = make_sim()
        comm = sim.comm("iobench", 4, procs_per_node=2)
        bench = MicroBench(sim, comm, "/pfs/m.h5", "univistor",
                           bytes_per_proc=64 * KiB)
        sim.run_to_completion(bench.write_phase())
        results = sim.run_to_completion(bench.read_phase())
        bench.verify_sample(results)
        results[1] = []
        with pytest.raises(AssertionError, match="rank 1 read back 0 of 4096"):
            bench.verify_sample(results)


class TestVerifyReadBack:
    @staticmethod
    def results(lengths):
        return {rank: [Extent(0, n, PatternPayload(rank))] if n else []
                for rank, n in enumerate(lengths)}

    def test_full_samples_pass(self):
        verify_read_back(self.results([4096, 5000]), 2, 8192,
                         PatternPayload, "t")

    def test_short_sample_fails(self):
        with pytest.raises(AssertionError, match="rank 1 read back 100 of"):
            verify_read_back(self.results([4096, 100]), 2, 8192,
                             PatternPayload, "t")

    def test_missing_rank_fails(self):
        with pytest.raises(AssertionError, match="rank 2 read back 0 of"):
            verify_read_back(self.results([4096, 4096]), 3, 8192,
                             PatternPayload, "t")

    def test_block_smaller_than_sample(self):
        verify_read_back(self.results([100, 100]), 2, 100,
                         PatternPayload, "t")

    def test_wrong_stream_fails(self):
        with pytest.raises(AssertionError, match="rank 0 read-back mismatch"):
            verify_read_back(self.results([4096]), 1, 4096,
                             lambda rank: PatternPayload(rank + 1), "t")


class TestVpicIO:
    def test_checkpoint_writes_all_properties(self):
        sim = make_sim()
        comm = sim.comm("vpic", 4, procs_per_node=2)
        vpic = VpicIO(sim, comm, "univistor", steps=1, compute_seconds=0,
                      particles_per_proc=1024)
        sim.run_to_completion(vpic.run(sync_last=False))
        session = sim.univistor.session(vpic.step_path(0))
        total = sum(session.cached_bytes_per_tier().values())
        assert total == pytest.approx(4 * 8 * 1024 * 4)

    def test_each_step_gets_own_file(self):
        sim = make_sim()
        comm = sim.comm("vpic", 4, procs_per_node=2)
        vpic = VpicIO(sim, comm, "univistor", steps=3, compute_seconds=0,
                      particles_per_proc=256)
        sim.run_to_completion(vpic.run(sync_last=False))
        for step in range(3):
            assert sim.univistor.has_session(vpic.step_path(step))

    def test_compute_phases_advance_time(self):
        sim = make_sim()
        comm = sim.comm("vpic", 4, procs_per_node=2)
        vpic = VpicIO(sim, comm, "univistor", steps=2, compute_seconds=60,
                      particles_per_proc=256)
        sim.run_to_completion(vpic.run(sync_last=False))
        assert sim.now >= 120.0

    def test_measured_io_time_excludes_compute(self):
        sim = make_sim()
        comm = sim.comm("vpic", 4, procs_per_node=2)
        vpic = VpicIO(sim, comm, "univistor", steps=2, compute_seconds=60,
                      particles_per_proc=256)
        sim.run_to_completion(vpic.run(sync_last=True))
        assert vpic.measured_io_time() < 10.0

    def test_invalid_steps(self):
        sim = make_sim()
        comm = sim.comm("vpic", 2, procs_per_node=1)
        with pytest.raises(ValueError):
            VpicIO(sim, comm, "univistor", steps=0)


class TestBdCatsIO:
    def make_pair(self, writer_ranks=4, reader_ranks=2, steps=2, nodes=2):
        sim = make_sim(nodes)
        wcomm = sim.comm("vpic", writer_ranks, procs_per_node=2)
        rcomm = sim.comm("bdcats", reader_ranks, procs_per_node=1)
        vpic = VpicIO(sim, wcomm, "univistor", steps=steps,
                      compute_seconds=0, particles_per_proc=1024)
        bdcats = BdCatsIO(sim, rcomm, vpic, "univistor")
        return sim, vpic, bdcats

    def test_reads_all_data_and_verifies(self):
        sim, vpic, bdcats = self.make_pair()

        def workflow():
            yield from vpic.run(sync_last=False)
            yield from bdcats.run(verify_sample=True)

        sim.run_to_completion(workflow())
        reads = sim.telemetry.select(op="read", app="bdcats")
        per_step = 4 * 8 * 1024 * 4  # writers x props x particles x 4B
        assert sum(r.nbytes for r in reads) == pytest.approx(2 * per_step)

    def test_reader_blocks_coalesce(self):
        sim, vpic, bdcats = self.make_pair(writer_ranks=4, reader_ranks=2)
        reqs = bdcats._read_requests(0, "x")
        # 2 readers x 2 writer-blocks each, coalesced into one request.
        assert len(reqs) == 2
        assert reqs[0].length == 2 * vpic.bytes_per_property

    def test_verify_catches_stale_data(self):
        sim, vpic, bdcats = self.make_pair(steps=1)

        def workflow():
            # Read *before* the writer has produced anything -> the data
            # simply isn't there; with a wrong-but-present file the
            # verifier must catch the mismatch instead.
            yield from vpic.run(sync_last=False)
            # Corrupt one property region.
            from repro import IORequest, PatternPayload
            fh = yield from sim.open(vpic.comm, vpic.step_path(0), "w",
                                     fstype="univistor")
            layout = vpic.layout(0)
            offset, length = layout.block_range("x", 0)
            yield from fh.write_at_all([
                IORequest(0, offset, length, PatternPayload(424242))])
            yield from fh.close()
            yield from bdcats.run(verify_sample=True)

        with pytest.raises(AssertionError, match="stale or wrong"):
            sim.run_to_completion(workflow())

    def test_verify_checks_every_reader(self):
        # Writer block 2 is reader 1's first block: reader 0 reads clean
        # data, so only a check of every reader rank catches it.
        sim, vpic, bdcats = self.make_pair(steps=1)

        def workflow():
            yield from vpic.run(sync_last=False)
            from repro import IORequest, PatternPayload
            fh = yield from sim.open(vpic.comm, vpic.step_path(0), "w",
                                     fstype="univistor")
            offset, length = vpic.layout(0).block_range("x", 2)
            yield from fh.write_at_all([
                IORequest(2, offset, length, PatternPayload(424242))])
            yield from fh.close()
            yield from bdcats.run(verify_sample=True)

        with pytest.raises(AssertionError, match="rank 1 read-back mismatch"):
            sim.run_to_completion(workflow())

    def test_verify_catches_short_read_on_reader_1(self):
        sim, vpic, bdcats = self.make_pair(steps=1)
        sim.run_to_completion(vpic.run(sync_last=False))
        results = sim.run_to_completion(bdcats.read_step(0))
        last = len(VPIC_PROPERTIES) - 1
        prop = VPIC_PROPERTIES[last]
        bdcats._verify(0, last, prop, results)
        results[1] = []
        with pytest.raises(AssertionError, match="rank 1 read back 0 of"):
            bdcats._verify(0, last, prop, results)

    def test_verify_skips_readers_without_blocks(self):
        # More readers than writers: ranks 0 and 2 get no writer block
        # and issue no read, so they must not count as short reads.
        sim, vpic, bdcats = self.make_pair(writer_ranks=2, reader_ranks=4,
                                           steps=1, nodes=4)

        def workflow():
            yield from vpic.run(sync_last=False)
            yield from bdcats.run(verify_sample=True)

        sim.run_to_completion(workflow())
