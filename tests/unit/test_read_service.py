"""Unit tests for the location-aware read service (§II-B4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.cluster.spec import NodeSpec
from repro.core.errors import DataLossError
from repro.core.metadata import record_runs
from repro.storage.datamodel import ExtentMap
from repro.units import KiB, MiB


def setup(config=None, nodes=2):
    sim = Simulation(MachineSpec.small_test(nodes=nodes))
    sim.install_univistor(config or UniviStorConfig.dram_bb(
        flush_enabled=False))
    comm = sim.comm("app", 4, procs_per_node=2)
    return sim, comm


def write_blocks(sim, comm, path, block, nranks=4):
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest.contiguous_block(r, block, PatternPayload(r))
            for r in range(nranks)])
        yield from fh.close()

    sim.run_to_completion(app())


def read_with_breakdown(sim, comm, path, requests):
    system = sim.univistor
    session = system.session(path)

    def app():
        out = yield from system.read_service.read_collective(
            session, comm, requests, comm.name)
        return out

    return sim.run_to_completion(app())


class TestBreakdownClassification:
    def test_local_read_classified_local(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        # Rank 0 (node 0) reads its own block (written on node 0).
        _, breakdown = read_with_breakdown(
            sim, comm, "/f", [IORequest(0, 0, block)])
        assert breakdown.local_bytes == block
        assert breakdown.remote_bytes == 0
        assert breakdown.bb_bytes == 0

    def test_remote_read_classified_remote(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        # Rank 0 (node 0) reads rank 3's block (written on node 1).
        _, breakdown = read_with_breakdown(
            sim, comm, "/f", [IORequest(0, 3 * block, block)])
        assert breakdown.remote_bytes == block
        assert breakdown.local_bytes == 0

    def test_bb_read_classified_bb(self):
        sim, comm = setup(UniviStorConfig.bb_only(flush_enabled=False))
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        _, breakdown = read_with_breakdown(
            sim, comm, "/f", [IORequest(0, 0, block)])
        assert breakdown.bb_bytes == block
        assert breakdown.local_bytes == 0

    def test_mixed_read_splits_categories(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        # One request spanning rank 1's (node 0) and rank 2's (node 1)
        # blocks, issued by rank 0 on node 0.
        _, breakdown = read_with_breakdown(
            sim, comm, "/f", [IORequest(0, block, 2 * block)])
        assert breakdown.local_bytes == block   # rank 1's block: node 0
        assert breakdown.remote_bytes == block  # rank 2's block: node 1

    def test_lookup_costs_counted_per_server(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        _, breakdown = read_with_breakdown(
            sim, comm, "/f", [IORequest(r, r * block, block)
                              for r in range(4)])
        assert sum(breakdown.lookups_per_server.values()) >= 4

    def test_zero_length_request_ok(self):
        sim, comm = setup()
        write_blocks(sim, comm, "/f", int(64 * KiB))
        results, breakdown = read_with_breakdown(
            sim, comm, "/f", [IORequest(0, 0, 0)])
        assert results[0] == []
        assert breakdown.total_bytes == 0


class TestLocationAwareTiming:
    def run_read(self, location_aware, config_factory=None, nodes=2):
        factory = config_factory or UniviStorConfig.dram_only
        config = factory(flush_enabled=False)
        if not location_aware:
            config = config.without("location_aware_reads")
        sim = Simulation(MachineSpec.cori_haswell(nodes=nodes))
        sim.install_univistor(config)
        comm = sim.comm("app", nodes * 32)
        block = int(16 * MiB)
        write_blocks(sim, comm, "/f", block, nranks=comm.size)
        t0 = sim.now

        def app():
            fh = yield from sim.open(comm, "/f", "r", fstype="univistor")
            data = yield from fh.read_at_all([
                IORequest(r, r * block, block) for r in range(comm.size)])
            yield from fh.close()
            return data

        sim.run_to_completion(app())
        return sim.now - t0

    def test_location_aware_faster_on_local_data(self):
        assert (self.run_read(True)
                < self.run_read(False))

    def test_location_aware_faster_on_bb_data(self):
        assert (self.run_read(True, UniviStorConfig.bb_only)
                < self.run_read(False, UniviStorConfig.bb_only))


class TestFunctionalResolution:
    def test_extents_rebased_to_logical_offsets(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        results, _ = read_with_breakdown(
            sim, comm, "/f", [IORequest(1, block, block)])
        extents = results[1]
        assert extents[0].offset == block
        assert extents[-1].offset + extents[-1].length == 2 * block

    def test_cross_rank_read_reassembles_bytes(self):
        sim, comm = setup()
        block = int(64 * KiB)
        write_blocks(sim, comm, "/f", block)
        results, _ = read_with_breakdown(
            sim, comm, "/f", [IORequest(0, 0, 4 * block)])
        blob = b"".join(e.materialize() for e in results[0])
        expected = b"".join(PatternPayload(r).materialize(0, block)
                            for r in range(4))
        assert blob == expected

    def test_unwritten_range_raises(self):
        sim, comm = setup()
        write_blocks(sim, comm, "/f", int(64 * KiB))
        with pytest.raises(ValueError, match="unwritten"):
            read_with_breakdown(sim, comm, "/f",
                                [IORequest(0, 10 * int(MiB), 1024)])


def spill_setup(range_size, resilience):
    """2 nodes x 2 ranks with a 512 KiB DRAM log per rank: a larger
    block spills to the shared BB part-way through its write."""
    base = MachineSpec.small_test(nodes=2)
    node = NodeSpec(cores=4, numa_sockets=2, dram_capacity=4 * 2 ** 30,
                    dram_cache_capacity=1 * MiB, dram_bandwidth=10e9)
    spec = MachineSpec(nodes=2, node=node, burst_buffer=base.burst_buffer,
                       lustre=base.lustre, network=base.network, seed=1)
    sim = Simulation(spec)
    sim.install_univistor(UniviStorConfig.dram_bb(
        flush_enabled=False, resilience_enabled=resilience,
        chunk_size=int(64 * KiB), metadata_range_size=range_size))
    return sim, sim.comm("app", 4, procs_per_node=2)


def write_in_halves(sim, comm, sizes):
    """Rank ``r`` writes ``sizes[r]`` bytes back to back with the other
    ranks' blocks, in two collective writes (two records per range it
    touches, merged in the stores)."""
    offsets = [sum(sizes[:r]) for r in range(len(sizes))]

    def app():
        fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
        for half in (0, 1):
            requests = []
            for r, size in enumerate(sizes):
                first = size // 2
                lo = offsets[r] + (first if half else 0)
                length = size - first if half else first
                requests.append(IORequest(r, lo, length, PatternPayload(r),
                                          lo - offsets[r]))
            yield from fh.write_at_all(requests)
        yield from fh.close()
        yield from fh.sync()

    sim.run_to_completion(app())
    return sim.univistor.session("/f")


def contiguous_runs(records):
    """Same-writer sequences with contiguous offsets and VAs, tier and
    node ignored: looser than ``record_runs``, so a run can cross the
    DRAM -> BB layer boundary (the DRAM log fills to capacity, so the
    first BB segment's VA continues the last DRAM one)."""
    runs = []
    for rec in records:
        prev = runs[-1][-1] if runs else None
        if (prev is not None and prev.proc_id == rec.proc_id
                and prev.end == rec.offset
                and prev.va + prev.length == rec.va):
            runs[-1].append(rec)
        else:
            runs.append([rec])
    return runs


def canonical(extents):
    """Provenance-normalised bytes of an extent list, plus its size."""
    emap = ExtentMap()
    for e in extents:
        emap.write(e.offset, e.length, e.payload, e.payload_offset)
    return ([(e.offset, e.length, e.payload.describe(), e.payload_offset)
             for e in emap], sum(e.length for e in extents))


def outcome(resolve):
    """Canonical extents of a resolution, or the DataLossError it raised
    with every structured field."""
    try:
        return canonical(resolve())
    except DataLossError as err:
        return (type(err), str(err), err.fid, err.rank, err.node,
                err.offset, err.length)


_sizes = st.lists(st.integers(min_value=16, max_value=900).map(
    lambda k: k * int(KiB)), min_size=4, max_size=4)
_range_sizes = st.sampled_from([int(48 * KiB), int(96 * KiB),
                                int(160 * KiB)])


class TestResolveRun:
    """``resolve_run`` describes the same bytes as concatenating
    per-record ``resolve`` calls, and on any unclean run reports exactly
    what they report."""

    @given(_sizes, _range_sizes)
    @settings(max_examples=40, deadline=None)
    def test_clean_runs_match_per_record_resolve(self, sizes, range_size):
        sim, comm = spill_setup(range_size, resilience=False)
        session = write_in_halves(sim, comm, sizes)
        service = sim.univistor.read_service
        records = sim.univistor.metadata.records_of(session.fid)
        for run in record_runs(records) + contiguous_runs(records):
            per_record = [e for r in run
                          for e in service.resolve(session, r)]
            assert (canonical(service.resolve_run(session, run))
                    == canonical(per_record))

    def test_runs_cross_range_and_layer_boundaries(self):
        range_size = int(96 * KiB)
        sim, comm = spill_setup(range_size, resilience=False)
        session = write_in_halves(sim, comm, [int(700 * KiB)] + [
            int(100 * KiB)] * 3)
        service = sim.univistor.read_service
        records = sim.univistor.metadata.records_of(session.fid)
        runs = record_runs(records)
        assert any(int(r[0].offset // range_size)
                   != int((r[-1].end - 1) // range_size) for r in runs)
        crossing = [r for r in contiguous_runs(records)
                    if len({rec.tier for rec in r}) > 1]
        assert crossing, "no run crosses the DRAM -> BB boundary"
        for run in crossing:
            per_record = [e for r in run
                          for e in service.resolve(session, r)]
            assert (canonical(service.resolve_run(session, run))
                    == canonical(per_record))
            assert canonical(per_record)[1] == run[-1].end - run[0].offset

    @given(_sizes, _range_sizes, st.booleans(),
           st.sampled_from(["fail-node", "corrupt"]),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=500),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_unclean_runs_match_per_record_telemetry(self, sizes,
                                                     range_size,
                                                     resilience, fault,
                                                     rank, at_kib, n_kib):
        """A failed node or a corrupted piece inside a run: the same
        extents or the same structured DataLossError, and the same
        telemetry records and counters, as per-record resolution."""
        def build():
            sim, comm = spill_setup(range_size, resilience)
            session = write_in_halves(sim, comm, sizes)
            if fault == "fail-node":
                sim.univistor.fail_node(comm.node_of_rank(rank).node_id)
            else:
                log = session.writers[rank].log(0).sim_file
                log.corrupt_at(at_kib * int(KiB), n_kib * int(KiB), 7)
            return sim, session

        def telemetry(sim):
            return ([(r.app, r.op, r.path, r.t_start, r.t_end, r.nbytes)
                     for r in sim.telemetry.records],
                    dict(sim.telemetry.counters))

        run_sim, run_session = build()
        rec_sim, rec_session = build()
        run_service = run_sim.univistor.read_service
        rec_service = rec_sim.univistor.read_service
        runs = record_runs(
            run_sim.univistor.metadata.records_of(run_session.fid))
        for run in runs:
            def per_record(run=run):
                extents = []
                for r in run:
                    extents.extend(rec_service.resolve(rec_session, r))
                return extents

            assert (outcome(lambda run=run: run_service.resolve_run(
                run_session, run)) == outcome(per_record))
        assert telemetry(run_sim) == telemetry(rec_sim)


def order_setup(flush):
    """3 nodes x 2 ranks on the hardened deployment (replicas on the
    shared BB), each rank's 64 KiB block written in two collectives:
    two records per block, metadata ranges of half a block."""
    block = int(64 * KiB)
    sim = Simulation(MachineSpec.small_test(nodes=3))
    system = sim.install_univistor(UniviStorConfig.hardened(
        flush_enabled=flush, self_healing=False,
        metadata_range_size=float(block // 2)))
    comm = sim.comm("app", 6, procs_per_node=2)

    def app():
        fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
        for half in (0, 1):
            lo = half * block // 2
            yield from fh.write_at_all([
                IORequest(r, r * block + lo, block // 2, PatternPayload(r),
                          lo)
                for r in range(6)])
        yield from fh.close()
        yield from fh.sync()

    sim.run_to_completion(app())
    return sim, system, comm, block


class TestResolvedExtentsOrder:
    """A collective read's extents come back offset-sorted and tiling
    each request with no re-sort: the records arrive offset-sorted and
    disjoint, and every resolution path — a clean record run, the
    replica of a failed node or of a rotted piece, the flushed PFS
    file — returns its record's window in offset order."""

    @pytest.mark.parametrize("kind", ["healthy", "degraded", "rot", "pfs"])
    def test_extents_tile_each_request_in_offset_order(self, kind):
        sim, system, comm, block = order_setup(flush=kind == "pfs")
        session = system.session("/f")
        if kind == "degraded":
            system.fail_node(comm.node_of_rank(2).node_id)
        elif kind == "rot":
            log = session.writers[3].log(0).sim_file
            log.corrupt_at(block // 4, block // 2, 7)
        elif kind == "pfs":
            for server in range(system.total_servers):
                system.crash_server(server)
        # Every rank reads a window over two ranks' blocks (four
        # records); the last one reads the whole file.
        requests = [IORequest(r, r * block + block // 4, block)
                    for r in range(5)] + [IORequest(5, 0, 6 * block)]
        results, breakdown = read_with_breakdown(sim, comm, "/f", requests)
        for req in requests:
            extents = results[req.rank]
            assert [e.offset for e in extents] == sorted(
                e.offset for e in extents)
            edges = [req.offset] + [e.end for e in extents]
            assert [e.offset for e in extents] == edges[:-1]
            assert edges[-1] == req.end
        ops = [r.op for r in sim.telemetry.records]
        if kind == "degraded":
            assert breakdown.bb_bytes > 0
        elif kind == "rot":
            assert "read-corrupt" in ops
        elif kind == "pfs":
            assert ops.count("pfs-namespace-fallback") == len(requests)
        else:
            assert breakdown.local_bytes > 0 and breakdown.remote_bytes > 0
