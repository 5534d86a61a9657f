"""The flush and replication copy primitive against a per-record
reference (docs/MODEL.md §9).

:meth:`ReadService.copy_records` copies one log window per record run
and splices version stamps once per stretch.  The reference below copies
record by record — one :meth:`ReadService.resolve`, one ``write`` per
extent and one :meth:`VersionMap.copy_from` per record — and every flush
and replication pass must leave exactly what it leaves.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core.errors import DataLossError
from repro.core.read_service import ReadService
from repro.units import KiB

RANGE = int(64 * KiB)
UNIT = int(8 * KiB)
# Four metadata servers: with one crashed, a split range can list
# overlapping records (the records_of overlap noted in CHANGES.md).  Two
# ranks per node keep every c/p log capacity a whole number of bytes;
# test_resolve_with_a_fractional_layer_base covers three.
NODES, PER_NODE = 2, 2


def _reference_copy(self, session, records, target, versions):
    """Per-record materialisation: what ``copy_records`` must equal."""
    lost = 0.0
    for record in records:
        dest = target(record)
        try:
            extents = self.resolve(session, record)
        except DataLossError:
            lost += record.length
            continue
        for ext in extents:
            dest.write(ext.offset, ext.length, ext.payload,
                       ext.payload_offset)
        versions(record).copy_from(session.data_versions, record.offset,
                                   record.length)
    return lost


def _extents(extent_map):
    return [(e.offset, e.length, e.payload.describe(), e.payload_offset)
            for e in extent_map]


def _snapshot(sim, session):
    """The copies a pass leaves: the PFS file, the replica logs and
    their version maps."""
    pfs = sim.machine.pfs_files
    replicas = sim.univistor.resilience._replicas.get(session.path, {})
    return (_extents(pfs.open(session.path).data)
            if pfs.exists(session.path) else None,
            list(session.pfs_versions._spans),
            {rank: _extents(f.data) for rank, f in replicas.items()},
            {rank: list(vmap._spans)
             for rank, vmap in session.replica_versions.items()})


def _deploy(per_node=PER_NODE):
    spec = MachineSpec.small_test(nodes=NODES)
    # 64 KiB of DRAM per rank: most writes spill into the BB.
    spec = replace(spec, node=replace(spec.node,
                                      dram_cache_capacity=128 * KiB))
    sim = Simulation(spec)
    sim.install_univistor(UniviStorConfig.dram_bb(
        resilience_enabled=True, metadata_replication=2,
        metadata_range_size=RANGE, chunk_size=16 * KiB))
    return sim, sim.comm("app", NODES * per_node, procs_per_node=per_node)


def _write(sim, comm, version, requests, rot=None, crash=None):
    """One collective write of ``(rank, offset, length)`` requests in
    ``UNIT`` s, then the close-time flush and replication.  ``rot``
    picks a record whose log bytes rot before the close; ``crash`` a
    node that crashes before it."""
    system = sim.univistor

    def app():
        fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest(rank, offset * UNIT, length * UNIT,
                      PatternPayload(100 * version + rank))
            for rank, offset, length in requests])
        session = system.session("/f")
        if rot is not None:
            records = system.metadata.records_of(session.fid)
            victim = records[rot % len(records)]
            writer = session.writers[victim.proc_id]
            layer, addr = writer.vas.resolve(victim.va)
            writer.log(layer).sim_file.corrupt_at(int(addr), victim.length,
                                                  version)
        if crash is not None:
            system.crash_node(crash)
        yield from fh.close()
        yield from fh.sync()

    sim.run_to_completion(app())


def _run(ops, split, reference, records_seen=None):
    """Play ``ops`` on a fresh deployment; returns every pass's
    snapshot, each op's outcome and the telemetry.  ``split`` crashes
    metadata server 0 and splits that range first; ``records_seen``
    collects the record list of every pass."""
    sim, comm = _deploy()
    system = sim.univistor
    snapshots = []
    copy = _reference_copy if reference else ReadService.copy_records

    def snapshotting_copy(service, session, records, target, versions):
        if records_seen is not None:
            records_seen.append(records)
        lost = copy(service, session, records, target, versions)
        snapshots.append((lost, _snapshot(sim, session)))
        return lost

    service = system.read_service
    service.copy_records = snapshotting_copy.__get__(service)
    if split is not None:
        system.crash_server(0)
        system.metadata.split_range(split)
    outcomes = []
    for version, (requests, rot, crash) in enumerate(ops):
        try:
            _write(sim, comm, version, requests, rot, crash)
            outcomes.append("ok")
        except DataLossError as err:
            outcomes.append(repr(err))
    telemetry = [(r.app, r.op, r.path, r.t_start, r.t_end, r.nbytes)
                 for r in sim.telemetry.records]
    return snapshots, outcomes, telemetry


_requests = st.lists(st.tuples(st.integers(0, NODES * PER_NODE - 1),
                               st.integers(0, 40), st.integers(1, 12)),
                     min_size=1, max_size=6, unique_by=lambda r: r[0])
_ops = st.lists(st.tuples(_requests,
                          st.one_of(st.none(), st.integers(0, 50)),
                          st.one_of(st.none(), st.integers(0, NODES - 1))),
                min_size=1, max_size=5)


class TestCopyPathEquivalence:
    @given(_ops, st.one_of(st.none(), st.integers(0, 5)))
    @settings(max_examples=60, deadline=None)
    def test_passes_equal_the_per_record_reference(self, ops, split):
        """Multi-writer collectives with DRAM -> BB spill, overwrites,
        re-flushes over the existing PFS file, rot, node crashes between
        the write and the close, and a split range (whose records may
        overlap): every flush and replication pass leaves the PFS
        extents, ``pfs_versions``, replica logs and replica maps the
        per-record copy leaves, with the same ``flush-lost`` and
        ``replicate-lost`` telemetry."""
        real = _run(ops, split, reference=False)
        ref = _run(ops, split, reference=True)
        assert real == ref
        assert real[0]  # at least one pass ran

    def test_lost_and_rotted_records_mid_file(self):
        """A crash between the write and the close loses a rank's fresh
        records mid-file; rot forces the per-record path elsewhere."""
        ops = [([(0, 0, 2), (1, 12, 2), (2, 24, 2), (3, 36, 2)],
                None, None),
               ([(0, 4, 10), (2, 14, 10), (3, 24, 10), (1, 34, 10)],
                3, 1)]
        real = _run(ops, None, reference=False)
        assert real == _run(ops, None, reference=True)
        ops_seen = {entry[1] for entry in real[2]}
        assert {"flush-lost", "replicate-lost", "read-corrupt"} <= ops_seen

    def test_overlapping_split_range_records(self):
        """A split range whose copies compacted differently lists
        overlapping records; both copies land in record order, so the
        later one wins, exactly as record by record."""
        seen = []
        ops = [([(0, 0, 1), (1, 8, 8)], None, None),
               ([(2, 8, 8)], None, None)]
        real = _run(ops, 1, reference=False, records_seen=seen)
        assert real == _run(ops, 1, reference=True)
        assert any(a.end > b.offset
                   for records in seen
                   for a, b in zip(records, records[1:]))


def test_resolve_with_a_fractional_layer_base():
    """Every record resolves to its own window.  Rank 0 spills into the
    BB and then overwrites, so a range-cut piece of a BB record carries
    a VA summed from a fractional layer base: with three ranks per node
    the DRAM log holds 256 KiB / 3 bytes, and ``va - base`` can land a
    rounding error below a whole byte, which the VA space snaps back."""
    sim, comm = _deploy(per_node=3)
    for version, length in enumerate((1, 10, 9)):
        _write(sim, comm, version, [(0, 0, length)])
    system = sim.univistor
    session = system.session("/f")
    for record in system.metadata.records_of(session.fid):
        extents = system.read_service.resolve(session, record)
        assert extents[0].offset == record.offset
