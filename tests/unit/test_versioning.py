"""Set-at-a-time version stamping (docs/MODEL.md §9, §12).

A collective write stamps each *stretch* of back-to-back admitted
requests into the authority map with one splice, and the flush stamps
each stretch of offset-contiguous copied runs into the PFS copy map with
one splice.  Every test here pins the same contract: the spans left are
exactly those of the per-request (per-run) stamping they replace.
"""

from unittest import mock

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
from repro.core import client as client_module
from repro.core.client import UniviStorDriver
from repro.core.flush import FlushService
from repro.core.errors import DataLossError
from repro.core.metadata import MetadataUnavailableError
from repro.core.versioning import VersionMap, stamp_with_epochs
from repro.units import KiB

RANGE = int(64 * KiB)


class _Epochs:
    """The two members of ``MetadataService`` that stamping reads."""

    def __init__(self, range_size, epochs):
        self.range_size = float(range_size)
        self._epochs = epochs

    def range_epoch(self, range_index):
        return self._epochs.get(range_index, 0)


def _edges(start, lengths):
    edges = [start]
    for length in lengths:
        edges.append(edges[-1] + length)
    return edges


class TestStretchStamp:
    @given(st.sampled_from([8, 16, 64]),
           st.integers(min_value=0, max_value=100),
           st.lists(st.integers(min_value=1, max_value=60), min_size=1,
                    max_size=8),
           st.dictionaries(st.integers(min_value=0, max_value=60),
                           st.integers(min_value=0, max_value=3)),
           st.lists(st.tuples(st.integers(min_value=0, max_value=400),
                              st.integers(min_value=1, max_value=120),
                              st.integers(min_value=1, max_value=5),
                              st.integers(min_value=0, max_value=3)),
                    max_size=6),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=300, deadline=None)
    def test_stretch_equals_per_request_stamps(self, range_size, start,
                                               lengths, epochs, prior,
                                               version):
        """Random request lengths, stretches starting and ending
        mid-range, range epochs bumped inside the stretch, and earlier
        spans overwritten: one stretch stamp leaves exactly the spans of
        one ``stamp_with_epochs`` per request."""
        metadata = _Epochs(range_size, epochs)
        per_request, stretch = VersionMap(), VersionMap()
        for offset, length, v, epoch in prior:
            per_request.stamp(offset, length, v, epoch)
            stretch.stamp(offset, length, v, epoch)
        edges = _edges(start, lengths)
        for lo, hi in zip(edges, edges[1:]):
            stamp_with_epochs(per_request, metadata, lo, hi - lo, version)
        stamp_with_epochs(stretch, metadata, edges[0],
                          edges[-1] - edges[0], version, edges[1:-1])
        assert stretch._spans == per_request._spans

    def test_edges_at_every_request_and_epoch_change(self):
        vmap = VersionMap()
        metadata = _Epochs(10, {1: 1, 2: 1, 3: 2})
        # Requests [5, 12) [12, 27) [27, 33); epochs change at 10 and 30.
        stamp_with_epochs(vmap, metadata, 5, 28, 7, [12, 27])
        assert vmap.spans(0, 100) == [(5, 10, 7, 0), (10, 12, 7, 1),
                                      (12, 27, 7, 1), (27, 30, 7, 1),
                                      (30, 33, 7, 2)]


# -- the collective write path ---------------------------------------------

def _per_request_stamp(self, session, edges, version, mirrored):
    """Reference: the per-request path, one stamp per request followed
    by the replica-map copies of that request's mirrored records."""
    authority = session.data_versions
    metadata = self.system.metadata
    i = 0
    for lo, hi in zip(edges, edges[1:]):
        client_module.stamp_with_epochs(authority, metadata, lo, hi - lo,
                                        version)
        while i < len(mirrored) and mirrored[i].offset < hi:
            rec = mirrored[i]
            session.replica_map(rec.proc_id).copy_from(authority,
                                                       rec.offset,
                                                       rec.length)
            i += 1
    assert i == len(mirrored)


def _quorum_sim():
    config = UniviStorConfig.dram_only(
        resilience_enabled=True, flush_enabled=False, data_quorum=2,
        metadata_range_size=RANGE)
    sim = Simulation(MachineSpec.small_test(nodes=2))
    sim.install_univistor(config)
    return sim, sim.comm("app", 4, procs_per_node=2)


def _collective(sim, comm, path, requests):
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all(requests)

    sim.run_to_completion(app())


# Back-to-back stretches, a gap, an intra-op overwrite of an earlier
# request, and requests straddling range edges mid-range.
_SECOND = [(0, 0, 100), (1, 100, 130), (2, 230, 70),   # stretch 1
           (3, 400, 50),                                # stretch 2
           (0, 420, 80), (1, 500, 20)]                  # stretch 3


def _quorum_maps(per_request):
    sim, comm = _quorum_sim()
    system = sim.univistor
    # Bump two ranges' epochs (a split is a layout change) so stretches
    # carry more than one epoch.
    system.metadata.split_range(1)
    system.metadata.split_range(6)
    kib = int(KiB)
    first = [IORequest(r, r * 150 * kib, 150 * kib, PatternPayload(r))
             for r in range(4)]
    second = [IORequest(r, off * kib, ln * kib, PatternPayload(10 + r))
              for r, off, ln in _SECOND]
    stamps = mock.patch.object(client_module, "stamp_with_epochs",
                               wraps=stamp_with_epochs)
    patches = [stamps]
    if per_request:
        patches.append(mock.patch.object(UniviStorDriver, "_stamp_stretch",
                                         _per_request_stamp))
    for patch in patches:
        patch.start()
    try:
        _collective(sim, comm, "/f", first)
        calls_first = client_module.stamp_with_epochs.call_count
        _collective(sim, comm, "/f", second)
        calls = client_module.stamp_with_epochs.call_count
    finally:
        for patch in reversed(patches):
            patch.stop()
    session = system.session("/f")
    maps = (session.data_versions._spans,
            {rank: vmap._spans
             for rank, vmap in session.replica_versions.items()})
    return maps, (calls_first, calls - calls_first)


class TestCollectiveStamping:
    def test_quorum_replica_maps_equal_per_request_path(self):
        """With ``data_quorum=2`` the authority and every replica map
        equal the per-request path's, while the op stamps three
        stretches instead of six requests."""
        stretched, calls = _quorum_maps(per_request=False)
        reference, ref_calls = _quorum_maps(per_request=True)
        assert stretched == reference
        assert calls == (1, 3)
        assert ref_calls == (4, 6)
        authority, replicas = stretched
        assert {ep for _s, _e, _v, ep in authority} == {0, 1}
        assert len(replicas) == 4

    def test_refused_kth_request_is_not_stamped(self):
        """A collective refused at its k-th request (k = 3, its range's
        only server is lost) leaves the first k-1 requests stamped —
        authority and replica maps — and the k-th not."""
        sim, comm = _quorum_sim()
        system = sim.univistor
        system.metadata.fail_server(2)  # owns range 2 (replication 1)
        requests = [IORequest(r, r * RANGE, RANGE, PatternPayload(r))
                    for r in range(4)]
        with pytest.raises(MetadataUnavailableError):
            _collective(sim, comm, "/f", requests)
        session = system.session("/f")
        assert session.data_versions.spans(0, 4 * RANGE) == [
            (0, RANGE, 1, 0), (RANGE, 2 * RANGE, 1, 0)]
        for rank in (0, 1):
            assert session.replica_map(rank).spans(0, 4 * RANGE) == [
                (rank * RANGE, (rank + 1) * RANGE, 1, 0)]
        assert 2 not in session.replica_versions
        assert 2 not in session.writers


# -- the flush ------------------------------------------------------------

def _per_record_materialise(self, session):
    """Reference: the per-record flush, one ``resolve`` and one
    ``copy_from_cuts`` per record."""
    out = self.machine.pfs_files.create(session.path)
    lost_bytes = 0.0
    for record in self.system.metadata.records_of(session.fid):
        try:
            extents = self.system.read_service.resolve(session, record)
        except DataLossError:
            lost_bytes += record.length
            continue
        for extent in extents:
            out.write_at(extent.offset, extent.length, extent.payload,
                         extent.payload_offset)
        session.pfs_versions.copy_from_cuts(session.data_versions,
                                            [record.offset, record.end])
    if lost_bytes > 0:
        self.system.telemetry_hook("flush-lost", session.path, lost_bytes)


def _flush_with_lost_record(per_record):
    sim = Simulation(MachineSpec.small_test(nodes=2))
    sim.install_univistor(UniviStorConfig.dram_only(
        metadata_range_size=RANGE))
    comm = sim.comm("app", 4, procs_per_node=2)
    system = sim.univistor
    block = 3 * RANGE

    def write(pattern):
        fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest.contiguous_block(r, block, PatternPayload(pattern + r))
            for r in range(4)])
        return fh

    def app():
        fh = yield from write(1)
        yield from fh.close()
        yield from fh.sync()
        fh = yield from write(10)
        # Rot the middle piece of rank 1's block: a lost record mid-file.
        session = system.session("/f")
        victim = [r for r in system.metadata.records_of(session.fid)
                  if r.proc_id == 1][1]
        layer, addr = session.writers[1].vas.resolve(victim.va)
        session.writers[1].log(layer).sim_file.corrupt_at(
            int(addr), victim.length, 99)
        yield from fh.close()
        yield from fh.sync()
        return victim

    splices = mock.patch.object(VersionMap, "copy_from_cuts", autospec=True,
                                side_effect=VersionMap.copy_from_cuts)
    patches = [splices]
    if per_record:
        patches.append(mock.patch.object(FlushService, "_materialise_to_pfs",
                                         _per_record_materialise))
    for patch in patches:
        patch.start()
    try:
        victim = sim.run_to_completion(app())
        calls = VersionMap.copy_from_cuts.call_count
    finally:
        for patch in reversed(patches):
            patch.stop()
    session = system.session("/f")
    pfs = sim.machine.pfs_files.open("/f")
    lost, = sim.telemetry.select(op="flush-lost")
    return (session.pfs_versions._spans, pfs.read_bytes(0, 4 * block),
            lost.nbytes, victim), calls


class TestFlushStamping:
    def test_per_stretch_equals_per_run_with_a_lost_record(self):
        """A lost record mid-file ends a stretch; the PFS bytes and
        ``pfs_versions`` equal the per-record flush's, with fewer
        splices."""
        stretched, calls = _flush_with_lost_record(per_record=False)
        reference, ref_calls = _flush_with_lost_record(per_record=True)
        assert stretched == reference
        spans, _data, lost, victim = stretched
        assert lost == victim.length
        # The victim keeps the first flush's stamp; everything around it
        # carries the overwrite's.
        kept = [s for s in spans if s[0] < victim.end and s[1] > victim.offset]
        assert [(s[0], s[1], s[2]) for s in kept] == [
            (victim.offset, victim.end, 1)]
        # First flush: one stretch.  Re-flush: the two stretches either
        # side of the victim, where the per-record flush spliced once
        # per record (four ranks of three ranges each) and once per
        # surviving record on the re-flush.
        assert calls == 1 + 2
        assert ref_calls == 12 + 11
