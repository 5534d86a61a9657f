"""Tests for the epoch-fenced quorum data plane (docs/MODEL.md §12).

Covers the :class:`~repro.core.versioning.VersionMap` bookkeeping, the
``data_quorum`` configuration knob, write-time synchronous replication
(ack only after two failure domains hold the bytes), the structured
:class:`~repro.core.errors.DataQuorumLostError`, and — the regression
this PR exists for — the node-crash overwrite stale-fallback: the
version-ordered degraded read chain must raise ``DataLossError`` with
stale provenance instead of silently serving an older replica or
flushed PFS copy.
"""

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
from repro.core.errors import DataLossError, DataQuorumLostError
from repro.core.versioning import StaleSpan, VersionMap
from repro.units import KiB


def setup(resilience=True, flush=False, **kw):
    config = UniviStorConfig.dram_only(resilience_enabled=resilience,
                                       flush_enabled=flush, **kw)
    sim = Simulation(MachineSpec.small_test(nodes=2))
    sim.install_univistor(config)
    comm = sim.comm("app", 4, procs_per_node=2)
    return sim, comm


def write_blocks(sim, comm, path, block, pattern_base=0):
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest.contiguous_block(r, block,
                                       PatternPayload(pattern_base + r))
            for r in range(comm.size)])
        yield from fh.close()
        yield from fh.sync()

    sim.run_to_completion(app())


def overwrite_blocks_no_close(sim, comm, path, block, pattern_base):
    """Rewrite every rank's block and deliberately skip close/sync: no
    async flush, no close-time replication — the overwrite's durability
    is whatever the write path itself provided."""
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest.contiguous_block(r, block,
                                       PatternPayload(pattern_base + r))
            for r in range(comm.size)])

    sim.run_to_completion(app())


def read_rank(sim, comm, path, rank, block):
    def app():
        fh = yield from sim.open(comm, path, "r", fstype="univistor")
        data = yield from fh.read_at_all(
            [IORequest(rank, rank * block, block)])
        yield from fh.close()
        return data

    data = sim.run_to_completion(app())
    return b"".join(e.materialize() for e in data[rank])


class TestVersionMap:
    def test_stamp_and_overwrite_splice(self):
        vm = VersionMap()
        vm.stamp(0, 100, 1)
        vm.stamp(50, 100, 2)
        assert vm.spans(0, 150) == [(0, 50, 1, 0), (50, 150, 2, 0)]
        assert vm.max_version() == 2

    def test_interior_overwrite_keeps_flanks(self):
        vm = VersionMap()
        vm.stamp(0, 300, 1, epoch=4)
        vm.stamp(100, 100, 2, epoch=5)
        assert vm.spans(0, 300) == [
            (0, 100, 1, 4), (100, 200, 2, 5), (200, 300, 1, 4)]

    def test_spans_clip_to_window_and_omit_gaps(self):
        vm = VersionMap()
        vm.stamp(0, 10, 1)
        vm.stamp(20, 10, 2)
        assert vm.spans(5, 20) == [(5, 10, 1, 0), (20, 25, 2, 0)]
        assert vm.spans(10, 10) == []

    def test_copy_from_makes_copy_current(self):
        authority, copy = VersionMap(), VersionMap()
        authority.stamp(0, 100, 3, epoch=2)
        copy.copy_from(authority, 0, 100)
        assert copy.stale_spans(authority, 0, 100) == []

    def test_stale_spans_on_older_copy(self):
        authority, copy = VersionMap(), VersionMap()
        authority.stamp(0, 100, 1)
        copy.copy_from(authority, 0, 100)
        authority.stamp(0, 100, 2)       # overwrite never copied
        stale = copy.stale_spans(authority, 0, 100)
        assert stale == [StaleSpan(0, 100, 1, 0, 2, 0)]
        assert "holds v1" in stale[0].describe()
        assert "current is v2" in stale[0].describe()

    def test_unstamped_copy_bytes_count_as_version_zero(self):
        authority, copy = VersionMap(), VersionMap()
        authority.stamp(0, 100, 1)
        copy.copy_from(authority, 0, 50)  # half the window never copied
        stale = copy.stale_spans(authority, 0, 100)
        assert stale == [StaleSpan(50, 100, 0, 0, 1, 0)]

    def test_authority_unstamped_bytes_demand_nothing(self):
        authority, copy = VersionMap(), VersionMap()
        authority.stamp(0, 10, 1)
        copy.copy_from(authority, 0, 10)
        assert copy.stale_spans(authority, 0, 1000) == []

    def test_newer_copy_is_not_stale(self):
        authority, copy = VersionMap(), VersionMap()
        authority.stamp(0, 100, 1)
        copy.stamp(0, 100, 5)            # scrub repaired past a re-stamp
        assert copy.stale_spans(authority, 0, 100) == []

    _stamps = st.lists(st.tuples(st.integers(0, 120), st.integers(1, 60),
                                 st.integers(1, 9), st.integers(0, 3)),
                       max_size=8)

    @given(_stamps, _stamps, st.integers(0, 100),
           st.lists(st.integers(1, 40), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_run_stamp_equals_per_record_copy_from(self, auth_stamps,
                                                   copy_stamps, start,
                                                   lengths):
        """The run-level stamp leaves exactly the spans the per-record
        ``copy_from`` calls leave — authority gaps included."""
        authority, per_record, per_run = (VersionMap(), VersionMap(),
                                          VersionMap())
        for off, n, v, ep in auth_stamps:
            authority.stamp(off, n, v, ep)
        for off, n, v, ep in copy_stamps:
            per_record.stamp(off, n, v, ep)
            per_run.stamp(off, n, v, ep)
        cuts = [start]
        for n in lengths:
            cuts.append(cuts[-1] + n)
        for lo, hi in zip(cuts, cuts[1:]):
            per_record.copy_from(authority, lo, hi - lo)
        per_run.copy_from_cuts(authority, cuts)
        assert per_run._spans == per_record._spans

    def test_run_stamp_cuts_at_every_record_edge(self):
        authority, copy = VersionMap(), VersionMap()
        authority.stamp(0, 300, 1)
        copy.stamp(0, 400, 7)
        copy.copy_from_cuts(authority, [50, 100, 250])
        assert copy.spans(0, 400) == [(0, 50, 7, 0), (50, 100, 1, 0),
                                      (100, 250, 1, 0), (250, 400, 7, 0)]


class TestConfigValidation:
    def test_quorum_of_three_rejected(self):
        # The model has exactly two failure domains (node-local +
        # shared); a third copy has nowhere independent to live.
        with pytest.raises(ValueError, match="data_quorum"):
            UniviStorConfig.dram_only(resilience_enabled=True,
                                      data_quorum=3)

    def test_quorum_of_zero_rejected(self):
        with pytest.raises(ValueError, match="data_quorum"):
            UniviStorConfig.dram_only(data_quorum=0)

    def test_quorum_needs_resilience(self):
        with pytest.raises(ValueError, match="resilience"):
            UniviStorConfig.dram_only(data_quorum=2)

    def test_default_is_legacy_async_path(self):
        assert UniviStorConfig.dram_only().data_quorum == 1

    def test_hardened_leaves_quorum_off(self):
        # Golden-digest bit-identity: hardened() must not flip the knob.
        assert UniviStorConfig.hardened().data_quorum == 1


class TestSynchronousReplication:
    def test_ack_counter_counts_mirrored_ranks(self):
        sim, comm = setup(data_quorum=2)
        write_blocks(sim, comm, "/f", int(64 * KiB))
        assert sim.telemetry.counters.get("data-quorum-ack") == comm.size

    def test_close_time_replication_noops_after_sync_copy(self):
        # The write already made the bytes durable on the BB; the async
        # close-time pass must not re-send them.
        sim, comm = setup(data_quorum=2)
        write_blocks(sim, comm, "/f", int(64 * KiB))
        assert sim.telemetry.select(op="replicate") == []

    def test_write_survives_crash_before_close(self):
        # The whole point of data_quorum=2: the file is still OPEN (no
        # close-time replication ever ran) when the writer node dies —
        # the synchronous write-time mirror alone serves the read.
        sim, comm = setup(data_quorum=2)
        block = int(128 * KiB)
        overwrite_blocks_no_close(sim, comm, "/f", block, pattern_base=0)
        sim.univistor.fail_node(0)
        blob = read_rank(sim, comm, "/f", 0, block)
        assert blob == PatternPayload(0).materialize(0, block)

    def test_same_scenario_at_quorum_one_is_an_honest_loss(self):
        sim, comm = setup(data_quorum=1)
        block = int(128 * KiB)
        overwrite_blocks_no_close(sim, comm, "/f", block, pattern_base=0)
        sim.univistor.fail_node(0)
        with pytest.raises(DataLossError):
            read_rank(sim, comm, "/f", 0, block)

    def test_mirror_failure_raises_structured_quorum_error(self):
        sim, comm = setup(data_quorum=2)
        block = int(64 * KiB)
        sim.machine.burst_buffer.device.inject_write_errors(100)
        with pytest.raises(DataQuorumLostError) as err:
            write_blocks(sim, comm, "/f", block)
        e = err.value
        assert e.acked == 1
        assert e.needed == 2
        assert e.offset == 0
        assert e.length == block
        assert isinstance(e, DataLossError)  # one except clause suffices
        assert sim.telemetry.counters.get("data-quorum-lost") == 1

    def test_quorum_without_burst_buffer_rejected(self):
        import dataclasses
        config = UniviStorConfig.dram_only(resilience_enabled=True,
                                           data_quorum=2)
        spec = dataclasses.replace(MachineSpec.small_test(nodes=2),
                                   burst_buffer=None)
        with pytest.raises(ValueError, match="burst buffer"):
            Simulation(spec).install_univistor(config)


class TestStaleFallbackRegression:
    """The pre-existing gap this PR closes (ISSUE 9, satellite 1).

    Before version-ordered degraded reads, this exact sequence silently
    returned the OLD pattern: v1 was replicated and flushed at close,
    the v2 overwrite's only copy died with the node, and the fallback
    chain happily served the stale v1 replica (it passed checksum).
    Now every stale copy is refused and the loss is honest.
    """

    BLOCK = int(256 * KiB)

    def _run_scenario(self, flush):
        sim, comm = setup(resilience=True, flush=flush)
        write_blocks(sim, comm, "/f", self.BLOCK, pattern_base=0)   # v1
        overwrite_blocks_no_close(sim, comm, "/f", self.BLOCK,
                                  pattern_base=comm.size)            # v2
        sim.univistor.fail_node(0)  # ranks 0 and 1 lived there
        return sim, comm

    def test_stale_replica_is_refused_not_served(self):
        sim, comm = self._run_scenario(flush=False)
        with pytest.raises(DataLossError) as err:
            read_rank(sim, comm, "/f", 0, self.BLOCK)
        e = err.value
        assert e.stale_provenance, "loss must name the refused stale copy"
        span = e.stale_provenance[0]
        assert span.have_version < span.want_version
        assert "stale copies refused" in str(e) or "holds v" in str(e)
        assert sim.telemetry.counters.get("data-stale-reject", 0) >= 1

    def test_stale_flushed_pfs_copy_is_refused_too(self):
        # A flush that runs AFTER the crash skips the lost records (the
        # PFS keeps its v1 stamp there) yet still bumps the flushed-byte
        # counter to "everything flushed" — so the pre-existing
        # byte-count guard alone would let the stale v1 PFS copy through.
        # The version map is what refuses it.
        sim, comm = setup(resilience=False, flush=True)
        write_blocks(sim, comm, "/f", self.BLOCK, pattern_base=0)    # v1
        overwrite_blocks_no_close(sim, comm, "/f", self.BLOCK,
                                  pattern_base=comm.size)             # v2
        sim.univistor.fail_node(0)

        def close_and_sync():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.close()
            yield from fh.sync()

        sim.run_to_completion(close_and_sync())
        session = sim.univistor.session("/f")
        assert session.flushed_bytes >= session.cached_bytes_written, \
            "scenario must defeat the byte-count guard"
        with pytest.raises(DataLossError) as err:
            read_rank(sim, comm, "/f", 0, self.BLOCK)
        assert err.value.stale_provenance
        assert sim.telemetry.counters.get("data-stale-reject", 0) >= 1

    def test_no_stale_bytes_ever_returned(self):
        # Belt and braces: if the ladder *did* serve something, it must
        # not be the v1 pattern.  (pytest.raises above already proves
        # nothing was served; this documents the invariant directly.)
        sim, comm = self._run_scenario(flush=True)
        try:
            blob = read_rank(sim, comm, "/f", 0, self.BLOCK)
        except DataLossError:
            return
        assert blob != PatternPayload(0).materialize(0, self.BLOCK), \
            "silently served the stale v1 copy"

    def test_quorum_two_turns_the_loss_into_a_correct_read(self):
        # Same crash, same open file — but the v2 overwrite was mirrored
        # synchronously, so the read returns the NEW pattern.
        sim, comm = setup(resilience=True, flush=False, data_quorum=2)
        write_blocks(sim, comm, "/f", self.BLOCK, pattern_base=0)
        overwrite_blocks_no_close(sim, comm, "/f", self.BLOCK,
                                  pattern_base=comm.size)
        sim.univistor.fail_node(0)
        blob = read_rank(sim, comm, "/f", 0, self.BLOCK)
        assert blob == PatternPayload(comm.size).materialize(0, self.BLOCK)

    def test_surviving_node_unaffected(self):
        sim, comm = self._run_scenario(flush=False)
        blob = read_rank(sim, comm, "/f", 2, self.BLOCK)
        assert blob == PatternPayload(comm.size + 2).materialize(
            0, self.BLOCK)
