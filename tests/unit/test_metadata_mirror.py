"""The metadata service's location-cache mirror (docs/MODEL.md §9).

``MetadataService`` owns the mirror: it tracks a file from
``create_file``, writes every accepted insert through and drops the
mirror on delete, flush migration and every layout change.  The state
machine below drives a service with the mirror on and a twin with it
off in lockstep through random inserts and overwrites across range
boundaries, deletes and re-creations, flush drops, server failures and
takeovers, partitions, range splits and merges, read spreads and pool
changes.  After every step, for every file, ``lookup`` and
``overwritten`` must answer both the same: records, servers, raised
error (type, fid, offset, length) and the order of failover,
fence-reject and read-repair notifications.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from repro.core.config import StorageTier
from repro.core.errors import DataLossError
from repro.core.metadata import MetadataRecord, MetadataService

RANGE = 16
RANGES = 4
SPACE = RANGE * RANGES
FIDS = (1, 2)
# Every range alone, one span straddling a range boundary and the whole
# file.
CHECKED_SPANS = ([(r * RANGE, RANGE) for r in range(RANGES)]
                 + [(RANGE // 2, RANGE), (0, SPACE)])


def outcome(call, *args):
    """What a call did: its result, or the error with every field a
    caller reads."""
    try:
        result = call(*args)
    except (DataLossError, ValueError) as err:
        return ("raised", type(err).__name__, str(err),
                getattr(err, "fid", None), getattr(err, "offset", None),
                getattr(err, "length", None))
    if isinstance(result, tuple):  # lookup: (records, servers)
        records, servers = result
        return ("ok", records, sorted(servers))
    if isinstance(result, set):
        return ("ok", sorted(result))
    return ("ok", result)


records = st.lists(
    st.tuples(st.sampled_from(FIDS), st.integers(0, SPACE - 1),
              st.integers(1, 2 * RANGE), st.integers(0, 3)),
    min_size=1, max_size=6)
servers = st.integers(0, 3)
fids = st.sampled_from(FIDS)


class MirrorMachine(RuleBasedStateMachine):
    """A service with the mirror on and a twin with it off."""

    @initialize(n_servers=st.integers(2, 5),
                replication=st.sampled_from((1, 2, 3)),
                quorum=st.booleans(), threshold=st.integers(0, 3),
                heat=st.booleans())
    def setup(self, n_servers, replication, quorum, threshold, heat):
        self.services = []
        self.logs = []
        for mirror in (True, False):
            md = MetadataService(n_servers, RANGE, replication=replication,
                                 checkpoint_threshold=threshold,
                                 quorum=quorum, location_cache=mirror)
            md.heat_enabled = heat
            log = []
            md.on_failover = lambda r, s, log=log: log.append(("fo", r, s))
            md.on_fence_reject = (
                lambda r, s, log=log: log.append(("fence", r, s)))
            md.on_read_repair = (
                lambda r, s, log=log: log.append(("repair", r, s)))
            self.services.append(md)
            self.logs.append(log)
        self.created = set()
        self.create(1)

    def both(self, name, *args):
        """Call ``name`` on both services; they must agree."""
        got = [outcome(getattr(md, name), *args) for md in self.services]
        assert got[0] == got[1], (name, args, got)
        assert self.logs[0] == self.logs[1], (name, args)
        return got[0]

    def server(self, k):
        return k % self.services[0].n_servers

    # -- files ---------------------------------------------------------------
    @rule(fid=fids)
    def create(self, fid):
        if fid not in self.created:
            self.both("create_file", fid)
            self.created.add(fid)

    @rule(fid=fids)
    def delete(self, fid):
        self.both("delete_file", fid)
        self.created.discard(fid)

    @rule(fid=fids)
    def recreate(self, fid):
        self.delete(fid)
        self.create(fid)

    @rule(fid=fids)
    def flush(self, fid):
        self.both("drop_mirror", fid)

    @precondition(lambda self: self.created)
    @rule(batch=records)
    def insert(self, batch):
        recs = [MetadataRecord(fid, off, length, proc,
                               float(off + 100 * proc), StorageTier.DRAM, 0)
                for fid, off, length, proc in batch if fid in self.created]
        if recs:
            self.both("insert_many", recs)

    # -- faults and layout changes ------------------------------------------
    @rule(k=servers)
    def fail(self, k):
        self.both("fail_server", self.server(k))

    @rule(k=servers)
    def recover(self, k):
        self.both("recover_server", self.server(k))

    @rule(k=servers)
    def partition(self, k):
        self.both("set_unreachable", self.server(k))

    @rule(k=servers)
    def heal(self, k):
        self.both("set_reachable", self.server(k))

    @rule(r=st.integers(0, RANGES - 1))
    def split(self, r):
        self.both("split_range", r)

    @rule(r=st.integers(0, RANGES - 1), fid=fids)
    def split_then_recreate(self, r, fid):
        # A split drops the mirror: only a file born after it is
        # mirrored over a split layout.
        self.split(r)
        self.recreate(fid)

    @rule(r=st.integers(0, RANGES - 1))
    def merge(self, r):
        self.both("merge_range", r)

    @rule(r=st.integers(0, RANGES - 1))
    def spread(self, r):
        self.both("set_read_spread", r)

    @rule()
    def grow(self):
        self.both("add_server")

    @rule(k=servers)
    def shrink(self, k):
        self.both("remove_server", self.server(k))

    @rule(fid=fids, offset=st.integers(0, SPACE - 1),
          length=st.integers(1, 2 * RANGE))
    def lookup(self, fid, offset, length):
        self.both("lookup", fid, offset, length)

    # -- every step: the mirror answers like the stores ---------------------
    @invariant()
    def lookups_agree(self):
        if not hasattr(self, "services"):
            return
        for fid in FIDS:
            for offset, length in CHECKED_SPANS:
                self.both("lookup", fid, offset, length)
                self.both("overwritten", fid, offset, length)


TestMirrorEquivalence = MirrorMachine.TestCase
TestMirrorEquivalence.settings = settings(max_examples=150,
                                          stateful_step_count=25,
                                          deadline=None)


def rec(offset, length, proc=0, fid=1):
    return MetadataRecord(fid, offset, length, proc, float(offset),
                          StorageTier.DRAM, 0)


class TestCacheEvents:
    """``cache-hit``, ``cache-miss`` and ``cache-invalidate`` keep their
    meanings behind the service."""

    def service(self):
        md = MetadataService(4, RANGE, replication=2, location_cache=True)
        events = []
        md.on_cache_event = lambda name, n: events.append((name, n))
        return md, events

    def test_hit_miss_and_overwrite(self):
        md, events = self.service()
        md.create_file(1)
        md.insert_many([rec(0, 24), rec(0, 8, fid=2)])
        assert md.lookup(1, 0, 8)[0] == [rec(0, 8)]
        assert md.lookup(2, 0, 8)[0] == [rec(0, 8, fid=2)]
        # A hit that finds records to supersede also counts their drop;
        # a hole does not.
        assert md.overwritten(1, 4, 8) == [rec(4, 8)]
        assert md.overwritten(1, 40, 8) == []
        assert events == [("cache-hit", 1), ("cache-miss", 1),
                          ("cache-hit", 1), ("cache-invalidate", 1),
                          ("cache-hit", 1)]

    def test_drops(self):
        md, events = self.service()
        md.create_file(1)
        md.create_file(2)
        md.insert_many([rec(0, 24)])
        md.drop_mirror(1)  # the flush's migration
        md.drop_mirror(1)  # already dropped: no event
        md.delete_file(2)
        assert events == [("cache-invalidate", 1), ("cache-invalidate", 1)]
        md.create_file(3)
        md.split_range(0)  # a layout change drops every tracked file
        assert events[-1] == ("cache-invalidate", 1)
        assert not md.location_cache.tracks(3)

    def test_refused_range_is_not_mirrored(self):
        """A batch whose second range cannot ack leaves the first range
        applied in the stores and in the mirror, the second in neither."""
        md = MetadataService(4, RANGE, replication=1, location_cache=True)
        md.create_file(1)
        md.fail_server(1)
        with pytest.raises(DataLossError):
            md.insert_many([rec(0, 2 * RANGE)])
        assert md.location_cache.lookup(1, 0, 2 * RANGE) == [rec(0, RANGE)]
        assert md.records_of(1) == [rec(0, RANGE)]
