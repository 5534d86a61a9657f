"""The metadata route table (docs/MODEL.md §9).

``MetadataService`` keeps each unsplit range's write ackers for one
routing generation; every change to routing state starts a new one.  The
state machine below drives a service and a twin whose table is emptied
before every routing call through random faults, partitions, inserts,
lookups, layout changes and pool changes, and after every step asks both
the same routing questions: answers, raised errors (with their
fid/offset/length) and the order of failover, fence-reject and
read-repair notifications must match exactly.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.core.config import StorageTier
from repro.core.errors import DataLossError
from repro.core.metadata import MetadataRecord, MetadataService

RANGE = 16
RANGES = 4
SPACE = RANGE * RANGES
FIDS = (1, 2)


class Unmemoised(MetadataService):
    """A service whose route table is emptied before every routing call:
    the answer the table must reproduce."""

    def _forget(self):
        self._ackers.clear()

    def _write_ackers(self, *args):
        self._forget()
        return super()._write_ackers(*args)

    def read_server_of(self, *args):
        self._forget()
        return super().read_server_of(*args)

    def write_target_servers(self, *args):
        self._forget()
        return super().write_target_servers(*args)

    def read_servers_for(self, *args):
        self._forget()
        return super().read_servers_for(*args)


def outcome(call, *args):
    """What a call did: its result, or the error with every field a
    caller reads."""
    try:
        result = call(*args)
    except (DataLossError, ValueError) as err:
        return ("raised", type(err).__name__, str(err),
                getattr(err, "fid", None), getattr(err, "offset", None),
                getattr(err, "length", None),
                getattr(err, "range_index", None),
                getattr(err, "acked", None), getattr(err, "needed", None))
    if isinstance(result, set):
        return ("ok", sorted(result))
    return ("ok", result)


records = st.lists(
    st.tuples(st.sampled_from(FIDS), st.integers(0, SPACE - 1),
              st.integers(1, 2 * RANGE), st.integers(0, 3)),
    min_size=1, max_size=6)
spans = st.tuples(st.integers(0, SPACE - 1), st.integers(1, 2 * RANGE))
# Reduced modulo the current pool size; few values, so steps collide on
# the same servers often.
servers = st.integers(0, 3)


class RouteTableMachine(RuleBasedStateMachine):
    """A memoised service and an unmemoised twin, driven in lockstep."""

    # Replication 3 and quorum mode are drawn more often: only a
    # majority quorum with a lagging minority read-repairs copies.
    @initialize(n_servers=st.integers(2, 5),
                replication=st.sampled_from((1, 2, 3, 3)),
                stride=st.integers(1, 2),
                quorum=st.sampled_from((False, True, True)),
                threshold=st.integers(0, 3), heat=st.booleans())
    def setup(self, n_servers, replication, stride, quorum, threshold,
              heat):
        self.services = []
        self.logs = []
        for cls in (MetadataService, Unmemoised):
            md = cls(n_servers, RANGE, replication=replication,
                     replica_stride=stride, checkpoint_threshold=threshold,
                     quorum=quorum)
            md.heat_enabled = heat
            log = []
            md.on_failover = lambda r, s, log=log: log.append(("fo", r, s))
            md.on_fence_reject = (
                lambda r, s, log=log: log.append(("fence", r, s)))
            md.on_read_repair = (
                lambda r, s, log=log: log.append(("repair", r, s)))
            self.services.append(md)
            self.logs.append(log)

    def both(self, name, *args):
        """Call ``name`` on both services; they must agree."""
        got = [outcome(getattr(md, name), *args) for md in self.services]
        assert got[0] == got[1], (name, args, got)
        assert self.logs[0] == self.logs[1], (name, args)
        return got[0]

    def server(self, k):
        return k % self.services[0].n_servers

    # -- routing-state mutators ---------------------------------------------
    @rule(k=servers)
    def fail(self, k):
        self.both("fail_server", self.server(k))

    @rule(k=servers)
    def partition(self, k):
        self.both("set_unreachable", self.server(k))

    @rule(k=servers)
    def heal(self, k):
        self.both("set_reachable", self.server(k))

    @rule(k=servers)
    def recover(self, k):
        self.both("recover_server", self.server(k))

    @rule(r=st.integers(0, RANGES - 1))
    def split(self, r):
        self.both("split_range", r)

    @rule(r=st.integers(0, RANGES - 1))
    def merge(self, r):
        self.both("merge_range", r)

    @rule(r=st.integers(0, RANGES - 1), extra=st.integers(1, 2))
    def spread(self, r, extra):
        self.both("set_read_spread", r, extra)

    @rule()
    def grow(self):
        self.both("add_server")

    @rule(k=servers)
    def shrink(self, k):
        self.both("remove_server", self.server(k))

    # -- data-plane calls ---------------------------------------------------
    @rule(batch=records)
    def insert(self, batch):
        recs = [MetadataRecord(fid, off, length, proc, float(off),
                               StorageTier.DRAM, 0)
                for fid, off, length, proc in batch]
        self.both("insert_many", recs)

    @rule(k=servers)
    def blip(self, k):
        # A transient partition, asked the routing questions while cut.
        self.partition(k)
        self.routes_agree()
        self.heal(k)

    @rule(k=servers, batch=records)
    def lagging_write(self, k, batch):
        # A write while one server is cut off, then the heal: under
        # quorum the server's copies lag until read-repaired.
        self.partition(k)
        self.insert(batch)
        self.heal(k)

    @rule(fid=st.sampled_from(FIDS), span=spans)
    def lookup(self, fid, span):
        self.both("lookup", fid, *span)

    @rule()
    def drain_heat(self):
        self.both("take_heat")

    # -- every step: ask both the same routing questions --------------------
    @invariant()
    def routes_agree(self):
        if not hasattr(self, "services"):
            return
        # While read routing is silent the overwrite check skips its
        # read_servers_for: reads must then neither raise, notify nor
        # move rotation or fence state.
        memo = self.services[0]
        silent = memo.read_routing_silent()
        notified = len(self.logs[0])
        state = (dict(memo._read_spread), repr(memo._stale))
        for r in range(RANGES):
            lo = r * RANGE
            self.both("_write_ackers", r)
            served = self.both("read_server_of", r)
            self.both("write_target_servers", 1, lo, RANGE)
            read = self.both("read_servers_for", 1, lo, RANGE)
            if silent:
                assert served[0] == read[0] == "ok"
        if silent:
            assert len(self.logs[0]) == notified
            assert (dict(memo._read_spread), repr(memo._stale)) == state
        for fid in FIDS:
            self.both("records_of", fid)
        twin = self.services[1]
        assert memo._stale == twin._stale
        assert memo._stores == twin._stores


TestRouteTable = RouteTableMachine.TestCase
TestRouteTable.settings = settings(max_examples=150, stateful_step_count=25,
                                   deadline=None)


class TestGeneration:
    def test_every_mutator_bumps(self):
        md = MetadataService(4, RANGE, replication=2, quorum=True)
        md.insert_many([MetadataRecord(1, 0, 8, 0, 0.0, StorageTier.DRAM,
                                       0)])
        steps = [lambda: md.set_unreachable(1), lambda: md.set_reachable(1),
                 lambda: md.split_range(0), lambda: md.merge_range(0),
                 lambda: md.set_read_spread(0), md.add_server,
                 lambda: md.remove_server(4), lambda: md.fail_server(0),
                 lambda: md.recover_server(0)]
        for step in steps:
            before = md.generation
            step()
            assert md.generation > before

    def test_probe_then_insert_computes_once(self):
        md = MetadataService(4, RANGE, replication=2)
        computed = []
        compute = md._compute_ackers
        md._compute_ackers = lambda *a: computed.append(a) or compute(*a)
        assert md.write_target_servers(1, 0, 8) == {0, 1}
        md.insert_many([MetadataRecord(1, 0, 8, 0, 0.0, StorageTier.DRAM,
                                       0)])
        # Computed once, by the probe, at its span's low offset.
        assert computed == [(0, 0)]
        md.fail_server(1)
        assert md.write_target_servers(1, 0, 8) == {0}
        assert len(computed) == 2

    def test_refusal_is_never_kept(self):
        md = MetadataService(2, RANGE, replication=1)
        md.fail_server(0)
        for _ in range(2):
            try:
                md.write_target_servers(7, 0, 8)
            except DataLossError as err:
                assert (err.fid, err.offset, err.length) == (7, 0, 8)
            else:
                raise AssertionError("a lost range must refuse every write")
        assert 0 not in md._ackers

    def test_read_repair_voids_kept_ackers(self):
        md = MetadataService(3, RANGE, replication=3, quorum=True)
        md.set_unreachable(0)
        md.insert_many([MetadataRecord(1, 0, 1, 0, 0.0, StorageTier.DRAM,
                                       0)])
        md.set_reachable(0)
        assert md.write_target_servers(1, 0, RANGE) == {1, 2}
        md.read_server_of(0)  # repairs the lagging copy on server 0
        assert md.write_target_servers(1, 0, RANGE) == {0, 1, 2}

    def test_refence_keeps_generation(self):
        # Every write to a range fences its lagging copy again; only the
        # first fence is a routing change, so the table survives the rest.
        md = MetadataService(3, RANGE, replication=3, quorum=True)
        rec = MetadataRecord(1, 0, 1, 0, 0.0, StorageTier.DRAM, 0)
        md.set_unreachable(0)
        before = md.generation
        md.insert_many([rec])
        assert md._stale == {0: {0}}
        assert md.generation == before + 1
        md.set_reachable(0)
        before = md.generation
        for _ in range(3):
            md.insert_many([rec])
        assert md.generation == before
        assert md._ackers[0] == (1, 2)
