"""Model-based (hypothesis stateful) testing of the full UniviStor stack.

A RuleBasedStateMachine drives the real system — writes at arbitrary
offsets, overwrites, reads, flushes, file deletion — while maintaining a
trivially-correct reference model (one bytearray per path).  After every
read the bytes coming back through DHP + VA + metadata + read service
must equal the reference exactly; flushes must leave byte-exact PFS
copies.  This is the strongest correctness net in the suite: it explores
interleavings no example-based test would think of.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.units import KiB, MiB

PATHS = ["/m/a", "/m/b", "/m/c"]
RANKS = 4
SPAN = 256 * 1024  # addressable file span the machine explores


class UniviStorMachine(RuleBasedStateMachine):
    """Drive UniviStor and a reference byte-store in lockstep."""

    @initialize()
    def setup(self):
        from repro.cluster.spec import NodeSpec
        base = MachineSpec.small_test(nodes=2)
        # Small DRAM cache (1 MiB/node) and chunks (64 KiB) so writes
        # regularly spill and free-chunk reuse kicks in.
        node = NodeSpec(cores=4, numa_sockets=2,
                        dram_capacity=4 * (1 << 30),
                        dram_cache_capacity=1 * MiB,
                        dram_bandwidth=10e9)
        spec = MachineSpec(nodes=2, node=node,
                           burst_buffer=base.burst_buffer,
                           lustre=base.lustre, network=base.network,
                           seed=5)
        self.sim = Simulation(spec)
        self.sim.install_univistor(
            UniviStorConfig.dram_bb(chunk_size=64 * KiB,
                                    flush_enabled=False))
        self.comm = self.sim.comm("model", RANKS, procs_per_node=2)
        self.reference = {}  # path -> bytearray
        self.seed_counter = 0

    # -- helpers ----------------------------------------------------------
    def _run(self, gen):
        return self.sim.run_to_completion(gen)

    def _ref(self, path):
        buf = self.reference.get(path)
        if buf is None:
            buf = bytearray(SPAN)
            self.reference[path] = buf
        return buf

    # -- rules ------------------------------------------------------------
    @rule(path=st.sampled_from(PATHS),
          rank=st.integers(min_value=0, max_value=RANKS - 1),
          offset=st.integers(min_value=0, max_value=SPAN - 1),
          length=st.integers(min_value=1, max_value=48 * 1024))
    def write(self, path, rank, offset, length):
        length = min(length, SPAN - offset)
        self.seed_counter += 1
        seed = self.seed_counter

        def app():
            fh = yield from self.sim.open(self.comm, path, "w",
                                          fstype="univistor")
            yield from fh.write_at_all([
                IORequest(rank, offset, length, PatternPayload(seed))])
            yield from fh.close()

        self._run(app())
        ref = self._ref(path)
        ref[offset:offset + length] = PatternPayload(seed).materialize(
            0, length)

    @precondition(lambda self: self.reference)
    @rule(rank=st.integers(min_value=0, max_value=RANKS - 1),
          offset=st.integers(min_value=0, max_value=SPAN - 1),
          length=st.integers(min_value=1, max_value=64 * 1024),
          data=st.data())
    def read_and_compare(self, rank, offset, length, data):
        path = data.draw(st.sampled_from(sorted(self.reference)))
        length = min(length, SPAN - offset)
        session = self.sim.univistor.session(path)
        records, _ = self.sim.univistor.metadata.lookup(
            session.fid, offset, length)
        covered = sum(r.length for r in records)
        if covered < length:
            return  # read would touch unwritten bytes (defined to raise)

        def app():
            fh = yield from self.sim.open(self.comm, path, "r",
                                          fstype="univistor")
            out = yield from fh.read_at_all([
                IORequest(rank, offset, length)])
            yield from fh.close()
            return out

        result = self._run(app())
        blob = b"".join(e.materialize() for e in result[rank])
        expected = bytes(self._ref(path)[offset:offset + length])
        assert blob == expected, \
            f"{path}[{offset}:+{length}]: stack diverged from reference"

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def flush_and_check_pfs(self, data):
        path = data.draw(st.sampled_from(sorted(self.reference)))
        session = self.sim.univistor.session(path)

        def app():
            ev = self.sim.univistor.flush_service.start_flush(session)
            yield ev

        self._run(app())
        records = self.sim.univistor.metadata.records_of(session.fid)
        if not records:
            return
        pfs = self.sim.machine.pfs_files.open(path)
        lo = min(r.offset for r in records)
        hi = max(r.end for r in records)
        got = pfs.read_bytes(lo, hi - lo)
        # PFS holes read as zeros; the reference has zeros there too
        # unless the bytes were never written (then both are zero).
        ref = bytes(self._ref(path)[lo:hi])
        # Compare only written ranges exactly.
        for r in sorted(records, key=lambda r: r.offset):
            assert (got[r.offset - lo:r.end - lo]
                    == ref[r.offset - lo:r.end - lo]), \
                f"{path}: PFS copy diverges in [{r.offset}, {r.end})"

    @precondition(lambda self: self.reference)
    @rule(data=st.data())
    def delete_file(self, data):
        path = data.draw(st.sampled_from(sorted(self.reference)))
        self.sim.univistor.delete_file(path)
        del self.reference[path]

    # -- invariants -----------------------------------------------------------
    @invariant()
    def capacity_ledgers_consistent(self):
        if not hasattr(self, "sim"):
            return
        for node in self.sim.machine.nodes:
            assert 0 <= node.dram.used <= node.dram.capacity * (1 + 1e-9)
        bb = self.sim.machine.burst_buffer.device
        assert 0 <= bb.used <= bb.capacity

    @invariant()
    def chunk_accounting_consistent(self):
        if not hasattr(self, "sim"):
            return
        for path in self.reference:
            if not self.sim.univistor.has_session(path):
                continue
            session = self.sim.univistor.session(path)
            for writer in session.writers.values():
                for log in writer.created_logs:
                    assert log.bytes_live >= -1e-6
                    assert log.bytes_live <= log.bytes_written + 1e-6


TestUniviStorModel = UniviStorMachine.TestCase
TestUniviStorModel.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
