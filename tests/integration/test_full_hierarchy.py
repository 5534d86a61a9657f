"""Four-layer hierarchy: DRAM -> node-local SSD -> shared BB -> PFS.

Fig. 1 includes "local DRAM and/or NVRAM-based burst buffer on each
compute node"; Cori's evaluation machine had no node-local SSDs, but the
design supports them.  These tests run the full stack on a Summit-like
machine (node-local NVMe) and verify spill order, virtual addressing and
byte-exact reads across all four layers.
"""

import pytest

from repro import (
    IORequest,
    MachineSpec,
    PatternPayload,
    Simulation,
    UniviStorConfig,
)
from repro.core import StorageTier
from repro.cluster.spec import NodeSpec
from repro.units import GB, GiB, MiB


def tiny_summit(dram_cache=4 * MiB, ssd=8 * MiB, bb=16 * MiB):
    """A 2-node machine with deliberately tiny tiers to force spills."""
    node = NodeSpec(cores=4, numa_sockets=2,
                    dram_capacity=4 * GiB,
                    dram_cache_capacity=dram_cache,
                    dram_bandwidth=10 * GB,
                    local_ssd_capacity=ssd,
                    local_ssd_bandwidth=2 * GB)
    base = MachineSpec.small_test(nodes=2)
    bb_spec = base.burst_buffer.__class__(
        **{**base.burst_buffer.__dict__, "capacity": bb})
    return MachineSpec(nodes=2, node=node, burst_buffer=bb_spec,
                       lustre=base.lustre, network=base.network, seed=11)


def setup(spec=None, chunk=1 * MiB):
    sim = Simulation(spec or tiny_summit())
    sim.install_univistor(UniviStorConfig.full_hierarchy(chunk_size=chunk))
    comm = sim.comm("app", 4, procs_per_node=2)
    return sim, comm


def roundtrip(sim, comm, path, block):
    def app():
        fh = yield from sim.open(comm, path, "w", fstype="univistor")
        yield from fh.write_at_all([
            IORequest.contiguous_block(r, block, PatternPayload(r))
            for r in range(comm.size)])
        yield from fh.close()
        yield from fh.sync()
        fh2 = yield from sim.open(comm, path, "r", fstype="univistor")
        data = yield from fh2.read_at_all([
            IORequest(r, r * block, block) for r in range(comm.size)])
        yield from fh2.close()
        return data

    data = sim.run_to_completion(app())
    for r in range(comm.size):
        blob = b"".join(e.materialize() for e in data[r])
        assert blob == PatternPayload(r).materialize(0, block), \
            f"rank {r} corrupted"
    return data


class TestFourTierSpill:
    def test_summit_preset_has_local_ssd(self):
        spec = MachineSpec.summit_like(nodes=2)
        assert spec.node.local_ssd_capacity is not None
        sim = Simulation(spec)
        assert sim.machine.nodes[0].local_ssd is not None

    def test_spill_order_dram_ssd_bb_pfs(self):
        sim, comm = setup()
        # 4 ranks x 24 MiB = 96 MiB through 8 MiB DRAM + 16 MiB SSD +
        # 16 MiB BB -> everything overflows down to the PFS.
        roundtrip(sim, comm, "/f", int(24 * MiB))
        tiers = sim.univistor.session("/f").cached_bytes_per_tier()
        assert tiers[StorageTier.DRAM] > 0
        assert tiers[StorageTier.LOCAL_SSD] > 0
        assert tiers[StorageTier.SHARED_BB] > 0
        assert tiers[StorageTier.PFS] > 0
        assert sum(tiers.values()) == pytest.approx(4 * 24 * MiB)

    def test_va_spans_four_layers(self):
        sim, comm = setup()
        roundtrip(sim, comm, "/f", int(24 * MiB))
        writer = sim.univistor.session("/f").writers[0]
        assert writer.vas.layers == 4
        assert [writer.vas.tier_of_layer(i) for i in range(4)] == [
            StorageTier.DRAM, StorageTier.LOCAL_SSD,
            StorageTier.SHARED_BB, StorageTier.PFS]
        # Every layer's log actually holds bytes for this writer.
        assert all(b > 0 for b in writer.bytes_per_layer())
        assert [log.tier for log in writer.created_logs] == [
            StorageTier.DRAM, StorageTier.LOCAL_SSD,
            StorageTier.SHARED_BB, StorageTier.PFS]

    def test_flush_covers_all_cache_tiers(self):
        sim, comm = setup()
        block = int(24 * MiB)
        roundtrip(sim, comm, "/f", block)
        pfs = sim.machine.pfs_files.open("/f")
        for r in range(comm.size):
            assert (pfs.read_bytes(r * block, 4096)
                    == PatternPayload(r).materialize(0, 4096))

    def test_ssd_only_configuration(self):
        sim = Simulation(tiny_summit())
        sim.install_univistor(UniviStorConfig(
            cache_tiers=(StorageTier.LOCAL_SSD,), chunk_size=1 * MiB))
        comm = sim.comm("app", 4, procs_per_node=2)
        roundtrip(sim, comm, "/f", int(1 * MiB))
        tiers = sim.univistor.session("/f").cached_bytes_per_tier()
        assert tiers[StorageTier.LOCAL_SSD] == pytest.approx(4 * MiB)
        assert tiers.get(StorageTier.DRAM, 0) == 0

    def test_remote_read_from_ssd_tier(self):
        sim = Simulation(tiny_summit())
        sim.install_univistor(UniviStorConfig(
            cache_tiers=(StorageTier.LOCAL_SSD,), chunk_size=1 * MiB,
            flush_enabled=False))
        comm = sim.comm("app", 4, procs_per_node=2)
        block = int(1 * MiB)

        def app():
            fh = yield from sim.open(comm, "/f", "w", fstype="univistor")
            yield from fh.write_at_all([
                IORequest.contiguous_block(r, block, PatternPayload(r))
                for r in range(4)])
            yield from fh.close()
            fh2 = yield from sim.open(comm, "/f", "r", fstype="univistor")
            # Rank 0 (node 0) reads rank 3's block (node 1's SSD).
            data = yield from fh2.read_at_all(
                [IORequest(0, 3 * block, block)])
            yield from fh2.close()
            return data

        data = sim.run_to_completion(app())
        blob = b"".join(e.materialize() for e in data[0])
        assert blob == PatternPayload(3).materialize(0, block)

    def test_dram_faster_than_ssd_tier(self):
        """Timed sanity: the same write lands faster on DRAM than SSD."""
        times = {}
        for tiers in ((StorageTier.DRAM,), (StorageTier.LOCAL_SSD,)):
            spec = MachineSpec.summit_like(nodes=2)
            sim = Simulation(spec)
            sim.install_univistor(UniviStorConfig(
                cache_tiers=tiers, flush_enabled=False))
            comm = sim.comm("app", 64)

            def app(sim=sim, comm=comm):
                fh = yield from sim.open(comm, "/f", "w",
                                         fstype="univistor")
                yield from fh.write_at_all([
                    IORequest.contiguous_block(r, int(32 * MiB),
                                               PatternPayload(r))
                    for r in range(64)])
                yield from fh.close()

            sim.run_to_completion(app())
            times[tiers[0]] = sim.telemetry.total_time(op="write")
        assert times[StorageTier.DRAM] < times[StorageTier.LOCAL_SSD]

    def test_full_hierarchy_on_machine_without_ssd_rejected(self):
        sim = Simulation(MachineSpec.small_test(nodes=1))
        with pytest.raises(ValueError, match="SSD"):
            sim.install_univistor(UniviStorConfig.full_hierarchy())
