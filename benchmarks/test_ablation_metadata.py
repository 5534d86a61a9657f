"""Ablation — distributed vs centralised metadata (§II-B3).

The paper rejects the "naive solution" of one global map on a single
server because that server becomes a bottleneck.  This bench quantifies
the claim with the reproduction's cost model: the same collective read's
metadata phase is priced against 1 server vs the full distributed KV.
"""

from repro.cluster.spec import MachineSpec
from repro.core.config import UniviStorConfig
from repro.experiments.common import build_simulation
from repro.units import MiB
from repro.workloads import MicroBench


def read_metadata_cost(procs: int, n_metadata_servers: int) -> float:
    """Serialised look-up time at the busiest server for one collective
    read of 256 MiB/proc, with the KV spread over ``n`` servers."""
    from repro.core.metadata import MetadataService

    sim, fstype = build_simulation(procs, "UniviStor/DRAM")
    comm = sim.comm("iobench", size=procs)
    bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                       bytes_per_proc=64 * MiB)

    def app():
        yield from bench.write_phase()

    sim.run_to_completion(app())
    system = sim.univistor
    # Re-partition the same records over n servers and count the busiest
    # server's look-up queue for the read's requests.
    svc = MetadataService(n_metadata_servers,
                          system.config.metadata_range_size)
    for record in system.metadata.records_of(
            system.session("/pfs/m.h5").fid):
        svc.insert_many([record])
    lookups = {}
    for req in bench.layout.read_requests("data"):
        for server in svc.servers_for_range(req.offset, req.length):
            lookups[server] = lookups.get(server, 0) + 1
    busiest = max(lookups.values())
    return sim.machine.network.rpc_cost(busiest, serialized=True)


class TestMetadataAblation:
    def test_distributed_kv_beats_centralised(self, benchmark):
        def run():
            out = {}
            for procs in (64, 256, 1024):
                centralised = read_metadata_cost(procs, 1)
                distributed = read_metadata_cost(
                    procs, procs // 32 * 2)  # 2 servers/node
                out[procs] = (centralised, distributed)
            return out

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        print("\nprocs  centralised(s)  distributed(s)  speedup")
        for procs, (c, d) in results.items():
            print(f"{procs:5d}  {c:14.4f}  {d:14.4f}  {c/d:6.1f}x")
            assert d < c, f"distributed KV must win at {procs} procs"
        # The centralised bottleneck worsens linearly with scale while the
        # distributed cost stays near-flat.
        c64, d64 = results[64]
        c1k, d1k = results[1024]
        assert c1k / c64 > 8, "centralised cost should grow ~linearly"
        assert d1k / d64 < 4, "distributed cost should stay near-flat"

    def test_range_partitioning_balances_servers(self, benchmark):
        def run():
            sim, fstype = build_simulation(256, "UniviStor/DRAM")
            comm = sim.comm("iobench", size=256)
            bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                               bytes_per_proc=64 * MiB)

            def app():
                yield from bench.write_phase()

            sim.run_to_completion(app())
            return sim.univistor.metadata.server_record_counts()

        counts = benchmark.pedantic(run, rounds=1, iterations=1)
        loaded = [c for c in counts if c > 0]
        print(f"\nrecords/server: min={min(loaded)} max={max(loaded)} "
              f"servers-with-records={len(loaded)}/{len(counts)}")
        assert len(loaded) > len(counts) * 0.5, \
            "most servers should hold metadata"
        assert max(loaded) <= 4 * (sum(loaded) / len(loaded)), \
            "no server should be a hotspot"
