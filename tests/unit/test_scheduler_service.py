"""Unit tests for the interference-aware scheduler service (§II-C)."""

import pytest

from repro.cluster.cpu import PlacementPolicy, cpu_availability
from repro.cluster.spec import MachineSpec
from repro.cluster.topology import Machine
from repro.core.config import UniviStorConfig
from repro.core.scheduler import SchedulerService
from repro.sim import Engine


def make(interference_aware=True, nodes=2):
    machine = Machine(Engine(), MachineSpec.cori_haswell(nodes=nodes))
    machine.register_program("uv-server", nodes * 2, kind="server",
                             procs_per_node=2)
    machine.register_program("app", nodes * 32, kind="client",
                             procs_per_node=32)
    config = UniviStorConfig()
    if not interference_aware:
        config = config.without("interference_aware")
    return machine, SchedulerService(machine, config, "uv-server")


class TestPolicySelection:
    def test_ia_config_uses_ia_policy(self):
        _, sched = make(True)
        assert sched.policy is PlacementPolicy.INTERFERENCE_AWARE

    def test_cfs_config_uses_cfs_policy(self):
        _, sched = make(False)
        assert sched.policy is PlacementPolicy.CFS


class TestEfficiencies:
    def test_ia_write_efficiency_high(self):
        machine, sched = make(True)
        eff = sched.client_efficiency(machine.nodes[0], "app", "write")
        assert eff > 0.9

    def test_cfs_write_efficiency_lower(self):
        machine, sched = make(False)
        eff = sched.client_efficiency(machine.nodes[0], "app", "write")
        assert eff < 0.8

    def test_read_less_sensitive_than_write(self):
        machine, sched = make(False)
        w = sched.client_efficiency(machine.nodes[0], "app", "write")
        r = sched.client_efficiency(machine.nodes[0], "app", "read")
        assert r >= w

    def test_unknown_op_rejected(self):
        machine, sched = make(True)
        with pytest.raises(KeyError):
            sched.client_efficiency(machine.nodes[0], "app", "teleport")

    def test_efficiency_cached(self):
        machine, sched = make(False)
        a = sched.client_efficiency(machine.nodes[0], "app", "write")
        b = sched.client_efficiency(machine.nodes[0], "app", "write")
        assert a == b

    def test_mean_flush_efficiency_bounds(self):
        _, sched = make(True)
        assert 0.0 < sched.mean_flush_efficiency() <= 1.0


class TestFlushMigration:
    def test_begin_flush_toggles_machine_state(self):
        machine, sched = make(True)
        sched.begin_flush()
        assert machine.nodes[0].flush_active
        sched.end_flush()
        assert not machine.nodes[0].flush_active

    def test_flush_is_refcounted(self):
        machine, sched = make(True)
        sched.begin_flush()
        sched.begin_flush()
        sched.end_flush()
        assert machine.nodes[0].flush_active, "still one flush outstanding"
        sched.end_flush()
        assert not machine.nodes[0].flush_active

    def test_end_without_begin_raises(self):
        _, sched = make(True)
        with pytest.raises(RuntimeError):
            sched.end_flush()

    def test_cfs_never_migrates(self):
        machine, sched = make(False)
        sched.begin_flush()
        # Under CFS the toggle is a no-op: placements don't react.
        assert not machine.nodes[0].flush_active
        sched.end_flush()

    def test_ia_flush_efficiency_improves_with_migration(self):
        machine, sched_ia = make(True)
        machine2, sched_cfs = make(False)
        sched_ia.begin_flush()
        ia = sched_ia.mean_flush_efficiency()
        sched_ia.end_flush()
        cfs = sched_cfs.mean_flush_efficiency()
        assert ia > cfs, "IA migration must free the flushing servers"


def one_node(procs, interference_aware=True):
    machine, sched = make(interference_aware, nodes=1)
    machine.register_program("app", procs, procs_per_node=procs)
    return machine, sched


class TestStaleFactors:
    @pytest.mark.parametrize("interference_aware", [True, False])
    def test_flush_factor_follows_process_count(self, interference_aware):
        """Re-registering a program with a new process count must not
        serve the flush factor cached for the old count."""
        machine, sched = one_node(8, interference_aware)
        node = machine.nodes[0]
        before = sched.flush_efficiency(node)
        machine.register_program("app", 64, procs_per_node=64)
        fresh = cpu_availability(node.placement(sched.policy), "uv-server",
                                 machine.spec.scheduling)
        assert sched.flush_efficiency(node) == fresh
        if interference_aware:
            assert before == pytest.approx(0.995, abs=1e-3)
            assert fresh == pytest.approx(0.283, abs=1e-3)


def check_parity(machine, sched):
    """Every node's memoised factors equal a fresh per-node computation."""
    idle = frozenset({"uv-server"})
    for node in machine.nodes:
        for name, *_ in node.tenancy:
            for op, sensitivity in (("write", 1.0), ("read", 0.45)):
                fresh = node.efficiency(name, sched.policy,
                                        sensitivity=sensitivity,
                                        idle_programs=idle)
                assert sched.client_efficiency(node, name, op) == fresh
        fresh = cpu_availability(node.placement(sched.policy), "uv-server",
                                 machine.spec.scheduling)
        assert sched.flush_efficiency(node) == fresh


class TestNodeClassParity:
    """Under IA the factors are memoised per node class, not per node."""

    def _mixed_machine(self, interference_aware=True):
        machine, sched = make(interference_aware, nodes=4)
        # Nodes 2-3 also host an in-transit analysis program, so the
        # machine has two node classes.
        machine.register_program("ana", 24, procs_per_node=12,
                                 node_offset=2)
        return machine, sched

    def test_parity_across_tenancy_and_flush_changes(self):
        machine, sched = self._mixed_machine()
        check_parity(machine, sched)
        sched.begin_flush()
        check_parity(machine, sched)
        machine.register_program("viz", 8, procs_per_node=4)
        check_parity(machine, sched)
        sched.end_flush()
        check_parity(machine, sched)
        machine.unregister_program("ana")
        check_parity(machine, sched)
        machine.register_program("app", 4 * 8, procs_per_node=8)
        check_parity(machine, sched)

    def test_one_entry_per_node_class(self):
        machine, sched = self._mixed_machine()
        for node in machine.nodes:
            sched.client_efficiency(node, "app", "write")
            sched.flush_efficiency(node)
        assert len(sched._cache) == 4  # 2 classes x (client, flush)

    def test_registration_order_is_part_of_the_class(self):
        """IA placement fills cores in registration order, so the same
        program set registered in another order is another class."""
        machine, sched = make(True, nodes=2)
        machine.unregister_program("app")
        for node, order in zip(machine.nodes, (("a", "b"), ("b", "a"))):
            for name in order:
                node.register_program(name, 17 if name == "a" else 15)
        assert machine.nodes[0].tenancy != machine.nodes[1].tenancy
        sched.begin_flush()
        check_parity(machine, sched)
        sched.end_flush()

    def test_cfs_nodes_keep_their_own_factors(self):
        """CFS draws each node's placement from its own RNG stream, so two
        nodes with the same programs may differ; each still matches a
        fresh computation on that node."""
        machine, sched = make(False, nodes=8)
        effs = {sched.client_efficiency(node, "app", "write")
                for node in machine.nodes}
        assert len(effs) > 1
        check_parity(machine, sched)
