"""Unit tests for storage devices, Lustre, burst buffer and the namespace."""


import posixpath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import BurstBufferSpec, LustreSpec
from repro.sim import Engine
from repro.storage import (
    BytesPayload,
    CapacityError,
    FileStore,
    LustreFS,
    SharedBurstBuffer,
    StorageDevice,
    StripingLayout,
)
from repro.units import GB


@pytest.fixture
def engine():
    return Engine()


class TestStorageDevice:
    def test_capacity_ledger(self, engine):
        dev = StorageDevice(engine, "d", capacity=100.0, bandwidth=10.0)
        dev.allocate(60.0)
        assert dev.used == 60.0
        assert dev.available == 40.0
        dev.free(10.0)
        assert dev.available == 50.0

    def test_over_allocation_raises(self, engine):
        dev = StorageDevice(engine, "d", capacity=100.0, bandwidth=10.0)
        dev.allocate(90.0)
        with pytest.raises(CapacityError):
            dev.allocate(20.0)

    def test_over_free_raises(self, engine):
        dev = StorageDevice(engine, "d", capacity=100.0, bandwidth=10.0)
        dev.allocate(10.0)
        with pytest.raises(ValueError):
            dev.free(20.0)

    def test_write_timing(self, engine):
        dev = StorageDevice(engine, "d", capacity=1e9, bandwidth=100.0)

        def proc():
            yield dev.write(1000.0)
            return engine.now

        assert engine.run_process(proc()) == pytest.approx(10.0)

    def test_read_factor_speeds_reads(self, engine):
        dev = StorageDevice(engine, "d", capacity=1e9, bandwidth=1000.0,
                            read_factor=2.0)

        def proc():
            yield dev.read(100.0, per_stream_cap=10.0)
            return engine.now

        # Cap 10 * read_factor 2 = 20 B/s.
        assert engine.run_process(proc()) == pytest.approx(5.0)


class TestStripingLayout:
    def test_round_robin_single(self):
        layout = StripingLayout.round_robin(4, 8, per_writer=1)
        assert layout.ost_sets == ((0,), (1,), (2,), (3,))
        assert layout.imbalance() == 1.0
        assert layout.engaged_osts() == 4

    def test_round_robin_wraps(self):
        layout = StripingLayout.round_robin(6, 4, per_writer=1)
        loads = layout.ost_loads()
        assert loads.sum() == pytest.approx(6.0)
        # 6 writers on 4 OSTs: two OSTs get 2 writers -> imbalance 2/1.5.
        assert layout.imbalance() == pytest.approx(2.0 / 1.5)

    def test_round_robin_multi_ost(self):
        layout = StripingLayout.round_robin(2, 8, per_writer=4)
        assert layout.ost_sets[0] == (0, 1, 2, 3)
        assert layout.ost_sets[1] == (4, 5, 6, 7)
        assert layout.imbalance() == 1.0

    def test_all_osts(self):
        layout = StripingLayout.all_osts(3, 16)
        assert layout.stripe_count_per_writer == 16
        assert layout.imbalance() == 1.0
        assert layout.engaged_osts() == 16

    def test_random_layout_valid(self):
        rng = np.random.default_rng(0)
        layout = StripingLayout.random(10, 8, 2, rng)
        assert layout.writers == 10
        for s in layout.ost_sets:
            assert len(s) == 2
            assert len(set(s)) == 2

    def test_invalid_ost_reference(self):
        with pytest.raises(ValueError):
            StripingLayout(4, ((0, 7),))

    def test_empty_writer_set(self):
        with pytest.raises(ValueError):
            StripingLayout(4, ((),))

    def test_paper_example_512_servers_248_osts(self):
        """The §II-D example: 512 servers round-robin on 248 OSTs leaves
        16 OSTs with one extra server (512 % 248 = 16)."""
        layout = StripingLayout.round_robin(512, 248, per_writer=1)
        loads = layout.ost_loads()
        assert int((loads == 3).sum()) == 16
        assert int((loads == 2).sum()) == 232
        assert layout.imbalance() > 1.4


class TestLustreFS:
    def test_aggregate_bandwidth(self, engine):
        spec = LustreSpec(osts=4, ost_bandwidth=2 * GB)
        fs = LustreFS(engine, spec)
        assert fs.device.pipe.bandwidth == pytest.approx(8 * GB)

    def test_single_writer_capped_by_stripe_count(self, engine):
        spec = LustreSpec(osts=8, ost_bandwidth=1.0, latency=0.0,
                          stripe_sync_cost=0.0)
        fs = LustreFS(engine, spec)
        layout = StripingLayout.round_robin(1, 8, per_writer=2)

        def proc():
            yield fs.write_with_layout(10.0, layout)
            return engine.now

        # One writer on 2 OSTs -> 2 B/s -> 5 s.
        assert engine.run_process(proc()) == pytest.approx(5.0)

    def test_stripe_sync_overhead_slows_wide_stripes(self, engine):
        spec = LustreSpec(osts=64, ost_bandwidth=1.0, latency=0.0)
        fs = LustreFS(engine, spec)
        narrow = StripingLayout.round_robin(1, 64, per_writer=8)
        wide = StripingLayout.all_osts(1, 64)
        assert fs.layout_efficiency(wide) < fs.layout_efficiency(narrow)

    def test_imbalanced_layout_penalised(self, engine):
        spec = LustreSpec(osts=4, ost_bandwidth=1.0)
        fs = LustreFS(engine, spec)
        balanced = StripingLayout.round_robin(4, 4)
        skewed = StripingLayout(4, ((0,), (0,), (0,), (1,)))
        assert fs.layout_efficiency(skewed) < fs.layout_efficiency(balanced)

    def test_shared_file_write_slower_than_fpp(self, engine):
        spec = LustreSpec(osts=8, ost_bandwidth=1.0, latency=0.0,
                          shared_write_plateau_base=0.5,
                          shared_read_plateau_base=1.0)
        fs = LustreFS(engine, spec)
        done = {}

        def shared():
            yield fs.write_shared_file(10.0, writers=64, stripe_count=8)
            done["shared"] = engine.now

        def fpp():
            layout = StripingLayout.round_robin(64, 8)
            yield fs.write_with_layout(10.0, layout)
            done["fpp"] = engine.now

        engine.process(shared())
        engine.run()
        engine2 = Engine()
        fs2 = LustreFS(engine2, spec)

        def fpp2():
            layout = StripingLayout.round_robin(64, 8)
            yield fs2.write_with_layout(10.0, layout)
            done["fpp"] = engine2.now

        engine2.process(fpp2())
        engine2.run()
        assert done["shared"] > done["fpp"] * 1.5

    def test_shared_read_penalty_softer_than_write(self, engine):
        spec = LustreSpec(osts=8, ost_bandwidth=1.0, latency=0.0,
                          shared_write_plateau_base=0.5,
                          shared_read_plateau_base=1.0)
        done = {}

        def run(kind):
            eng = Engine()
            fs = LustreFS(eng, spec)

            def proc():
                if kind == "write":
                    yield fs.write_shared_file(10.0, writers=16,
                                               stripe_count=8)
                else:
                    yield fs.read_shared_file(10.0, readers=16,
                                              stripe_count=8)
                done[kind] = eng.now

            eng.process(proc())
            eng.run()

        run("write")
        run("read")
        assert done["read"] < done["write"]


class TestSharedBurstBuffer:
    def test_fpp_write_full_speed(self, engine):
        spec = BurstBufferSpec(nodes=2, per_node_bandwidth=10.0, latency=0.0)
        bb = SharedBurstBuffer(engine, spec)

        def proc():
            yield bb.write(100.0, streams=2, shared_file=False)
            return engine.now

        assert engine.run_process(proc()) == pytest.approx(10.0)

    def test_shared_file_write_penalised(self, engine):
        spec = BurstBufferSpec(nodes=2, per_node_bandwidth=10.0, latency=0.0)
        bb = SharedBurstBuffer(engine, spec)

        def proc():
            yield bb.write(100.0, streams=64, shared_file=True)
            return engine.now

        t = engine.run_process(proc())
        ideal = 64 * 100.0 / 20.0
        assert t > ideal * 1.2

    def test_read_penalty_softer(self):
        spec = BurstBufferSpec(nodes=2, per_node_bandwidth=10.0, latency=0.0)
        times = {}
        for kind in ("write", "read"):
            eng = Engine()
            bb = SharedBurstBuffer(eng, spec)

            def proc(kind=kind, bb=bb, eng=eng):
                if kind == "write":
                    yield bb.write(100.0, streams=64, shared_file=True)
                else:
                    yield bb.read(100.0, streams=64, shared_file=True)
                times[kind] = eng.now

            eng.process(proc())
            eng.run()
        assert times["read"] < times["write"]

    def test_capacity_ledger_exposed(self, engine):
        spec = BurstBufferSpec(nodes=2, per_node_bandwidth=10.0,
                               capacity=1000.0)
        bb = SharedBurstBuffer(engine, spec)
        bb.device.allocate(800.0)
        with pytest.raises(CapacityError):
            bb.device.allocate(300.0)


class TestFileStore:
    def test_create_open_roundtrip(self):
        store = FileStore()
        f = store.create("/a/b.dat")
        assert store.open("/a/b.dat") is f

    def test_create_exist_ok_false(self):
        store = FileStore()
        store.create("/x")
        with pytest.raises(FileExistsError):
            store.create("/x", exist_ok=False)

    def test_open_missing(self):
        store = FileStore()
        with pytest.raises(FileNotFoundError):
            store.open("/nope")

    def test_relative_path_rejected(self):
        store = FileStore()
        with pytest.raises(ValueError):
            store.create("relative/path")

    def test_unlink(self):
        store = FileStore()
        store.create("/x")
        store.unlink("/x")
        assert not store.exists("/x")
        with pytest.raises(FileNotFoundError):
            store.unlink("/x")

    def test_listdir_prefix(self):
        store = FileStore()
        for p in ("/logs/a", "/logs/b", "/other/c"):
            store.create(p)
        assert store.listdir("/logs") == ["/logs/a", "/logs/b"]

    def test_file_write_read(self):
        store = FileStore()
        f = store.create("/f")
        f.write_at(0, 3, BytesPayload(b"abc"))
        assert f.read_bytes(0, 3) == b"abc"
        assert f.size == 3

    def test_total_bytes(self):
        store = FileStore()
        f = store.create("/f")
        f.write_at(0, 3, BytesPayload(b"abc"))
        g = store.create("/g")
        g.write_at(10, 3, BytesPayload(b"xyz"))
        assert store.total_bytes() == 6

    def test_path_normalisation(self):
        store = FileStore()
        store.create("/a//b/../c")
        assert store.exists("/a/c")

    @given(parts=st.lists(st.sampled_from(
        ["a", "b.log", ".", "..", "", ".x", "x.", "..y", "/"]), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_paths_normalise_like_normpath(self, parts):
        """Already-normal paths skip ``normpath``; every path still
        comes out as ``normpath`` writes it."""
        path = "/" + "/".join(parts)
        assert FileStore._norm(path) == posixpath.normpath(path)
        with pytest.raises(ValueError):
            FileStore._norm(path.lstrip("/"))
