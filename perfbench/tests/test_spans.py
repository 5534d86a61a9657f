"""Tests for the span wrappers and the benchmark's own consistency.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import os

import pytest

import repro.core.client
import repro.core.versioning
from repro.core.errors import DataLossError
from repro.experiments.common import build_simulation, io_rate
from repro.sim.engine import Engine, Interrupt
from repro.units import GiB
from repro.workloads.bdcats import BdCatsIO
from repro.workloads.iobench import MicroBench

from ledger import LAYER_UNITS, tail
from spans import Target, Tracer
from workloads import RANK_BURST_BYTES, fault_mix, rank_burst, vpic_workflow


class Service:
    """Stand-in layer: a plain method, a generator method and an engine."""

    def __init__(self, engine=None):
        self.engine = engine

    def plain(self, x):
        if x < 0:
            raise DataLossError("lost", offset=x)
        return ("results", x)

    def nested(self, x):
        return self.plain(x)

    def collective(self, n):
        got = []
        for _ in range(n):
            try:
                got.append((yield self.engine.timeout(1.0)))
            except Interrupt as err:
                got.append(("interrupted", err.cause))
        if got and got[-1] == "fail":
            raise DataLossError("gone", offset=7)
        return got, "breakdown"


def targets(*names, **kwargs):
    return tuple(Target(__name__, "Service", name, f"svc.{name}", **kwargs)
                 for name in names)


def test_plain_call_passes_values_and_exceptions():
    with Tracer().install(targets("plain", "nested")) as tracer:
        svc = Service()
        assert svc.nested(3) == ("results", 3)
        with pytest.raises(DataLossError) as info:
            svc.plain(-1)
        assert info.value.offset == -1
    assert tracer.calls["svc.plain"] == 2
    assert tracer.calls["svc.nested"] == 1
    # The nested call's time is excluded from its caller's self time.
    assert tracer.self_time["svc.nested"] < tracer.busy["svc.nested"]
    assert Service.plain.__name__ == "plain"  # restored on exit


def test_generator_return_send_throw_and_sim_time():
    engine = Engine()
    with Tracer().install(targets("collective", sim_time=True,
                                  samples=True)) as tracer:
        svc = Service(engine)

        def app():
            got, breakdown = yield from svc.collective(2)
            return got, breakdown

        proc = engine.process(app())
        engine.run()
    assert proc.value == ([None, None], "breakdown")
    assert tracer.calls["svc.collective"] == 1
    assert tracer.sim_time["svc.collective"] == pytest.approx(2.0)
    assert len(tracer.samples["svc.collective"]) == 1


def test_generator_interrupt_reaches_the_wrapped_generator():
    engine = Engine()
    with Tracer().install(targets("collective")):
        svc = Service(engine)

        def app():
            return (yield from svc.collective(1))

        proc = engine.process(app())
        engine.timeout(0.5).callbacks.append(
            lambda _ev: proc.interrupt("stop"))
        engine.run()
    assert proc.value == ([("interrupted", "stop")], "breakdown")


def test_generator_exception_propagates_and_closes_span():
    engine = Engine()
    with Tracer().install(targets("collective")) as tracer:
        svc = Service(engine)
        gen = svc.collective(1)
        next(gen)
        with pytest.raises(DataLossError) as info:
            gen.send("fail")
        assert info.value.offset == 7
        gen2 = svc.collective(1)
        next(gen2)
        gen2.close()
    assert tracer.calls["svc.collective"] == 2


def test_module_function_patched_where_it_is_looked_up():
    original = repro.core.versioning.stamp_with_epochs
    target = Target("repro.core.client", "", "stamp_with_epochs",
                    "versioning.stamp")
    with Tracer().install((target,)):
        assert repro.core.client.stamp_with_epochs is not original
        assert repro.core.client.stamp_with_epochs.__wrapped__ is original
        assert repro.core.versioning.stamp_with_epochs is original
    assert repro.core.client.stamp_with_epochs is original


def test_read_collective_tuple_reaches_the_hook_and_the_caller():
    seen = []
    target = Target(__name__, "Service", "collective", "svc.collective",
                    hook=lambda tracer, args, result: seen.append(result))
    engine = Engine()
    with Tracer().install((target,)):
        svc = Service(engine)
        result = engine.run_process(svc.collective(1))
    assert result == ([None], "breakdown")
    assert seen == [result]


def test_tail_percentile():
    assert tail([]) == (0.0, 0.0, 0.0)
    p50, value, pct = tail([float(i) for i in range(1, 101)])
    assert (p50, pct) == (50.5, 90.0) and value == 90.0
    assert tail([1.0, 2.0, 3.0])[2] == 50.0


@pytest.mark.parametrize("build", [
    lambda seed: rank_burst(seed, ranks=64),
    lambda seed: vpic_workflow(seed, procs=64, steps=2,
                               particles_per_proc=2 ** 20),
    lambda seed: fault_mix(seed, seeds_per_mix=1),
])
def test_tracing_does_not_perturb_the_simulation(build):
    plain = build(5)()
    with Tracer().install() as tracer:
        traced = build(5)(tracer.paused)
    assert not plain.violations and not traced.violations
    assert traced.digest == plain.digest
    assert traced.sim_metrics() == plain.sim_metrics()
    assert tracer.count("engine.run", "engine.run_process") > 0


def test_timing_slices_do_not_perturb_the_simulation():
    def build(slice_sim_s):
        return vpic_workflow(5, procs=64, steps=2, particles_per_proc=2 ** 20,
                             slice_sim_s=slice_sim_s)

    whole, sliced = build(1e9)(), build(0.05)()
    assert len(sliced.segments) > len(whole.segments)
    assert sliced.digest == whole.digest
    assert sliced.sim_metrics() == whole.sim_metrics()


@pytest.mark.parametrize("build", [
    lambda seed: rank_burst(seed, ranks=64),
    lambda seed: vpic_workflow(seed, procs=64, steps=2,
                               particles_per_proc=2 ** 20),
])
def test_simulated_metrics_do_not_depend_on_the_seed(build):
    a, b = build(1)(), build(2)()
    assert a.reads_ok == a.reads_attempted and b.reads_ok == b.reads_attempted
    assert a.digest == b.digest
    assert a.sim_metrics() == b.sim_metrics()


def test_rank_burst_rates_cover_their_own_phase():
    # The repository's Fig. 5/6 way: clear the telemetry between phases.
    sim, fstype = build_simulation(64, "UniviStor/DRAM")
    bench = MicroBench(sim, sim.comm("micro", size=64), "/pfs/rank_burst.h5",
                       fstype, bytes_per_proc=RANK_BURST_BYTES,
                       payload_seed_base=1000 + 5 * 64)
    sim.run_to_completion(bench.write_phase())
    write = io_rate(sim, "micro")
    sim.telemetry.clear()
    sim.run_to_completion(bench.read_phase())
    read = io_rate(sim, "micro", ops=("open", "read", "close"),
                   data_ops=("read",))
    metrics = rank_burst(5, ranks=64)().sim_metrics()
    assert metrics["sim_write_gibps"] * GiB == pytest.approx(write)
    assert metrics["sim_read_gibps"] * GiB == pytest.approx(read)


def test_rank_burst_fails_a_rank_that_gets_no_data(monkeypatch):
    read_phase = MicroBench.read_phase

    def dropping(self, verify=False):
        results = yield from read_phase(self, verify=verify)
        results[3] = []
        return results

    monkeypatch.setattr(MicroBench, "read_phase", dropping)
    out = rank_burst(5, ranks=64)()
    assert out.reads_ok == 63 and out.failed == 2
    assert "rank 3" in out.violations[0]


def test_vpic_workflow_fails_a_reader_that_never_finishes(monkeypatch):
    def stuck(self, steps=None, verify_sample=False):
        yield self.sim.engine.event()

    monkeypatch.setattr(BdCatsIO, "run", stuck)
    out = vpic_workflow(5, procs=64, steps=2, particles_per_proc=2 ** 20)()
    assert out.reads_ok == 0
    assert "bdcats did not finish" in out.violations


def test_benchmark_json_matches_the_code():
    from run import END_TO_END

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == [
        "rank_burst", "vpic_workflow", "fault_mix"]
