"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import AllOf, AnyOf, Engine, Interrupt, SimulationError


@pytest.fixture
def engine():
    return Engine()


class TestTime:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_timeout_advances_time(self, engine):
        def proc():
            yield engine.timeout(5.0)
            return engine.now

        assert engine.run_process(proc()) == 5.0

    def test_sequential_timeouts_accumulate(self, engine):
        def proc():
            yield engine.timeout(1.5)
            yield engine.timeout(2.5)
            return engine.now

        assert engine.run_process(proc()) == 4.0

    def test_zero_delay_timeout(self, engine):
        def proc():
            yield engine.timeout(0.0)
            return engine.now

        assert engine.run_process(proc()) == 0.0

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.timeout(-1.0)

    def test_run_until_caps_time(self, engine):
        def proc():
            yield engine.timeout(100.0)

        engine.process(proc())
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_run_until_past_raises(self, engine):
        def proc():
            yield engine.timeout(5.0)

        engine.run_process(proc())
        with pytest.raises(ValueError):
            engine.run(until=1.0)

    def test_run_with_no_events_sets_until(self, engine):
        engine.run(until=42.0)
        assert engine.now == 42.0

    def test_peek_empty_is_inf(self, engine):
        assert engine.peek() == float("inf")


class TestEvents:
    def test_succeed_delivers_value(self, engine):
        ev = engine.event()

        def proc():
            value = yield ev
            return value

        p = engine.process(proc())
        ev.succeed("payload")
        engine.run()
        assert p.value == "payload"

    def test_double_trigger_raises(self, engine):
        ev = engine.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_raises_in_waiter(self, engine):
        ev = engine.event()

        def proc():
            with pytest.raises(KeyError):
                yield ev
            return "recovered"

        p = engine.process(proc())
        ev.fail(KeyError("boom"))
        engine.run()
        assert p.value == "recovered"

    def test_fail_requires_exception(self, engine):
        ev = engine.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, engine):
        ev = engine.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_yield_already_processed_event_continues(self, engine):
        ev = engine.event()
        ev.succeed(7)
        engine.run()

        def proc():
            v = yield ev
            return v

        assert engine.run_process(proc()) == 7

    def test_fifo_ordering_same_time(self, engine):
        order = []

        def proc(tag):
            yield engine.timeout(1.0)
            order.append(tag)

        for i in range(5):
            engine.process(proc(i))
        engine.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcesses:
    def test_return_value(self, engine):
        def proc():
            yield engine.timeout(1)
            return 99

        assert engine.run_process(proc()) == 99

    def test_join_process(self, engine):
        def child():
            yield engine.timeout(3.0)
            return "done"

        def parent():
            result = yield engine.process(child())
            return (result, engine.now)

        assert engine.run_process(parent()) == ("done", 3.0)

    def test_join_failed_process_raises(self, engine):
        def child():
            yield engine.timeout(1.0)
            raise ValueError("child crashed")

        def parent():
            try:
                yield engine.process(child())
            except ValueError as err:
                return str(err)

        assert engine.run_process(parent()) == "child crashed"

    def test_unobserved_crash_surfaces_from_run(self, engine):
        def child():
            yield engine.timeout(1.0)
            raise RuntimeError("nobody watching")

        engine.process(child())
        with pytest.raises(RuntimeError, match="nobody watching"):
            engine.run()

    def test_yield_non_event_raises(self, engine):
        def proc():
            yield 42

        with pytest.raises(SimulationError, match="non-event"):
            engine.run_process(proc())

    def test_interrupt_delivers_cause(self, engine):
        def victim():
            try:
                yield engine.timeout(100.0)
            except Interrupt as intr:
                return ("interrupted", intr.cause, engine.now)

        def attacker(v):
            yield engine.timeout(2.0)
            v.interrupt("preempt")

        v = engine.process(victim())
        engine.process(attacker(v))
        engine.run()
        assert v.value == ("interrupted", "preempt", 2.0)

    def test_interrupt_dead_process_raises(self, engine):
        def victim():
            yield engine.timeout(1.0)

        v = engine.process(victim())
        engine.run()
        with pytest.raises(SimulationError):
            v.interrupt()

    def test_is_alive_transitions(self, engine):
        def proc():
            yield engine.timeout(1.0)

        p = engine.process(proc())
        assert p.is_alive
        engine.run()
        assert not p.is_alive

    def test_deadlock_detected(self, engine):
        def proc():
            yield engine.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            engine.run_process(proc())

    def test_next_id_monotonic_unique(self, engine):
        ids = [engine.next_id() for _ in range(100)]
        assert len(set(ids)) == 100
        assert ids == sorted(ids)


class TestConditions:
    def test_all_of_waits_for_all(self, engine):
        def child(d):
            yield engine.timeout(d)
            return d

        def parent():
            procs = [engine.process(child(d)) for d in (3.0, 1.0, 2.0)]
            values = yield AllOf(engine, procs)
            return (values, engine.now)

        values, t = engine.run_process(parent())
        assert values == [3.0, 1.0, 2.0]
        assert t == 3.0

    def test_all_of_empty_fires_immediately(self, engine):
        def parent():
            values = yield AllOf(engine, [])
            return values

        assert engine.run_process(parent()) == []

    def test_any_of_first_wins(self, engine):
        def child(d):
            yield engine.timeout(d)
            return d

        def parent():
            procs = [engine.process(child(d)) for d in (3.0, 1.0, 2.0)]
            event, value = yield AnyOf(engine, procs)
            return (value, engine.now)

        assert engine.run_process(parent()) == (1.0, 1.0)

    def test_all_of_propagates_failure(self, engine):
        def good():
            yield engine.timeout(5.0)

        def bad():
            yield engine.timeout(1.0)
            raise OSError("disk on fire")

        def parent():
            procs = [engine.process(good()), engine.process(bad())]
            try:
                yield AllOf(engine, procs)
            except OSError as err:
                return str(err)

        assert engine.run_process(parent()) == "disk on fire"

    def test_all_of_with_pretriggered_events(self, engine):
        ev1 = engine.event()
        ev1.succeed("a")
        engine.run()

        def parent():
            ev2 = engine.timeout(1.0, value="b")
            values = yield AllOf(engine, [ev1, ev2])
            return values

        assert engine.run_process(parent()) == ["a", "b"]


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build_and_run():
            engine = Engine()
            trace = []

            def proc(tag, delays):
                for d in delays:
                    yield engine.timeout(d)
                    trace.append((tag, engine.now))

            engine.process(proc("a", [1.0, 2.0, 0.5]))
            engine.process(proc("b", [0.5, 0.5, 3.0]))
            engine.process(proc("c", [2.0, 2.0]))
            engine.run()
            return trace

        assert build_and_run() == build_and_run()


class TestEngineEdgeCases:
    def test_interrupt_while_holding_resource(self):
        from repro.sim import Engine, Interrupt, Resource
        engine = Engine()
        res = Resource(engine, capacity=1)
        released = []

        def holder():
            yield res.request()
            try:
                yield engine.timeout(100.0)
            except Interrupt:
                pass
            finally:
                res.release()
                released.append(engine.now)

        def waiter():
            yield res.request()
            res.release()
            return engine.now

        h = engine.process(holder())
        w = engine.process(waiter())

        def attacker():
            yield engine.timeout(2.0)
            h.interrupt("evict")

        engine.process(attacker())
        engine.run()
        assert released == [2.0]
        assert w.value == 2.0

    def test_any_of_later_completions_ignored(self):
        from repro.sim import AnyOf, Engine
        engine = Engine()

        def child(d):
            yield engine.timeout(d)
            return d

        def parent():
            procs = [engine.process(child(d)) for d in (1.0, 2.0)]
            event, value = yield AnyOf(engine, procs)
            # Let the slower child finish too; AnyOf must not re-fire.
            yield engine.timeout(5.0)
            return value

        assert engine.run_process(parent()) == 1.0

    def test_nested_processes_three_deep(self):
        from repro.sim import Engine
        engine = Engine()

        def leaf():
            yield engine.timeout(1.0)
            return "leaf"

        def middle():
            value = yield engine.process(leaf())
            yield engine.timeout(1.0)
            return value + "+middle"

        def root():
            value = yield engine.process(middle())
            return value + "+root"

        assert engine.run_process(root()) == "leaf+middle+root"
        assert engine.now == 2.0

    def test_many_processes_same_instant(self):
        from repro.sim import Engine
        engine = Engine()
        done = []

        def proc(i):
            yield engine.timeout(1.0)
            done.append(i)

        for i in range(500):
            engine.process(proc(i))
        engine.run()
        assert done == list(range(500))

    def test_event_value_survives_multiple_waiters(self):
        from repro.sim import Engine
        engine = Engine()
        ev = engine.event()
        got = []

        def waiter(tag):
            value = yield ev
            got.append((tag, value))

        for tag in range(3):
            engine.process(waiter(tag))
        ev.succeed("shared")
        engine.run()
        assert got == [(0, "shared"), (1, "shared"), (2, "shared")]

    def test_run_after_drain_is_noop(self):
        from repro.sim import Engine
        engine = Engine()

        def proc():
            yield engine.timeout(1.0)

        engine.process(proc())
        engine.run()
        engine.run()  # queue empty: must not raise
        assert engine.now == 1.0


class TestKernelEdgeCases:
    """Dispatch-order edge cases of the heap kernel (docs/MODEL.md §13):
    the two-stage pending/heap pipeline, the sole-pending fast path and
    direct handoff must all preserve the global (time, seq) FIFO."""

    def test_interrupt_at_same_tick_as_its_timeout(self):
        # The killer's t=5 timeout was scheduled first, so it fires
        # first: the victim must see the Interrupt at t=5 even though
        # its own timeout fires at the same tick (detached, it fires
        # with no waiters).
        engine = Engine()
        log = []

        def victim():
            try:
                yield engine.timeout(5.0)
                log.append("timeout-resumed")
            except Interrupt as err:
                log.append(("interrupted", err.cause, engine.now))

        def killer():
            yield engine.timeout(5.0)
            proc.interrupt("same-tick")

        engine.process(killer())
        proc = engine.process(victim())
        engine.run()
        assert log == [("interrupted", "same-tick", 5.0)]

    def test_same_time_fifo(self):
        engine = Engine()
        log = []

        def worker(i):
            yield engine.timeout(1.0)
            log.append(i)
            yield engine.timeout(1.0)
            log.append(i + 100)

        for i in range(8):
            engine.process(worker(i))
        engine.run()
        assert log == (list(range(8)) + [i + 100 for i in range(8)])

    def test_conditions(self):
        # AllOf/AnyOf over events succeeded by separate processes:
        # values, order and timestamps follow the (time, seq) order.
        engine = Engine()
        results = {}
        events = [engine.event() for _ in range(3)]

        def trigger(ev, delay, value):
            yield engine.timeout(delay)
            ev.succeed(value)

        for i, ev in enumerate(events):
            engine.process(trigger(ev, 1.0 + i, f"v{i}"))

        def wait_all():
            got = yield engine.all_of(events)
            results["all"] = (got, engine.now)

        def wait_any():
            ev, value = yield engine.any_of(events)
            results["any"] = (value, engine.now, ev is events[0])

        engine.process(wait_all())
        engine.process(wait_any())
        engine.run()
        assert results["all"] == (["v0", "v1", "v2"], 3.0)
        assert results["any"] == ("v0", 1.0, True)

    def test_run_until_with_empty_queue_advances_time(self):
        engine = Engine()
        engine.run(until=42.0)
        assert engine.now == 42.0
        assert engine.peek() == float("inf")

    def test_run_until_stops_between_events(self):
        engine = Engine()

        def ticker():
            while True:
                yield engine.timeout(1.0)

        engine.process(ticker())
        engine.run(until=5.5)
        assert engine.now == 5.5
        assert engine.peek() == 6.0
