"""Tests for the speed probe and its reference clock."""

import signal
from time import perf_counter

import pytest

import calibrate
import workloads
from calibrate import REFERENCE_S, SpeedProbe
from workloads import fault_mix, vpic_workflow


def spin(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_clock_runs_forward_and_probes_every_interval():
    probe = SpeedProbe(interval=0.01).start()
    try:
        readings = []
        for _ in range(20):
            spin(0.005)
            readings.append(probe.now())
    finally:
        probe.stop()
    assert readings == sorted(readings)
    assert len(probe.samples) >= 4
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_clock_scales_host_time_by_the_probed_speed(monkeypatch):
    # A host twice as slow as the reference reads half as many seconds.
    monkeypatch.setattr(calibrate, "kernel",
                        lambda ranks: spin(2 * REFERENCE_S)
                        or calibrate.CHECKSUM)
    probe = SpeedProbe(interval=10.0).start()
    try:
        t0, h0 = probe.now(), perf_counter()
        spin(0.05)
        ratio = (probe.now() - t0) / (perf_counter() - h0)
    finally:
        probe.stop()
    assert ratio == pytest.approx(0.5, rel=0.2)


def test_stop_restores_the_previous_handler():
    previous = signal.getsignal(signal.SIGALRM)
    SpeedProbe().start().stop()
    assert signal.getsignal(signal.SIGALRM) is previous


@pytest.mark.parametrize("build", [
    lambda: vpic_workflow(5, procs=64, steps=2, particles_per_proc=2 ** 20,
                          slice_sim_s=0.05),
    lambda: fault_mix(5, seeds_per_mix=2),
])
def test_probing_does_not_perturb_the_simulation(build, monkeypatch):
    plain = build()()
    probe = SpeedProbe(interval=0.005).start()
    monkeypatch.setattr(workloads, "clock", probe.now)
    try:
        probed = build()()
    finally:
        probe.stop()
    assert len(probe.samples) > 3
    assert probed.digest == plain.digest
    assert probed.sim_metrics() == plain.sim_metrics()
    assert len(probed.segments) == len(plain.segments)
