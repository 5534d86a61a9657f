"""Pinned telemetry digests of the whole-stack benchmark's workloads.

``perfbench/workloads.py`` defines the three workloads ``perfbench/run.py``
times; each run folds every telemetry record of its simulations into one
SHA-256 digest.  A host-side optimisation must leave the simulated
behaviour bit-identical, so the seed-1 digest of every workload is pinned
here.  The module is loaded read-only from its path (``perfbench`` is not
a package); each workload runs once, about 6 s in all.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = (Path(__file__).resolve().parents[2] / "perfbench"
                / "workloads.py")

#: Seed-1 telemetry digest of each workload.
GOLDEN = {
    "rank_burst":
        "9c6112b3be166245b643598cc3edd6d716fb1289fa78b73560068a58b84f0d5f",
    "vpic_workflow":
        "e09957c08f8044d81c1ee9d437f2ef58a3f1b7002d6618ad4cb59f0f5c506e1f",
    "fault_mix":
        "1064423ab58d8459cdd8883b3fb28588a456685fb9a724298313365625b1d1f2",
}


@pytest.fixture(scope="module")
def workloads():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves a class's module through sys.modules.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed1_digest(workloads, name):
    outcome = workloads.WORKLOADS[name](1)()
    assert outcome.violations == []
    assert outcome.digest == GOLDEN[name]
