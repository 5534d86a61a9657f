"""Determinism regression tests for the hot-path optimizations (ISSUE 2).

The kernel, fair-share rescheduling, telemetry and metadata layers were
rewritten for speed with one hard constraint: **bit-identical behaviour**.
Same inputs must give the same telemetry record sequence — order included
— down to the float timestamps, because same-time FIFO event order is a
kernel invariant and every figure in the paper depends on it.

Two layers of protection:

* *golden digests* — SHA-256 over the full record sequence of three
  scenarios (the fig5 micro path, a ``--fault-spec`` faulted run, and a
  cap-heavy Lustre-direct run), captured from the **pre-optimization**
  code at commit 06ecc15.  If an "optimization" perturbs float
  arithmetic or event ordering anywhere in the stack, the digest moves
  and this fails.  A fourth scenario, a scaled-down VPIC + BD-CATS
  overlap that spills DRAM -> BB and flushes every step, additionally
  pins the flushed PFS extents and their version stamps (captured
  before the set-at-a-time collective data path).
* *run-to-run repeatability* — each scenario run twice from scratch must
  produce the identical sequence object-by-object.

If a future PR *intentionally* changes modelled timing (new contention
model, different constants), regenerate the goldens with
``python tests/integration/test_determinism.py`` and say so in the PR.
"""

import hashlib

from repro.core.config import UniviStorConfig
from repro.experiments.common import build_simulation
from repro.sim.faults import FaultSpec
from repro.units import MiB
from repro.workloads import MicroBench
from repro.workloads.bdcats import BdCatsIO
from repro.workloads.vpic import VpicIO

#: The faulted scenario's ``--fault-spec`` string (CLI mini-language):
#: an explicit server crash survivable under replication=2, a transient
#: PFS brownout, and seeded random device degradations.
FAULT_SPEC = ("server-crash@0.3:server=1;"
              "device-degrade@0.1:tier=pfs,factor=0.5,duration=1.0;"
              "random:device_degrade_rate=0.05,horizon=1.5")
FAULT_SEED = 11

# (repr(sim.now), record count, sha256 of the record tuple sequence),
# captured at 06ecc15 (pre-optimization).
GOLDEN_MICRO = (
    "1.4404037423742115", 7,
    "050732f6dc840a523a3d47e1c239ec941d3bfa0ec30bcb1d11674b77065d9d6e")
GOLDEN_FAULTED = (
    "1.8037943566036996", 42,
    "f8284e69ba679d3c1049e80318490eea5b37751fcf34b2241d3ed5384440a846")
GOLDEN_LUSTRE = (
    "4.865715489523809", 6,
    "2d49122c1985a940238551a033b3e9029c1d02c90ab7e448dd5e3359687dc3e5")
GOLDEN_WORKFLOW = (
    "68.15587776257378", 88,
    "6acbd7bd16e0db37e90f1a34fbd3cb9cb0ce88294dc467798cd34b909dd57b18")
# The workflow scenario's functional end state, captured before the
# set-at-a-time data path: (sha256 of every flushed PFS file's
# normalised extents, sha256 of every step session's ``pfs_versions``
# spans).  The first value was re-pinned when DHP logs became created at
# first append: it equals the earlier digest with the 96 empty per-rank
# ``pfs.log`` files, which no rank ever wrote, left out.
GOLDEN_WORKFLOW_STATE = (
    "b887d9f6ba4110bce52b08af996cc647bd5b22daf5f387696802b956dbe2af5e",
    "c27b8fdf21aaa2314930cdb2bd938d7dd89101b93a5155decbb07b9425e79ac0")


def _record_tuples(sim):
    return [(r.app, r.op, r.path, r.t_start, r.t_end, r.nbytes, r.driver)
            for r in sim.telemetry.records]


def _digest(tuples):
    h = hashlib.sha256()
    for t in tuples:
        h.update(repr(t).encode())
    return h.hexdigest()


def run_micro():
    """The fig5 micro path: 64 ranks, UniviStor/DRAM, write + read."""
    sim, fstype = build_simulation(64, "UniviStor/DRAM")
    comm = sim.comm("iobench", size=64)
    bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                       bytes_per_proc=64 * MiB)

    def app():
        yield from bench.write_phase()
        yield from bench.read_phase()

    sim.run_to_completion(app())
    return sim


def run_faulted():
    """Micro under a fault campaign: crash a metadata replica mid-write,
    brown out the PFS, sprinkle seeded random degradations."""
    cfg = UniviStorConfig.dram_bb(metadata_replication=2, io_retry_limit=2)
    sim, fstype = build_simulation(64, "UniviStor/(DRAM+BB)", config=cfg)
    sim.install_faults(FaultSpec.parse(FAULT_SPEC), seed=FAULT_SEED)
    comm = sim.comm("iobench", size=64)
    bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                       bytes_per_proc=64 * MiB)

    def app():
        yield from bench.write_phase(sync=True)
        yield from bench.read_phase()

    sim.run_to_completion(app())
    return sim


def run_lustre():
    """Plain Lustre: exercises the capped water-filling path heavily
    (every stripe transfer carries a per-stream OST cap)."""
    sim, fstype = build_simulation(64, "Lustre")
    comm = sim.comm("iobench", size=64)
    bench = MicroBench(sim, comm, "/pfs/m.h5", fstype,
                       bytes_per_proc=64 * MiB)

    def app():
        yield from bench.write_phase()
        yield from bench.read_phase()

    sim.run_to_completion(app())
    return sim


#: Workflow scenario size: 160 MiB per rank and property fills each
#: writer's 3 GiB DRAM log part-way through the last step.
WORKFLOW_PROCS = 64
WORKFLOW_STEPS = 3
WORKFLOW_PARTICLES = 40 * 2 ** 20


def run_workflow():
    """Scaled-down Fig. 9 overlap: 32 VPIC-IO writers beside 32
    BD-CATS-IO readers on UniviStor/(DRAM+BB) under workflow locks.
    The last step spills DRAM -> shared BB mid-way, every step file is
    flushed, and each rank's 160 MiB block straddles the 64 MiB
    metadata ranges — the flush materialisation path under spill."""
    cfg = UniviStorConfig.dram_bb(workflow_enabled=True)
    sim, fstype = build_simulation(WORKFLOW_PROCS, "UniviStor/(DRAM+BB)",
                                   config=cfg)
    writers = sim.comm("vpic", size=WORKFLOW_PROCS // 2, procs_per_node=16)
    readers = sim.comm("bdcats", size=WORKFLOW_PROCS // 2,
                       procs_per_node=16)
    vpic = VpicIO(sim, writers, fstype, steps=WORKFLOW_STEPS,
                  compute_seconds=0.0,
                  particles_per_proc=WORKFLOW_PARTICLES)
    bdcats = BdCatsIO(sim, readers, vpic, fstype)
    writer = sim.spawn(vpic.run(sync_last=True), name="vpic")
    reader = sim.spawn(bdcats.run(verify_sample=True), name="bdcats")
    sim.run()
    assert writer.ok and reader.ok
    return sim


def _workflow_state(sim):
    """``(pfs digest, versions digest)`` of a finished workflow run."""
    pfs = hashlib.sha256()
    for f in sorted(sim.machine.pfs_files, key=lambda f: f.path):
        pfs.update(f.path.encode())
        for e in f.data:
            pfs.update(repr((e.offset, e.length, e.payload.describe(),
                             e.payload_offset)).encode())
    versions = hashlib.sha256()
    for step in range(WORKFLOW_STEPS):
        path = f"/pfs/vpic_step{step}.h5"
        session = sim.univistor.session(path, create=False)
        versions.update(path.encode())
        versions.update(repr(session.pfs_versions.spans(
            0, int(session.bytes_written))).encode())
    return pfs.hexdigest(), versions.hexdigest()


SCENARIOS = {
    "micro": (run_micro, GOLDEN_MICRO),
    "faulted": (run_faulted, GOLDEN_FAULTED),
    "lustre": (run_lustre, GOLDEN_LUSTRE),
    "workflow": (run_workflow, GOLDEN_WORKFLOW),
}


class TestGoldenDigests:
    """The optimized stack reproduces the pre-optimization sequences."""

    def _check(self, name):
        run, (golden_now, golden_count, golden_digest) = SCENARIOS[name]
        sim = run()
        tuples = _record_tuples(sim)
        assert repr(sim.now) == golden_now
        assert len(tuples) == golden_count
        assert _digest(tuples) == golden_digest

    def test_fig5_micro_path(self):
        self._check("micro")

    def test_faulted_run(self):
        self._check("faulted")

    def test_lustre_capped_path(self):
        self._check("lustre")

    def test_workflow_spill_flush(self):
        self._check("workflow")

    def test_workflow_flushed_state(self):
        """Flush materialisation under spill: the PFS copies and their
        version stamps, not only the timing, are pinned."""
        assert _workflow_state(run_workflow()) == GOLDEN_WORKFLOW_STATE


class TestRunToRunDeterminism:
    """Two fresh runs produce identical record sequences, order included."""

    def _check(self, name):
        run, _ = SCENARIOS[name]
        first = _record_tuples(run())
        second = _record_tuples(run())
        assert first == second

    def test_fig5_micro_path(self):
        self._check("micro")

    def test_faulted_run(self):
        self._check("faulted")


if __name__ == "__main__":  # golden regeneration helper
    for name, (run, _) in SCENARIOS.items():
        sim = run()
        tuples = _record_tuples(sim)
        print(f"GOLDEN_{name.upper()} = (\n    {repr(sim.now)!r}, "
              f"{len(tuples)},\n    {_digest(tuples)!r})")
        if name == "workflow":
            pfs_digest, versions_digest = _workflow_state(sim)
            print(f"GOLDEN_WORKFLOW_STATE = (\n    {pfs_digest!r},\n"
                  f"    {versions_digest!r})")
