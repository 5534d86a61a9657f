"""Gating chaos smoke campaign (tier 1, keep under a minute).

Runs a small slice of the seed space through the hardened configuration
and asserts the durability invariant plus run-level determinism.  The
full 200-seed campaign (with the >= 99 % success bar and the
hardened-vs-baseline comparison) lives in ``test_chaos_full.py`` and is
gated behind ``CHAOS_FULL=1``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.chaos import MIXES, _config, run_campaign, run_one

SMOKE_SEEDS = 20


class TestChaosSmoke:
    def setup_method(self):
        self.campaign = run_campaign(SMOKE_SEEDS, hardened=True)

    def test_durability_invariant(self):
        # Every read returned correct bytes or raised a structured
        # DataLossError — never silent wrong data, never an unhandled
        # exception.
        assert self.campaign.violations == []

    def test_every_run_saw_faults(self):
        # The schedule generator always draws at least one corruption
        # event, so no seed degenerates into a fault-free run.
        for run in self.campaign.runs:
            assert run.faults, f"seed {run.seed} drew an empty schedule"

    def test_hardened_reads_mostly_survive(self):
        # The tight bar (>= 99 %) belongs to the 200-seed campaign; the
        # smoke slice just guards against wholesale regressions.
        assert self.campaign.success_rate >= 0.95

    def test_schedules_differ_across_seeds(self):
        schedules = {run.faults for run in self.campaign.runs}
        assert len(schedules) > SMOKE_SEEDS // 2


class TestChaosDeterminism:
    def test_same_seed_same_digest(self):
        a = run_one(7, hardened=True)
        b = run_one(7, hardened=True)
        assert a.digest == b.digest
        assert a.faults == b.faults
        assert a.telemetry_ops == b.telemetry_ops

    def test_hardened_flag_changes_digest(self):
        a = run_one(7, hardened=True)
        b = run_one(7, hardened=False)
        assert a.digest != b.digest

    def test_different_seeds_differ(self):
        a = run_one(7, hardened=True)
        b = run_one(8, hardened=True)
        assert a.digest != b.digest


class TestFastPathCoherence:
    """The metadata fast path must be observation-neutral under chaos:
    turning the location cache off replays the exact same run, digest
    and all — i.e. a stale cache can never have served wrong bytes (or
    even different timing) anywhere in the storm."""

    SEEDS = (3, 7, 11)

    def test_cache_on_off_digests_identical_hardened(self):
        for seed in self.SEEDS:
            on = run_one(seed, hardened=True)
            off = run_one(seed, hardened=True,
                          config=_config(True).without("location_cache"))
            assert on.digest == off.digest, f"seed {seed}"
            assert on.telemetry_ops == off.telemetry_ops

    def test_parallel_campaign_digests_match_serial(self):
        serial = run_campaign(4, hardened=True)
        fanned = run_campaign(4, hardened=True, jobs=2)
        assert [r.digest for r in serial.runs] \
            == [r.digest for r in fanned.runs]
        assert [r.seed for r in fanned.runs] == [0, 1, 2, 3]


class TestChaosBaseline:
    def test_baseline_also_never_violates(self):
        # Without detection/takeover/scrubbing more reads are lost, but
        # every loss must still be a structured DataLossError.
        campaign = run_campaign(SMOKE_SEEDS, hardened=False)
        assert campaign.violations == []

    def test_hardened_no_worse_than_baseline(self):
        hardened = run_campaign(SMOKE_SEEDS, hardened=True)
        baseline = run_campaign(SMOKE_SEEDS, hardened=False)
        assert hardened.reads_ok >= baseline.reads_ok


class TestPartitionSmoke:
    """Gating slice of the partition mix: network cuts, quorum-admitted
    mid-cut overwrites, lease fencing, and heal without resurrection."""

    def setup_method(self):
        self.campaign = run_campaign(SMOKE_SEEDS, hardened=True,
                                     mix="partition")

    def test_durability_invariant(self):
        assert self.campaign.violations == []

    def test_no_stale_reads(self):
        # A healed ex-owner serving a pre-overwrite pattern would show
        # up as silent corruption; none may survive the fencing.
        stale = [v for v in self.campaign.violations
                 if "silent corruption" in v]
        assert stale == []
        assert self.campaign.success_rate >= 0.95

    def test_every_seed_draws_a_partition(self):
        for run in self.campaign.runs:
            assert any(f.startswith("partition") for f in run.faults), \
                f"seed {run.seed} drew no partition"

    def test_overwrites_see_both_quorum_outcomes(self):
        # Across the slice some overwrites commit on a majority and
        # some are rejected whole — both sides of the CAP trade-off.
        assert self.campaign.writes_ok > 0
        assert self.campaign.writes_lost > 0

    def test_parallel_campaign_digests_match_serial(self):
        serial = run_campaign(4, hardened=True, mix="partition")
        fanned = run_campaign(4, hardened=True, mix="partition", jobs=2)
        assert [r.digest for r in serial.runs] \
            == [r.digest for r in fanned.runs]


class TestPartitionDeterminism:
    def test_same_seed_same_digest(self):
        a = run_one(7, hardened=True, mix="partition")
        b = run_one(7, hardened=True, mix="partition")
        assert a.digest == b.digest
        assert a.faults == b.faults
        assert a.telemetry_ops == b.telemetry_ops

    def test_mix_changes_digest(self):
        a = run_one(7, hardened=True, mix="storm")
        b = run_one(7, hardened=True, mix="partition")
        assert a.digest != b.digest


class TestHotspotSmoke:
    """Gating slice of the hotspot mix: skewed overwrite waves hammer
    one metadata range while the mitigation splits it, grows the pool,
    and partitions/server crashes land mid-wave."""

    def setup_method(self):
        self.campaign = run_campaign(SMOKE_SEEDS, hardened=True,
                                     mix="hotspot")

    def test_durability_invariant(self):
        assert self.campaign.violations == []

    def test_no_stale_hot_slots(self):
        # A lookup routed through an outdated layout (pre-split member,
        # retired server, stale sub) would surface as silent corruption
        # on the hot-slot read-back; none may survive.
        stale = [v for v in self.campaign.violations
                 if "silent corruption" in v or "stale" in v]
        assert stale == []
        assert self.campaign.success_rate >= 0.95

    def test_mitigation_fires_across_slice(self):
        ops = {op for run in self.campaign.runs
               for op in run.telemetry_ops}
        for expected in ("hotspot-split", "pool-grow", "hotspot-handoff",
                         "hotspot-merge", "pool-shrink"):
            assert expected in ops, f"{expected} never fired in the slice"

    def test_overwrites_commit_under_mitigation(self):
        assert self.campaign.writes_ok > 0

    def test_parallel_campaign_digests_match_serial(self):
        serial = run_campaign(4, hardened=True, mix="hotspot")
        fanned = run_campaign(4, hardened=True, mix="hotspot", jobs=2)
        assert [r.digest for r in serial.runs] \
            == [r.digest for r in fanned.runs]


class TestHotspotDeterminism:
    def test_same_seed_same_digest(self):
        a = run_one(7, hardened=True, mix="hotspot")
        b = run_one(7, hardened=True, mix="hotspot")
        assert a.digest == b.digest
        assert a.faults == b.faults
        assert a.telemetry_ops == b.telemetry_ops

    def test_mix_changes_digest(self):
        a = run_one(7, hardened=True, mix="storm")
        b = run_one(7, hardened=True, mix="hotspot")
        assert a.digest != b.digest

    def test_disabled_knobs_are_inert(self):
        # The mitigation knobs without the enable flag must not perturb
        # a storm run at all: the golden digests of the pre-existing
        # mixes are bit-identical with the feature merely *present*.
        golden = run_one(7, hardened=True)
        knobs = run_one(7, hardened=True, config=replace(
            _config(True), range_split_threshold=6,
            range_merge_threshold=2, hotspot_interval=0.04,
            pool_max_servers=8))
        assert golden.digest == knobs.digest
        assert golden.telemetry_ops == knobs.telemetry_ops

    def test_cache_on_off_digests_identical_hotspot(self):
        # The coherence bar extends to the mitigation: every split,
        # merge, grow and shrink conservatively drops the location
        # caches, so running cache-less replays the exact same storm —
        # a cache outdated by a layout change can never have answered.
        for seed in (3, 7, 11):
            on = run_one(seed, hardened=True, mix="hotspot")
            off = run_one(seed, hardened=True, mix="hotspot",
                          config=_config(True, "hotspot").without(
                              "location_cache"))
            assert on.digest == off.digest, f"seed {seed}"
            assert on.telemetry_ops == off.telemetry_ops


class TestStorm2Smoke:
    """Gating slice of the storm2 mix: mid-session overwrites on a
    healthy cluster, the file still OPEN (no close-time replication),
    then a double node crash narrower than the detection window — only
    the synchronous write-time quorum copy (``data_quorum=2``) holds v2
    when both writer nodes die."""

    def setup_method(self):
        self.campaign = run_campaign(SMOKE_SEEDS, hardened=True,
                                     mix="storm2")

    def test_durability_invariant(self):
        assert self.campaign.violations == []

    def test_all_reads_correct(self):
        # The acceptance bar for this mix is exact: with data_quorum=2
        # every read returns the overwrite's bytes — no losses, no
        # stale fallbacks.  (The 200-seed bar lives in the full
        # campaign; the smoke slice must already be clean.)
        assert self.campaign.success_rate == 1.0, (
            f"storm2 lost {self.campaign.reads_total - self.campaign.reads_ok}"
            f"/{self.campaign.reads_total} reads at data_quorum=2")

    def test_every_seed_crashes_inside_detection_window(self):
        # The schedule's defining property: the two node crashes land
        # closer together than the 0.2 s dead-declaration delay, so
        # detection/takeover cannot save the run — only the write-time
        # mirror can.
        for run in self.campaign.runs:
            assert run.crash_window is not None, \
                f"seed {run.seed} drew fewer than two crashes"
            assert run.crash_window < 0.2, (
                f"seed {run.seed}: crash gap {run.crash_window:.3f}s is "
                f"wider than the detection delay")

    def test_overwrites_commit(self):
        assert self.campaign.writes_ok > 0

    def test_quorum_one_on_same_storm_loses_honestly(self):
        # Drop the knob back to the legacy async path on the exact same
        # schedules: reads ARE lost (the v2 primaries died unreplicated)
        # but every loss is a structured DataLossError carrying the
        # stale-version provenance of the v1 copies the version-ordered
        # ladder refused to serve — never silent stale bytes.
        campaign = run_campaign(6, hardened=True, mix="storm2",
                                config=replace(_config(True, "storm2"),
                                               data_quorum=1))
        assert campaign.violations == []
        lost = sum(r.reads_lost for r in campaign.runs)
        assert lost > 0, "dq=1 should lose the unreplicated overwrites"
        causes = [c for r in campaign.runs for c in r.failure_causes]
        assert any("stale=" in c for c in causes), \
            "losses must carry stale-version provenance"

    def test_summary_names_per_seed_failure_causes(self):
        campaign = run_campaign(6, hardened=True, mix="storm2",
                                config=replace(_config(True, "storm2"),
                                               data_quorum=1))
        summary = campaign.summary()
        assert summary["mix"] == "storm2"
        assert summary["failures"], "dq=1 storm2 must report failures"
        for entry in summary["failures"]:
            assert entry["crash_window"] is not None
            assert entry["causes"], f"seed {entry['seed']} lacks causes"

    def test_parallel_campaign_digests_match_serial(self):
        serial = run_campaign(4, hardened=True, mix="storm2")
        fanned = run_campaign(4, hardened=True, mix="storm2", jobs=2)
        assert [r.digest for r in serial.runs] \
            == [r.digest for r in fanned.runs]


class TestStorm2Determinism:
    def test_same_seed_same_digest(self):
        a = run_one(7, hardened=True, mix="storm2")
        b = run_one(7, hardened=True, mix="storm2")
        assert a.digest == b.digest
        assert a.faults == b.faults
        assert a.telemetry_ops == b.telemetry_ops

    def test_mix_changes_digest(self):
        a = run_one(7, hardened=True, mix="storm")
        b = run_one(7, hardened=True, mix="storm2")
        assert a.digest != b.digest

    def test_quorum_knob_is_live(self):
        # Same storm2 schedule, knob on vs off: the synchronous BB
        # mirror is a timed flow on the ack path, so the digest must
        # move — proof the knob actually changes the simulated system,
        # not just bookkeeping.
        a = run_one(7, hardened=True, mix="storm2")
        b = run_one(7, hardened=True, mix="storm2",
                    config=replace(_config(True, "storm2"), data_quorum=1))
        assert a.digest != b.digest

    def test_version_maps_inert_on_legacy_mixes(self):
        # The always-on version stamping is pure bookkeeping: a storm
        # run on the pre-quorum deployment (data_quorum=1) with the
        # feature merely present replays the pre-quorum golden digest
        # bit-identically — same bar as the hotspot knobs
        # (test_disabled_knobs_are_inert).
        got = TestGoldenDigests._storm_dq1(7, True)
        assert got == TestGoldenDigests.LEGACY[7]


class TestGoldenDigests:
    """Pinned per-seed digests: the cross-PR reproducibility contract.

    ``storm`` overridden to ``data_quorum=1`` must replay the pre-quorum
    storm trajectory bit-for-bit (these are the storm goldens as pinned
    before the canonical mix flipped to ``data_quorum=2``); plain
    ``storm`` pins the dq=2 deployment.
    """

    LEGACY = {
        3: "bb73d533b0c673d2ebe96de49e4550aea0c8bc0155743bd51771b41dacdf1945",
        7: "de2cd27147151297e1a265760b090d5d8f36eb3c89ddbf57ead5d19ffd869eb2",
        11: "6661a0db52c8d70325e4fe42e27c089d718f3975909d72699ae754d1d775c96f",
    }
    LEGACY_BASELINE_3 = (
        "e3dff9758e0066da4a548db069d2a784458bc6b7fc8229ed37692bd0b4a5c4b2")
    STORM_DQ2 = {
        3: "bc45a6b14cc4023d17a2c632aef631b29d33d8a87da97b3b363c5b51b39ff591",
        7: "f5f8517d79743b0c9f9bbf84c8b59ba4ddb59122bd7e1dee0f229caf587a8eb4",
        11: "d5f5d9b4906f5c60817dea6350b3934a332e667967f5bf0e4df5033ded735d98",
    }

    #: ``(mix, hardened) -> {seed: digest}`` for the other three mixes.
    MIX_GOLDENS = {
        ("partition", True): {
            3: "a2d0e3005af02a0a4aeb128c87f96f3e"
               "897412e68d7c76b6a908cae59588ee3f",
            7: "292c448afcdf6ad6964d5c74a6bbb7c9"
               "df5732238eb8f3eae321e581aeecfbf2",
        },
        ("partition", False): {
            3: "b905b249c8e3249919f85c69d4a3f4e9"
               "9d2033fd91bd4735560b09282c0e1c45",
            7: "71191ae67047500b94805dbef81a80e9"
               "bfa6e0b21d849a74f5c75f403a2d99eb",
        },
        ("hotspot", True): {
            3: "5da2316257cd9995c395b943f212d1fe"
               "36feab90dfadbf39438060eba09d851a",
            7: "86e202e87f87a866ca365f93f24a89c3"
               "76696d75ce0c3d56c705a529dc28c20a",
        },
        ("hotspot", False): {
            3: "388c6e97243ed112a0e5dd6f0d1afcdc"
               "b9b7e162f9ff5e6f09a4b6ef7728e0ae",
            7: "815acd918c8d4a4af5bc2ff610dc9fef"
               "64fe9b04fd01e0c91dd0e79be13f7c82",
        },
        ("storm2", True): {
            3: "80bb5a7dac1295a7a92fcb1e54473abf"
               "01bf8505d2ef211d5d746bd7a990c9b0",
            7: "f126a3192ec15950400c1f241efd2e8a"
               "5a3b6367bdc2e1c732434527ce7d04f3",
        },
        ("storm2", False): {
            3: "f59c3bb76991afa379b2423018d91910"
               "20130d60c337081065fcfbe98aad81df",
            7: "2ec9e9c10936eac18959c460a26a3737"
               "b21d1c5a88a792ebfe2cd3d71ff8d5e7",
        },
    }

    @staticmethod
    def _storm_dq1(seed, hardened):
        config = replace(_config(hardened, "storm"), data_quorum=1)
        return run_one(seed, hardened=hardened, mix="storm",
                       config=config).digest

    def test_storm_dq1_replays_pre_quorum_goldens(self):
        for seed, want in self.LEGACY.items():
            got = self._storm_dq1(seed, True)
            assert got == want, f"seed {seed}: {got}"
        got = self._storm_dq1(3, False)
        assert got == self.LEGACY_BASELINE_3

    def test_canonical_storm_dq2_goldens(self):
        for seed, want in self.STORM_DQ2.items():
            got = run_one(seed, hardened=True, mix="storm").digest
            assert got == want, f"seed {seed}: {got}"

    def test_mix_goldens(self):
        for (mix, hardened), pins in self.MIX_GOLDENS.items():
            for seed, want in pins.items():
                got = run_one(seed, hardened=hardened, mix=mix).digest
                assert got == want, f"{mix} hardened={hardened} " \
                                    f"seed {seed}: {got}"


class TestSelfHealingSwitch:
    """Baseline is exactly the hardened deployment with the one
    self-healing switch off."""

    def test_baseline_is_hardened_minus_self_healing(self):
        for mix in MIXES:
            assert _config(False, mix) == replace(_config(True, mix),
                                                  self_healing=False)
            assert _config(True, mix).self_healing
