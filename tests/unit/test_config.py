"""Unit tests for UniviStorConfig."""

import dataclasses
import pickle

import pytest

from repro.core.config import StorageTier, UniviStorConfig


class TestStorageTier:
    def test_node_local_classification(self):
        assert StorageTier.DRAM.is_node_local
        assert StorageTier.LOCAL_SSD.is_node_local
        assert not StorageTier.SHARED_BB.is_node_local
        assert not StorageTier.PFS.is_node_local

    def test_shared_is_complement(self):
        for tier in StorageTier:
            assert tier.is_shared != tier.is_node_local

    def test_identity_hashing_keeps_enum_behaviour(self):
        # Members hash by identity (the hot paths key dicts and sets on
        # tiers); lookups, equality, value lookup and pickling behave as
        # with Enum's name hashing.
        assert StorageTier.__hash__ is object.__hash__
        tiers = list(StorageTier)
        by_tier = {tier: tier.value for tier in tiers}
        keyed = {(7, tier) for tier in tiers}
        for tier in tiers:
            assert hash(tier) == object.__hash__(tier)
            assert by_tier[StorageTier(tier.value)] == tier.value
            assert (7, StorageTier[tier.name]) in keyed
            assert pickle.loads(pickle.dumps(tier)) is tier
            assert tier == StorageTier(tier.value)
            assert tier != tier.value
        assert len(set(tiers)) == len(tiers) == 4
        assert {StorageTier.DRAM, StorageTier.DRAM} == {StorageTier.DRAM}


class TestUniviStorConfig:
    def test_defaults(self):
        config = UniviStorConfig()
        assert config.interference_aware
        assert config.collective_open_close
        assert config.adaptive_striping
        assert config.location_aware_reads
        assert not config.workflow_enabled
        assert config.flush_enabled
        assert config.servers_per_node == 2  # §III-A

    def test_canned_variants(self):
        assert UniviStorConfig.dram_only().cache_tiers == (StorageTier.DRAM,)
        assert UniviStorConfig.bb_only().cache_tiers == (StorageTier.SHARED_BB,)
        assert UniviStorConfig.dram_bb().cache_tiers == (
            StorageTier.DRAM, StorageTier.SHARED_BB)
        assert UniviStorConfig.pfs_only().cache_tiers == ()

    def test_without_disables_flags(self):
        config = UniviStorConfig().without("interference_aware",
                                           "adaptive_striping")
        assert not config.interference_aware
        assert not config.adaptive_striping
        assert config.collective_open_close  # untouched

    def test_hardened_turns_self_healing_on(self):
        assert not UniviStorConfig().self_healing
        assert UniviStorConfig.hardened().self_healing
        assert not UniviStorConfig.hardened().without(
            "self_healing").self_healing

    def test_without_unknown_flag(self):
        with pytest.raises(ValueError):
            UniviStorConfig().without("warp_drive")

    def test_without_accepts_every_bool_field_only(self):
        bools = [f.name for f in dataclasses.fields(UniviStorConfig)
                 if f.type == "bool"]
        assert len(bools) == 13
        config = UniviStorConfig().without(*bools)
        assert not any(getattr(config, name) for name in bools)
        with pytest.raises(ValueError, match="unknown flag 'chunk_size'"):
            UniviStorConfig().without("chunk_size")

    def test_pfs_in_cache_tiers_rejected(self):
        with pytest.raises(ValueError):
            UniviStorConfig(cache_tiers=(StorageTier.PFS,))

    def test_duplicate_tiers_rejected(self):
        with pytest.raises(ValueError):
            UniviStorConfig(cache_tiers=(StorageTier.DRAM,
                                         StorageTier.DRAM))

    def test_invalid_servers_per_node(self):
        with pytest.raises(ValueError):
            UniviStorConfig(servers_per_node=0)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            UniviStorConfig(chunk_size=0)

    def test_fractional_metadata_range_size_rejected(self):
        # A range boundary between two bytes used to pass construction
        # and then crash the first write inside split_record.
        with pytest.raises(ValueError, match="metadata_range_size"):
            UniviStorConfig.dram_only(metadata_range_size=100000.5)
        assert UniviStorConfig(
            metadata_range_size=65536.0).metadata_range_size == 65536.0

    def test_workflow_enabled_kwarg_on_variants(self):
        assert UniviStorConfig.dram_only(workflow_enabled=True).workflow_enabled

    def test_frozen(self):
        with pytest.raises(Exception):
            UniviStorConfig().chunk_size = 1
