"""Unit + property tests for virtual addressing (Eq. 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import StorageTier
from repro.core.va import VirtualAddressSpace

TIERS3 = [StorageTier.DRAM, StorageTier.SHARED_BB, StorageTier.PFS]


class TestVirtualAddressSpace:
    def test_paper_example(self):
        """§II-B2's worked example: node-local log capacity 2, shared-BB
        log capacity 3; D4 at physical address 1 in the BB log has VA 3."""
        vas = VirtualAddressSpace(
            [StorageTier.DRAM, StorageTier.SHARED_BB], [2, 3])
        assert vas.va(1, 1) == 3
        assert vas.resolve(3) == (1, 1)

    def test_layer_zero_is_identity(self):
        vas = VirtualAddressSpace(TIERS3, [100, 200, math.inf])
        assert vas.va(0, 42) == 42

    def test_layer_bases_are_prefix_sums(self):
        vas = VirtualAddressSpace(TIERS3, [100, 200, math.inf])
        assert vas.layer_base(0) == 0
        assert vas.layer_base(1) == 100
        assert vas.layer_base(2) == 300

    def test_va_rejects_address_beyond_log(self):
        vas = VirtualAddressSpace(TIERS3, [100, 200, math.inf])
        with pytest.raises(ValueError):
            vas.va(0, 100)
        with pytest.raises(ValueError):
            vas.va(1, 200)

    def test_va_rejects_negative(self):
        vas = VirtualAddressSpace(TIERS3, [100, 200, math.inf])
        with pytest.raises(ValueError):
            vas.va(0, -1)
        with pytest.raises(ValueError):
            vas.resolve(-1)

    def test_resolve_boundaries(self):
        vas = VirtualAddressSpace(TIERS3, [100, 200, math.inf])
        assert vas.resolve(0) == (0, 0)
        assert vas.resolve(99) == (0, 99)
        assert vas.resolve(100) == (1, 0)
        assert vas.resolve(299) == (1, 199)
        assert vas.resolve(300) == (2, 0)

    def test_unbounded_last_layer(self):
        vas = VirtualAddressSpace(TIERS3, [10, 10, math.inf])
        assert vas.va(2, 1e15) == 20 + 1e15
        assert vas.resolve(20 + 1e15) == (2, 1e15)

    def test_fractional_base_resolves_to_whole_bytes(self):
        """A VA summed from a fractional layer base (a c/p capacity) and
        a byte offset resolves to the whole byte, not a rounding error
        below it — also far into a large log, where the float spacing
        of the VA exceeds 1e-6."""
        for dram, addr in ((131072 / 3, 49152),
                           (1760479319 / 3, 549655117900)):
            vas = VirtualAddressSpace(TIERS3, [dram, 2.0 ** 41, math.inf])
            va = vas.va(1, addr) + 8192
            assert va - vas.layer_base(1) != addr + 8192
            assert vas.resolve(va) == (1, addr + 8192)
            # An address the base cannot explain stays fractional.
            assert vas.resolve(vas.layer_base(1) + 0.5) == (1, 0.5)

    def test_unbounded_middle_layer_rejected(self):
        with pytest.raises(ValueError):
            VirtualAddressSpace(TIERS3, [10, math.inf, 10])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            VirtualAddressSpace(TIERS3, [10, 10])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VirtualAddressSpace([], [])

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            VirtualAddressSpace([StorageTier.DRAM], [0])

    def test_tier_of_layer(self):
        vas = VirtualAddressSpace(TIERS3, [1, 1, math.inf])
        assert vas.tier_of_layer(0) is StorageTier.DRAM
        assert vas.tier_of_layer(2) is StorageTier.PFS
        with pytest.raises(ValueError):
            vas.tier_of_layer(3)


class TestVAProperties:
    @given(caps=st.lists(st.integers(min_value=1, max_value=10 ** 9),
                         min_size=1, max_size=4),
           layer=st.integers(min_value=0, max_value=3),
           frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, caps, layer, frac):
        """resolve() is the exact inverse of va() (Eq. 1 bijectivity)."""
        tiers = [StorageTier.DRAM, StorageTier.LOCAL_SSD,
                 StorageTier.SHARED_BB, StorageTier.PFS][:len(caps)]
        vas = VirtualAddressSpace(tiers, caps)
        layer = layer % len(caps)
        addr = int(frac * caps[layer])
        va = vas.va(layer, addr)
        assert vas.resolve(va) == (layer, addr)

    @given(caps=st.lists(st.integers(min_value=1, max_value=1000),
                         min_size=2, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_vas_are_disjoint_across_layers(self, caps):
        """Distinct (layer, addr) pairs never collide in VA space."""
        tiers = [StorageTier.DRAM, StorageTier.LOCAL_SSD,
                 StorageTier.SHARED_BB, StorageTier.PFS][:len(caps)]
        vas = VirtualAddressSpace(tiers, caps)
        seen = {}
        for layer, cap in enumerate(caps):
            for addr in {0, cap - 1}:
                va = vas.va(layer, addr)
                assert seen.setdefault(va, (layer, addr)) == (layer, addr)
