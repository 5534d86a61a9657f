"""The stable public surface of the top-level ``repro`` package."""

import warnings

import pytest

import repro
from repro import MachineSpec, Simulation, UniviStorConfig
from repro.baselines.data_elevator import DataElevatorConfig

PUBLIC = [
    "FaultSpec",
    "File",
    "IORequest",
    "MachineSpec",
    "PatternPayload",
    "Simulation",
    "Table",
    "Telemetry",
    "UniviStorConfig",
    "WorkloadSpec",
    "run_experiment",
    "run_trace",
]


class TestPublicSurface:
    def test_all_is_exactly_the_documented_surface(self):
        assert sorted(repro.__all__) == PUBLIC

    def test_star_import_yields_exactly_all(self):
        ns = {}
        exec("from repro import *", ns)
        imported = sorted(k for k in ns if not k.startswith("__"))
        assert imported == sorted(repro.__all__)

    def test_every_public_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_moved_symbol_error_names_new_home(self):
        with pytest.raises(AttributeError, match="from repro.core import "
                                                 "StorageTier"):
            repro.StorageTier
        with pytest.raises(AttributeError, match="from repro.sim import "
                                                 "Engine"):
            repro.Engine
        with pytest.raises(AttributeError, match="from repro.analysis import "
                                                 "fmt_markdown_table"):
            repro.fmt_markdown_table

    def test_unknown_attribute_plain_error(self):
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            repro.bogus


class TestConfigKeywordOnly:
    def test_positional_construction_rejected(self):
        with pytest.raises(TypeError):
            UniviStorConfig(())

    def test_keyword_construction_and_variants_work(self):
        cfg = UniviStorConfig(servers_per_node=4, adaptive_striping=False)
        assert cfg.servers_per_node == 4
        assert not cfg.adaptive_striping
        assert UniviStorConfig.dram_only().cache_tiers


class TestInstallDataElevatorForms:
    def _sim(self):
        return Simulation(MachineSpec.cori_haswell(nodes=2))

    def test_config_object_form_no_warning(self):
        sim = self._sim()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            de = sim.install_data_elevator(
                DataElevatorConfig(servers_per_node=3))
        assert de.servers_per_node == 3
        assert de.config.servers_per_node == 3

    def test_default_form_no_warning(self):
        sim = self._sim()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            de = sim.install_data_elevator()
        assert de.servers_per_node == 2

    def test_non_config_argument_rejected(self):
        sim = self._sim()
        with pytest.raises(TypeError, match="DataElevatorConfig"):
            sim.install_data_elevator(3)
        assert sim.data_elevator is None

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DataElevatorConfig(servers_per_node=0)


class TestSignatureSnapshots:
    """Pinned call signatures for the stable surface.

    A drifted snapshot means a breaking API change: either restore the
    signature or update this test *and* docs/API.md together.
    """

    def test_run_trace_signature(self):
        import inspect
        assert str(inspect.signature(repro.run_trace)) == (
            "(trace: 'Union[JobTrace, str, os.PathLike]', *, "
            "spec: 'Optional[WorkloadSpec]' = None) -> 'TraceResult'")

    def test_run_experiment_signature(self):
        import inspect
        assert str(inspect.signature(repro.run_experiment)) == (
            "(name: 'str', config: 'Optional[Mapping]' = None)")

    def test_workload_spec_fields(self):
        import dataclasses
        assert tuple(f.name for f in
                     dataclasses.fields(repro.WorkloadSpec)) == (
            "machine", "nodes", "procs_per_node", "system", "config",
            "chunk_size", "strategy", "strategy_params", "bb_pools",
            "bb_fraction", "max_concurrent", "jobs", "mix", "arrival_rate",
            "mean_mb_per_rank", "max_ranks", "compute_seconds", "seed",
            "fault_spec", "fault_seed", "verify_reads")

    def test_workload_spec_is_kw_only(self):
        with pytest.raises(TypeError):
            repro.WorkloadSpec("small")

    def test_univistor_config_field_superset(self):
        """Config fields may grow (defaults keep old calls working) but
        the existing names must never disappear or reorder."""
        import dataclasses
        names = tuple(f.name for f in
                      dataclasses.fields(repro.UniviStorConfig))
        for required in ("servers_per_node", "chunk_size", "cache_tiers",
                         "flush_enabled", "adaptive_striping",
                         "metadata_replication", "bb_quota_enforced"):
            assert required in names
