"""The experiment registry: named entry points over the figure runners."""

import pytest

import repro
from repro.analysis.report import Table
from repro.experiments import (list_experiments, register_experiment,
                               run_experiment)


class TestRegistry:
    def test_every_figure_registered(self):
        names = list_experiments()
        for fig in ("fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c",
                    "fig7", "fig8", "fig9", "fig10", "workload"):
            assert fig in names

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="unknown experiment 'fig99'"):
            run_experiment("fig99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment("fig7", lambda: None)

    def test_same_runner_reregistration_is_idempotent(self):
        from repro.experiments.fig7 import run_fig7
        assert register_experiment("fig7", run_fig7) is run_fig7

    def test_decorator_form(self):
        @register_experiment("test_tmp_experiment")
        def runner(steps=1):
            return steps * 2

        try:
            assert run_experiment("test_tmp_experiment") == 2
            assert run_experiment("test_tmp_experiment", {"steps": 5}) == 10
        finally:
            from repro.experiments import registry
            registry._REGISTRY.pop("test_tmp_experiment")

    def test_config_reaches_runner(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP", "64")
        table = run_experiment("fig7", {"steps": 1})
        assert isinstance(table, Table)
        assert table.xs() == [64]

    def test_top_level_reexport_is_lazy(self):
        assert "run_experiment" in repro.__all__
        assert repro.run_experiment is run_experiment

