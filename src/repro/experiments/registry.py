"""The experiment registry: one named entry point per figure runner.

Every ``experiments/fig*.py`` runner self-registers here at import time
(importing :mod:`repro.experiments` populates the registry), so callers
ask for experiments by name instead of hunting per-module functions::

    from repro import run_experiment
    table = run_experiment("fig7", {"steps": 3})

``config`` is a plain mapping of keyword arguments for the runner — the
same keywords the ``run_fig*`` functions always took.  The multi-job
workload comparison registers as ``"workload"`` (config keys are
:class:`~repro.workloads.WorkloadSpec` fields).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

__all__ = [
    "list_experiments",
    "register_experiment",
    "run_experiment",
]

_REGISTRY: Dict[str, Callable] = {}


def register_experiment(name: str, runner: Optional[Callable] = None):
    """Register ``runner`` under ``name`` (usable as a decorator)."""
    if runner is None:
        return lambda fn: register_experiment(name, fn)
    if not name or not isinstance(name, str):
        raise TypeError("experiment name must be a non-empty string")
    current = _REGISTRY.get(name)
    if current is not None and current is not runner:
        raise ValueError(f"experiment {name!r} already registered")
    _REGISTRY[name] = runner
    return runner


def run_experiment(name: str, config: Optional[Mapping] = None):
    """Run a registered experiment; returns whatever the runner returns
    (a :class:`~repro.analysis.report.Table` for the figure runners)."""
    try:
        runner = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}; "
                         f"available: {list_experiments()}") from None
    return runner(**dict(config or {}))


def list_experiments() -> List[str]:
    return sorted(_REGISTRY)


# -- the multi-job workload comparison ----------------------------------------

@register_experiment("workload")
def _run_workload(**config):
    """Compare every registered storage scheduler on one generated trace
    (config keys: WorkloadSpec fields)."""
    from repro.analysis.workload import strategy_table
    from repro.workloads import WorkloadSpec, compare_strategies
    from repro.workloads.strategies import available_strategies

    spec = WorkloadSpec(**config)
    results = compare_strategies(spec.generate(), spec=spec,
                                 strategies=available_strategies())
    return strategy_table(results)
