"""UniviStor: the paper's primary contribution.

Subpackage map (paper section in parentheses):

* :mod:`~repro.core.config` — feature flags and tier configuration.
* :mod:`~repro.core.dhp` — distributed & hierarchical data placement:
  per-process log-structured files spilling across tiers (§II-B1).
* :mod:`~repro.core.va` — virtual addressing, Eq. 1 (§II-B2).
* :mod:`~repro.core.metadata` — the distributed KV metadata service
  (§II-B3).
* :mod:`~repro.core.read_service` — location-aware reads (§II-B4).
* :mod:`~repro.core.scheduler` — interference-aware resource scheduling
  glue over :mod:`repro.cluster.cpu` (§II-C).
* :mod:`~repro.core.striping` — adaptive data striping, Eqs. 2–6 (§II-D).
* :mod:`~repro.core.flush` — server-side asynchronous flush (§II-A/§II-D).
* :mod:`~repro.core.workflow` — lightweight workflow management (§II-E).
* :mod:`~repro.core.server` — the UniviStor server program (§II-A).
* :mod:`~repro.core.client` — the UniviStor ADIO driver (§II-F).
"""

from repro.core.config import StorageTier, UniviStorConfig
from repro.core.va import VirtualAddressSpace
from repro.core.dhp import Chunk, DHPWriter, LogFile, PlacedSegment
from repro.core.metadata import (
    MetadataRecord,
    MetadataService,
    MetadataUnavailableError,
)
from repro.core.resilience import DataLossError
from repro.core.striping import StripingPlan, adaptive_plan, default_plan
from repro.core.workflow import FileState, WorkflowManager
from repro.core.server import UniviStorServers
from repro.core.client import UniviStorDriver

__all__ = [
    "Chunk",
    "DHPWriter",
    "DataLossError",
    "FileState",
    "LogFile",
    "MetadataRecord",
    "MetadataService",
    "MetadataUnavailableError",
    "PlacedSegment",
    "StorageTier",
    "StripingPlan",
    "UniviStorConfig",
    "UniviStorDriver",
    "UniviStorServers",
    "VirtualAddressSpace",
    "WorkflowManager",
    "adaptive_plan",
    "default_plan",
]
