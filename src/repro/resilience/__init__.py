"""Cross-cutting resilience subsystem (package).

:mod:`repro.resilience.core` carries the original single-module API
(transactional transformation application, quarantine, oscillation control,
structured failure reporting) and is re-exported here unchanged, so
``from repro.resilience import transactional_apply`` keeps working.

:mod:`repro.resilience.distributed` adds coordinated checkpoint/restart for
SPMD execution (DESIGN.md §10): periodic globally-consistent
:class:`~repro.resilience.distributed.WorldCheckpoint` snapshots at SDFG
state boundaries, a supervisor that classifies rank failures and replays
from the last committed checkpoint, and epoch-tagged message envelopes so
replayed traffic cannot collide with pre-crash leftovers.

:mod:`repro.resilience.chaos` drives the seeded chaos sweep
(``python -m repro.resilience chaos``) that exercises recovery over the
distributed corpus and writes ``CHAOS.json``.
"""

from .core import (  # noqa: F401
    FailureRecord,
    FailureReport,
    OscillationDetector,
    Quarantine,
    ResilienceWarning,
    SDFGSnapshot,
    transactional_apply,
)
from .distributed import (  # noqa: F401
    CheckpointManager,
    CheckpointStore,
    RankSnapshot,
    RecoveryEvent,
    SupervisedRun,
    UnrecoveredError,
    WorldCheckpoint,
    classify_failure,
    run_spmd_supervised,
)

__all__ = [
    "FailureRecord",
    "FailureReport",
    "SDFGSnapshot",
    "Quarantine",
    "OscillationDetector",
    "ResilienceWarning",
    "transactional_apply",
    "RankSnapshot",
    "WorldCheckpoint",
    "CheckpointStore",
    "CheckpointManager",
    "RecoveryEvent",
    "SupervisedRun",
    "UnrecoveredError",
    "classify_failure",
    "run_spmd_supervised",
]
