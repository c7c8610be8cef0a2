"""Communication-aware distributed optimizer (DESIGN.md §13).

Three passes over distributed SDFGs, all opportunistic (unproven sites
stay eager) and all gated on :mod:`repro.config` keys:

* :func:`~.plan.overlap_halo_exchanges` — split stencil bodies into
  interior/boundary, post ``Isend``/``Irecv`` before the interior and
  ``Waitall`` only before the boundary strips (``commopt.overlap``);
* :func:`~.dedup.dedup_collectives` — memoize loop-invariant collectives
  whose source buffers are provably never written (``commopt.dedup``);
* :mod:`~.runtime` — the rank-local runtime: pending-exchange registry,
  envelope coalescing, collective memo, halo-extent validation.

``optimize_comm(sdfg)`` applies the enabled passes in place and returns
a per-pass application count.  ``python -m repro.bench.dist`` prints
planned-vs-eager comm volume for the kernel corpus.
"""

from __future__ import annotations

from typing import Dict

from ...config import Config
from .plan import overlap_halo_exchanges
from .dedup import dedup_collectives
from .runtime import (
    CollectiveDivergenceError,
    HaloExtentError,
    drain_pending,
    validate_halo_extents,
)

__all__ = [
    "optimize_comm",
    "overlap_halo_exchanges",
    "dedup_collectives",
    "drain_pending",
    "validate_halo_extents",
    "HaloExtentError",
    "CollectiveDivergenceError",
]


def optimize_comm(sdfg) -> Dict[str, int]:
    """Apply the enabled communication optimizations to *sdfg* in place.

    Returns ``{"overlap": n_sites, "dedup": n_collectives}``.
    """
    applied = {"overlap": 0, "dedup": 0}
    if Config.get("commopt.overlap"):
        applied["overlap"] = overlap_halo_exchanges(sdfg)
    if Config.get("commopt.dedup"):
        applied["dedup"] = dedup_collectives(sdfg)
    if any(applied.values()):
        sdfg.validate()
    return applied
