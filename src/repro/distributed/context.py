"""Per-rank distributed execution handle.

SPMD execution runs one interpreter per rank in a thread; the explicit
``repro.comm`` operations and the distributed library nodes resolve the
calling rank's communicator and process grid through the ``dist`` field of
the thread's :class:`~repro.runtime.context.ExecutionContext`.
"""

from __future__ import annotations

from typing import Optional

from ..runtime import context as _context
from ..simmpi.comm import Comm
from ..simmpi.grid import ProcessGrid

__all__ = ["DistContext", "current", "require"]


class DistContext:
    """Per-rank handle: communicator + default process grid."""

    def __init__(self, comm: Comm, grid: Optional[ProcessGrid] = None):
        self.comm = comm
        self.grid = grid or ProcessGrid(comm.size)

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def epoch(self) -> int:
        """Checkpoint epoch of the underlying world (0 before any restart)."""
        return self.comm._world.epoch


def current() -> Optional[DistContext]:
    ctx = _context.current()
    return ctx.dist if ctx is not None else None


def require() -> DistContext:
    ctx = current()
    if ctx is None:
        raise RuntimeError(
            "no distributed context: repro.comm operations must run inside "
            "a distributed execution (repro.distributed.run_distributed)")
    return ctx
