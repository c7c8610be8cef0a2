"""Coordinated checkpoint/restart for the simulated distributed runtime.

DESIGN.md §10.  SPMD ranks execute the same SDFG state machine, so a state
boundary — "about to execute state *k*" — is the one program point every
rank visits in the same order.  The checkpointer exploits this: at
configurable intervals (every N state transitions via
``resilience.ckpt_interval``, or once any rank has issued K communication
operations since the last checkpoint via ``resilience.ckpt_comm_ops``) all
ranks rendezvous at a checkpoint barrier and deposit a snapshot of their
local containers, symbol bindings, and the world's per-channel sequence
state plus in-flight mailbox messages.  Because every rank is parked at the
same boundary when the snapshot is assembled, the cut is globally
consistent: no message is recorded as received but not sent.

A supervisor (:func:`run_spmd_supervised`) wraps the raw SPMD launch.  When
a rank dies it classifies the failure — :class:`InjectedCrash` and other
simulated-MPI faults are *recoverable* (transient), deadlocks and user
exceptions are *fatal* — rolls every rank back to the last committed
checkpoint (coordinated rollback: respawning only the dead rank would
require message logging; respawning all ranks from a consistent cut needs
none), bumps the world *epoch* so stale in-flight messages from the
abandoned epoch are drained at the receiver, and replays.  The restart
budget is bounded (``resilience.max_restarts``).  With no checkpoint yet
committed, the supervisor restarts from the initial inputs (the caller
provides a ``reset`` callback to undo in-place mutation).

Checkpoints live in memory and are optionally spilled to disk
(``resilience.ckpt_dir`` or ``$REPRO_CKPT_DIR``) with atomic-rename
discipline so a partially-written file is never observed.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..config import Config
from ..governor.budget import ArmedBudget, Budget, GovernorError
from ..runtime import context as _context
from ..simmpi.comm import (Comm, DeadlockError, SimMPIError, _AbortedByPeer,
                           _launch, _raise_failures, _World, primary_failures)
from ..simmpi.netmodel import FaultPlan, NetModel

__all__ = [
    "RankSnapshot", "WorldCheckpoint", "CheckpointStore", "CheckpointManager",
    "RecoveryEvent", "SupervisedRun", "UnrecoveredError", "CheckpointCorrupt",
    "classify_failure", "run_spmd_supervised",
]

#: on-disk checkpoint format: magic + sha256(payload) + pickle payload
_CKPT_MAGIC = b"RPCKPT01"


class CheckpointCorrupt(RuntimeError):
    """A spilled checkpoint failed its integrity check (truncated file, bad
    magic, or checksum mismatch)."""


class UnrecoveredError(SimMPIError):
    """The supervisor gave up: a fatal failure, or the restart budget ran
    out.  Carries the recovery timeline for post-mortem reporting."""

    def __init__(self, message: str,
                 events: Optional[List["RecoveryEvent"]] = None):
        super().__init__(message)
        self.recovery_events: List[RecoveryEvent] = list(events or [])


# ---------------------------------------------------------------------------
# snapshots


def _copy_value(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return np.copy(value)
    return copy.deepcopy(value)


@dataclass
class RankSnapshot:
    """One rank's local state at a state-machine boundary."""

    rank: int
    state_index: int                 # about to execute this state
    containers: Dict[str, Any]       # deep copies (globals + transients)
    symbols: Dict[str, Any]          # scalar bindings incl. loop variables

    @classmethod
    def capture(cls, rank: int, state_index: int, containers: Dict[str, Any],
                symbols: Dict[str, Any]) -> "RankSnapshot":
        return cls(rank=rank, state_index=state_index,
                   containers={k: _copy_value(v)
                               for k, v in containers.items()},
                   symbols={k: _copy_value(v) for k, v in symbols.items()})

    def restore_into(self, containers: Dict[str, Any]) -> Dict[str, Any]:
        """Restore into existing containers *in place* where possible.

        Rank 0 operates on the caller's arrays (in-place calling
        convention), so restoration must write *through* the existing
        buffers with ``np.copyto`` rather than rebind them.  The snapshot
        itself is never aliased — it may be restored again on a later
        restart."""
        for name, value in self.containers.items():
            existing = containers.get(name)
            if (isinstance(existing, np.ndarray)
                    and isinstance(value, np.ndarray)
                    and existing.shape == value.shape):
                np.copyto(existing, value)
            else:
                containers[name] = _copy_value(value)
        return containers


@dataclass
class WorldCheckpoint:
    """A globally-consistent cut: every rank's snapshot at the same state
    boundary plus the world's communication state (virtual clocks, op
    counts, per-channel sequence numbers, delivered-sets, and in-flight
    mailbox messages)."""

    boundary: int                    # state index all ranks were parked at
    epoch: int                       # epoch the checkpoint was taken in
    ranks: List[RankSnapshot]
    comm: Dict[str, Any]             # from _World.snapshot_comm()

    def save(self, directory: str) -> str:
        """Spill to disk atomically and checksummed: magic + sha256 digest
        + pickle payload, written to a temp file then renamed — readers
        never observe a torn checkpoint, and a bit-rotted one is *detected*
        at load instead of restoring silently-corrupt rank state."""
        os.makedirs(directory, exist_ok=True)
        name = f"ckpt-epoch{self.epoch:04d}-state{self.boundary:04d}.pkl"
        path = os.path.join(directory, name)
        tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        with open(tmp, "wb") as fh:
            fh.write(_CKPT_MAGIC)
            fh.write(hashlib.sha256(payload).digest())
            fh.write(payload)
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str) -> "WorldCheckpoint":
        """Load and verify a spilled checkpoint; raises
        :class:`CheckpointCorrupt` on any integrity violation."""
        with open(path, "rb") as fh:
            blob = fh.read()
        header = len(_CKPT_MAGIC) + 32
        if len(blob) < header:
            raise CheckpointCorrupt(f"{path}: truncated checkpoint "
                                    f"({len(blob)} bytes)")
        if blob[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
            raise CheckpointCorrupt(f"{path}: bad magic "
                                    f"{blob[:len(_CKPT_MAGIC)]!r}")
        digest = blob[len(_CKPT_MAGIC):header]
        payload = blob[header:]
        if hashlib.sha256(payload).digest() != digest:
            raise CheckpointCorrupt(f"{path}: checksum mismatch")
        ckpt = pickle.loads(payload)
        if not isinstance(ckpt, cls):
            raise CheckpointCorrupt(f"{path} does not hold a WorldCheckpoint")
        return ckpt


class CheckpointStore:
    """Holds the latest committed checkpoint across epochs; optionally
    mirrors every commit to disk."""

    def __init__(self, spill_dir: Optional[str] = None):
        if spill_dir is None:
            spill_dir = (Config.get("resilience.ckpt_dir")
                         or os.environ.get("REPRO_CKPT_DIR") or "")
        self.spill_dir = spill_dir
        self.latest: Optional[WorldCheckpoint] = None
        self.commits = 0
        self.paths: List[str] = []

    def commit(self, ckpt: WorldCheckpoint) -> None:
        self.latest = ckpt
        self.commits += 1
        if self.spill_dir:
            self.paths.append(ckpt.save(self.spill_dir))

    def load_latest_from_disk(self) -> Optional[WorldCheckpoint]:
        """Newest valid spilled checkpoint, falling back past corrupt ones.

        Mirrors the compile cache's detect-and-evict discipline
        (:mod:`repro.cache.store`): a checkpoint that fails its integrity
        check is deleted and the *previous* committed one is tried, so one
        bit-rotted file costs some replay distance, never correctness.
        When no paths were recorded (a fresh store pointed at an existing
        spill dir), the directory is scanned instead."""
        candidates = list(self.paths)
        if not candidates and self.spill_dir and os.path.isdir(self.spill_dir):
            candidates = sorted(
                os.path.join(self.spill_dir, name)
                for name in os.listdir(self.spill_dir)
                if name.startswith("ckpt-") and name.endswith(".pkl"))
        for path in reversed(candidates):
            try:
                return WorldCheckpoint.load(path)
            except (CheckpointCorrupt, OSError):
                if path in self.paths:
                    self.paths.remove(path)
                try:
                    os.remove(path)
                except OSError:
                    pass
        return None


# ---------------------------------------------------------------------------
# the checkpoint rendezvous


class CheckpointManager:
    """Coordinates checkpoint rounds for one epoch's world.

    Every rank enters a *round* at every state boundary (the hook carried
    by its :class:`~repro.runtime.context.ExecutionContext`): it deposits a
    ``(boundary, wants_checkpoint)`` decision, rendezvouses, and all ranks
    deterministically agree on whether to commit — only if every rank sits
    at the *same* boundary (comm-op-triggered rounds where ranks diverge
    are discarded; interval-triggered rounds always align) and at least one
    rank wants a checkpoint.  On commit each rank deposits a
    :class:`RankSnapshot`, rank 0 assembles the :class:`WorldCheckpoint`
    (including the quiescent communication state) and commits it to the
    store, and a final rendezvous releases the ranks.

    The internal barrier is registered with the world so a rank death
    aborts it — survivors parked at a checkpoint rendezvous unwind
    immediately instead of waiting out the deadlock timeout.
    """

    def __init__(self, world: _World, store: CheckpointStore,
                 interval: int, comm_interval: int):
        self.world = world
        self.store = store
        self.interval = int(interval)
        self.comm_interval = int(comm_interval)
        self.barrier = threading.Barrier(world.size)
        world.register_barrier(self.barrier)
        self._decisions: List[Optional[tuple]] = [None] * world.size
        self._snaps: List[Optional[RankSnapshot]] = [None] * world.size
        # comm-op baseline: restored worlds resume mid-count
        self._last_ops = list(world.op_counts)

    def _wait(self, rank: int, desc: str) -> None:
        world = self.world
        world.pending[rank] = desc
        try:
            self.barrier.wait(timeout=world.timeout_s)
        except threading.BrokenBarrierError:
            first = world.failed
            if first is not None:
                raise _AbortedByPeer(
                    f"rank {rank} aborted at {desc}: peer failure "
                    f"({first})") from first
            raise DeadlockError(world.deadlock_dump(rank, desc)) from None
        finally:
            world.pending[rank] = None

    def hook(self, comm: Comm) -> _context.BoundaryHook:
        """The per-rank boundary hook driving checkpoint rounds."""
        rank = comm.rank
        transitions = [0]

        def _boundary(state_index: int, containers: Dict[str, Any],
                      symbols: Dict[str, Any]) -> None:
            transitions[0] += 1
            want = (self.interval > 0
                    and transitions[0] % self.interval == 0)
            if not want and self.comm_interval > 0:
                done = self.world.op_counts[rank] - self._last_ops[rank]
                want = done >= self.comm_interval
            self._decisions[rank] = (state_index, want)
            self._wait(rank, "checkpoint:decide")
            decisions = list(self._decisions)
            aligned = all(d is not None and d[0] == state_index
                          for d in decisions)
            commit = aligned and any(w for _, w in decisions)
            if not commit:
                # second rendezvous so no rank overwrites its decision slot
                # before everyone has read this round's
                self._wait(rank, "checkpoint:skip")
                return
            # nonblocking comm (commopt halo overlap) must not straddle the
            # recovery line: complete anything still in flight on this rank
            from ..distributed.commopt.runtime import drain_pending

            drain_pending()
            self._snaps[rank] = RankSnapshot.capture(
                rank, state_index, containers, symbols)
            self._last_ops[rank] = self.world.op_counts[rank]
            self._wait(rank, "checkpoint:deposit")
            if rank == 0:
                # every rank is parked between the deposit and commit
                # rendezvous: mailboxes and clocks are quiescent
                ckpt = WorldCheckpoint(
                    boundary=state_index, epoch=self.world.epoch,
                    ranks=list(self._snaps),
                    comm=self.world.snapshot_comm())
                self.store.commit(ckpt)
            self._wait(rank, "checkpoint:commit")

        return _boundary


# ---------------------------------------------------------------------------
# supervision


@dataclass
class RecoveryEvent:
    """One supervisor action: a restart (from a checkpoint or from scratch)
    or a terminal give-up."""

    epoch: int                       # the epoch being abandoned
    failed_ranks: List[int]
    kind: str                        # "restart" | "restart-scratch" |
                                     # "fatal" | "budget-exhausted"
    boundary: Optional[int]          # checkpoint boundary restored to
    error: str
    elapsed_s: float = 0.0           # wall time of the failed epoch


@dataclass
class SupervisedRun:
    """Outcome of a supervised SPMD execution."""

    results: List[Any]
    clocks: List[float]
    comm_stats: Dict[str, int]
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    failed_ranks: List[int] = field(default_factory=list)
    op_counts: List[int] = field(default_factory=list)
    epochs: int = 1                  # 1 = fault-free single epoch
    checkpoints: int = 0             # committed over the whole run
    op_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    commopt_stats: Dict[str, float] = field(default_factory=dict)


def classify_failure(exc: BaseException) -> bool:
    """True if *exc* is recoverable: a simulated-MPI fault (injected crash,
    retransmission exhaustion, peer abort) anywhere on its cause chain.

    Tasklet errors are wrapped by the interpreter/generated module, so the
    walk follows ``__cause__``/``__context__``.  Deadlocks are *fatal*: a
    communication mismatch replays identically from a checkpoint."""
    seen = set()
    node: Optional[BaseException] = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, DeadlockError):
            pass
        elif isinstance(node, SimMPIError):
            return True
        node = node.__cause__ or node.__context__
    return False


def _governor_failure(exc: BaseException) -> Optional[GovernorError]:
    """The GovernorError on *exc*'s cause chain, if any (rank failures are
    wrapped in SimMPIError by the launcher)."""
    seen = set()
    node: Optional[BaseException] = exc
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, GovernorError):
            return node
        node = node.__cause__ or node.__context__
    return None


def run_spmd_supervised(rank_fn: Callable[[Comm, Optional[RankSnapshot]], Any],
                        size: int,
                        net: Optional[NetModel] = None,
                        fault_plan: Optional[FaultPlan] = None,
                        timeout_s: Optional[float] = None,
                        ckpt_interval: Optional[int] = None,
                        ckpt_comm_ops: Optional[int] = None,
                        max_restarts: Optional[int] = None,
                        reset: Optional[Callable[[], None]] = None,
                        spill_dir: Optional[str] = None,
                        budget: Optional[Budget] = None,
                        grid=None) -> SupervisedRun:
    """Run ``rank_fn(comm, snapshot)`` on *size* ranks under supervision.

    ``snapshot`` is None on a fresh start and the rank's
    :class:`RankSnapshot` when resuming from a checkpoint.  Recoverable
    rank failures trigger a coordinated rollback-and-replay (all ranks
    respawn from the last consistent checkpoint, or from scratch after
    *reset* is called); fatal failures and budget exhaustion raise
    :class:`UnrecoveredError` (deadlocks re-raise directly with their
    diagnostic dump).  Parameters default to the ``resilience.*``
    configuration keys.

    Each rank thread installs one execution context for its whole run: its
    communicator (with the process *grid*, default ``ProcessGrid(size)``),
    its checkpoint hook and its armed budget.

    A governor *budget* arms every rank thread with its
    :meth:`~repro.governor.Budget.per_rank` slice against ONE absolute
    deadline fixed before the first epoch — restarts replay work but never
    reset the clock, so a supervised run cannot restart-loop past its
    deadline.  Governor errors are fatal (a timeout replays identically)
    and re-raise directly rather than wrapped in
    :class:`UnrecoveredError`.
    """
    from .. import instrumentation
    from ..distributed.context import DistContext

    net = net or NetModel.from_config()
    interval = (Config.get("resilience.ckpt_interval")
                if ckpt_interval is None else ckpt_interval)
    comm_ops = (Config.get("resilience.ckpt_comm_ops")
                if ckpt_comm_ops is None else ckpt_comm_ops)
    budget_restarts = (Config.get("resilience.max_restarts")
                       if max_restarts is None else max_restarts)
    rank_budget: Optional[Budget] = None
    deadline_at: Optional[float] = None
    if budget is not None and not budget.is_null:
        rank_budget = budget.per_rank(size)
        if rank_budget.is_null:
            rank_budget = None
        if budget.deadline_s is not None:
            deadline_at = time.monotonic() + budget.deadline_s
    store = CheckpointStore(spill_dir)
    events: List[RecoveryEvent] = []
    ever_failed: set = set()
    epoch = 0
    restarts = 0
    while True:
        wall = time.perf_counter()
        world = _World(size, net, fault_plan=fault_plan, timeout_s=timeout_s,
                       epoch=epoch)
        ckpt = store.latest
        if ckpt is not None:
            world.restore_comm(ckpt.comm)
        manager = (CheckpointManager(world, store, interval, comm_ops)
                   if (interval > 0 or comm_ops > 0) else None)

        def fn(comm: Comm, _ckpt=ckpt, _manager=manager) -> Any:
            snap = _ckpt.ranks[comm.rank] if _ckpt is not None else None
            a = (ArmedBudget(rank_budget, program=f"rank{comm.rank}",
                             deadline_at=deadline_at)
                 if rank_budget is not None else None)
            ctx = _context.ExecutionContext(
                budget=a, dist=DistContext(comm, grid),
                hook=_manager.hook(comm) if _manager is not None else None)
            with a or contextlib.nullcontext(), _context.installed(ctx):
                return rank_fn(comm, snap)

        results = _launch(fn, world)
        elapsed = time.perf_counter() - wall
        if not world.failures:
            return SupervisedRun(
                results=results, clocks=world.clocks,
                comm_stats=world.comm_stats, recovery_events=events,
                failed_ranks=sorted(ever_failed),
                op_counts=list(world.op_counts),
                epochs=epoch + 1, checkpoints=store.commits,
                op_stats={op: dict(st)
                          for op, st in world.op_stats.items()},
                commopt_stats=dict(world.commopt_stats))

        primaries = primary_failures(world)
        ever_failed.update(primaries)
        first = next(iter(primaries.values()))
        recoverable = all(classify_failure(e) for e in primaries.values())
        boundary = store.latest.boundary if store.latest is not None else None
        coll = instrumentation._ACTIVE

        if not recoverable or restarts >= budget_restarts:
            kind = "fatal" if not recoverable else "budget-exhausted"
            events.append(RecoveryEvent(
                epoch=epoch, failed_ranks=list(primaries), kind=kind,
                boundary=boundary, error=f"{type(first).__name__}: {first}",
                elapsed_s=elapsed))
            if coll is not None:
                coll.add("recovery", f"{kind}:epoch{epoch}", elapsed)
            for exc in primaries.values():
                gov = _governor_failure(exc)
                if gov is not None:
                    # structured governor rejections surface as themselves
                    # (callers match on ExecutionTimeout etc.), keeping the
                    # recovery timeline attached
                    gov.recovery_events = events  # type: ignore[attr-defined]
                    raise gov
            try:
                _raise_failures(world)
            except DeadlockError:
                raise
            except SimMPIError as exc:
                raise UnrecoveredError(
                    f"unrecovered after {restarts} restart(s) "
                    f"({kind}): {exc}", events) from exc

        restarts += 1
        kind = "restart" if store.latest is not None else "restart-scratch"
        events.append(RecoveryEvent(
            epoch=epoch, failed_ranks=list(primaries), kind=kind,
            boundary=boundary, error=f"{type(first).__name__}: {first}",
            elapsed_s=elapsed))
        if coll is not None:
            coll.add("recovery", f"{kind}:epoch{epoch}", elapsed)
        if store.latest is None and reset is not None:
            reset()
        epoch += 1
