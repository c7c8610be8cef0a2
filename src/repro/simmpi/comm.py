"""Simulated MPI: rank-per-thread SPMD execution with virtual clocks.

Functionally, ranks run concurrently in threads and exchange real NumPy
data through matched mailboxes (eager protocol).  For *timing*, every rank
carries a virtual clock advanced by the LogGP network model on communication
and by explicitly-reported compute time — so modeled end-to-end runtimes are
deterministic and independent of host scheduling, while numerics are real.

API mirrors mpi4py conventions: uppercase methods move NumPy buffers,
collectives take root ranks, ``Isend/Irecv`` return requests with ``wait``.

Resilience (see DESIGN.md): every blocking operation carries a timeout
(``resilience.comm_timeout_s``) and, on expiry, raises a
:class:`DeadlockError` listing every rank's pending operation instead of
hanging the process.  A :class:`~repro.simmpi.netmodel.FaultPlan` injects
message drops (survived through bounded retransmission with virtual-clock
backoff), delays, duplicates (suppressed via per-channel sequence numbers),
and mid-run rank crashes.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import instrumentation as _instrumentation
from ..config import Config
from ..runtime.context import tick as _governor_tick
from .netmodel import FaultPlan, NetModel

__all__ = ["Comm", "Request", "VectorType", "run_spmd", "SimMPIError",
           "DeadlockError", "InjectedCrash", "FaultPlan"]

#: polling granularity (wall-clock seconds) for blocking receives
_POLL_S = 0.02


class SimMPIError(RuntimeError):
    """Error inside the simulated MPI runtime."""


class DeadlockError(SimMPIError):
    """A blocking operation timed out; carries the who-waits-on-whom dump."""


class InjectedCrash(SimMPIError):
    """A rank crash injected by a :class:`FaultPlan` (transient fault; the
    checkpoint/restart supervisor classifies it as recoverable)."""


class _AbortedByPeer(SimMPIError):
    """Secondary error: this rank unwound because *another* rank failed.
    Filtered out of failure reports — the peer's exception is the cause."""


class VectorType:
    """MPI_Type_vector analogue: count blocks of blocklength elements with a
    stride (in elements) between block starts.

    Mirrors the paper's derived-datatype halo exchange (§4.3): sending a
    strided column without an intermediate copy.  The simulator packs and
    unpacks through NumPy striding.
    """

    def __init__(self, count: int, blocklength: int, stride: int, dtype):
        self.count = int(count)
        self.blocklength = int(blocklength)
        self.stride = int(stride)
        self.dtype = np.dtype(dtype)
        self._committed = False

    def Commit(self) -> "VectorType":
        self._committed = True
        return self

    def Free(self) -> None:
        self._committed = False

    @property
    def extent_elements(self) -> int:
        return self.count * self.blocklength

    def pack(self, flat: np.ndarray) -> np.ndarray:
        """Gather the typed elements from a flat element buffer."""
        out = np.empty(self.extent_elements, dtype=self.dtype)
        for i in range(self.count):
            start = i * self.stride
            out[i * self.blocklength:(i + 1) * self.blocklength] = \
                flat[start:start + self.blocklength]
        return out

    def unpack(self, flat: np.ndarray, data: np.ndarray) -> None:
        data = data.reshape(-1)
        for i in range(self.count):
            start = i * self.stride
            flat[start:start + self.blocklength] = \
                data[i * self.blocklength:(i + 1) * self.blocklength]


class Request:
    """A pending nonblocking operation."""

    def __init__(self, complete: Callable[[], None],
                 try_complete: Optional[Callable[[], bool]] = None,
                 poll: Optional[Callable[[], None]] = None):
        self._complete = complete
        self._try_complete = try_complete
        self._poll = poll
        self._done = False

    def wait(self) -> None:
        if not self._done:
            self._complete()
            self._done = True

    Wait = wait

    def test(self) -> bool:
        """Attempt completion without blocking (mpi4py ``Test`` semantics):
        completes the operation if it can finish now, else returns False.

        A request that can *never* complete (e.g. polling for a message that
        was dropped or whose sender crashed) does not return False forever:
        the poll callback raises :class:`DeadlockError` once the request's
        deadline — started at ``Irecv`` time — expires, and aborts early when
        a peer rank has already failed."""
        if self._done:
            return True
        if self._try_complete is not None and self._try_complete():
            self._complete()
            self._done = True
            return True
        if self._poll is not None:
            self._poll()
        return self._done

    Test = test

    @staticmethod
    def waitall(requests: Sequence["Request"]) -> None:
        for req in requests:
            if req is not None:
                req.wait()

    #: mpi4py API-parity alias (``Request.Waitall(reqs)``)
    Waitall = waitall


class _World:
    """Shared state of one SPMD execution."""

    def __init__(self, size: int, net: NetModel,
                 fault_plan: Optional[FaultPlan] = None,
                 timeout_s: Optional[float] = None, epoch: int = 0):
        self.size = size
        self.net = net
        self.fault_plan = fault_plan
        self.timeout_s = (timeout_s if timeout_s is not None
                          else Config.get("resilience.comm_timeout_s"))
        #: checkpoint epoch: bumped on every supervised restart; message
        #: envelopes carry it so receivers can drain stale in-flight traffic
        self.epoch = epoch
        self.clocks = [0.0] * size
        self.mailboxes: Dict[Tuple[int, int, int], "queue.Queue"] = {}
        self._mail_lock = threading.Lock()
        self.barrier = threading.Barrier(size)
        self.coll_slots: List[Any] = [None] * size
        self.comm_stats = {"messages": 0, "bytes": 0, "retransmissions": 0,
                           "duplicates_suppressed": 0, "stale_discarded": 0}
        #: per-operation counters (DESIGN.md §13): op name -> count / bytes
        #: on the wire / virtual seconds spent blocked waiting for the op
        self.op_stats: Dict[str, Dict[str, float]] = {}
        #: communication-optimizer effect counters (repro.distributed.commopt)
        self.commopt_stats: Dict[str, float] = {
            "dedup_hits": 0, "dedup_bytes_saved": 0,
            "coalesced_messages": 0, "overlap_credit_s": 0.0,
        }
        self._stats_lock = threading.Lock()
        #: rank -> first exception raised on that rank
        self.failures: Dict[int, BaseException] = {}
        self._failed_lock = threading.Lock()
        #: auxiliary barriers (checkpoint rendezvous) broken on failure so
        #: no rank is left waiting for a dead peer
        self._extra_barriers: List[threading.Barrier] = []
        #: what each rank is currently blocked on (deadlock diagnostics)
        self.pending: List[Optional[str]] = [None] * size
        #: per-rank count of communication operations (crash injection)
        self.op_counts = [0] * size
        #: per-channel send sequence numbers and delivered-seq sets
        self._seq: Dict[Tuple[int, int, int], int] = {}
        self._seq_lock = threading.Lock()
        self.delivered: Dict[Tuple[int, int, int], Set[int]] = {}

    @property
    def failed(self) -> Optional[BaseException]:
        """The first recorded failure, or None (legacy single-failure view)."""
        for exc in self.failures.values():
            return exc
        return None

    def mailbox(self, src: int, dst: int, tag: int) -> "queue.Queue":
        key = (src, dst, tag)
        with self._mail_lock:
            box = self.mailboxes.get(key)
            if box is None:
                box = self.mailboxes[key] = queue.Queue()
            return box

    def next_seq(self, src: int, dst: int, tag: int) -> int:
        key = (src, dst, tag)
        with self._seq_lock:
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
            return seq

    def record(self, nbytes: int, stat: str = "messages") -> None:
        with self._stats_lock:
            self.comm_stats[stat] += 1
            if stat == "messages":
                self.comm_stats["bytes"] += nbytes

    def account(self, op: str, count: int = 0, nbytes: int = 0,
                wait_s: float = 0.0) -> None:
        """Attribute communication to a named operation.

        ``count``/``nbytes`` are incremented at the op's primary call site;
        ``wait_s`` is the *virtual* time the calling rank spent blocked (the
        receive-side arrival gap or the collective synchronization gap), the
        quantity the overlap optimizer drives down.  Surfaces as the ``comm``
        instrumentation category when a profile collector is active.
        """
        with self._stats_lock:
            st = self.op_stats.setdefault(
                op, {"count": 0, "bytes": 0, "wait_s": 0.0})
            st["count"] += count
            st["bytes"] += nbytes
            st["wait_s"] += wait_s
        coll = _instrumentation._ACTIVE
        if coll is not None:
            coll.add("comm", op, wait_s)

    def commopt_note(self, stat: str, value: float = 1) -> None:
        """Bump a communication-optimizer effect counter (dedup/coalesce/
        overlap); keyed into :class:`~repro.distributed.commopt.CommReport`."""
        with self._stats_lock:
            self.commopt_stats[stat] = self.commopt_stats.get(stat, 0) + value

    def fail(self, exc: BaseException, rank: int = -1) -> None:
        """Record a rank failure and break everyone out of barriers.

        Every failing rank is recorded (first exception per rank wins) so
        :func:`run_spmd` can name them all; collective and checkpoint
        barriers are aborted so surviving ranks unwind instead of waiting
        for a dead peer."""
        with self._failed_lock:
            self.failures.setdefault(rank, exc)
            extra = list(self._extra_barriers)
        self.barrier.abort()
        for barrier in extra:
            barrier.abort()

    def register_barrier(self, barrier: "threading.Barrier") -> None:
        """Register an auxiliary barrier to be aborted on any rank failure."""
        with self._failed_lock:
            self._extra_barriers.append(barrier)
            already_failed = bool(self.failures)
        if already_failed:
            barrier.abort()

    # -- checkpoint support -------------------------------------------------
    def snapshot_comm(self) -> Dict[str, Any]:
        """Capture communication state at a quiescent point (all ranks at a
        checkpoint barrier): clocks, op counts, per-channel sequence state,
        and in-flight mailbox messages.  Consumed by
        :class:`repro.resilience.distributed.WorldCheckpoint`."""
        with self._mail_lock:
            boxes = {key: list(box.queue)
                     for key, box in self.mailboxes.items()}
        with self._seq_lock:
            seq = dict(self._seq)
        with self._stats_lock:
            stats = dict(self.comm_stats)
            op_stats = {op: dict(st) for op, st in self.op_stats.items()}
            commopt_stats = dict(self.commopt_stats)
        return {
            "clocks": list(self.clocks),
            "op_counts": list(self.op_counts),
            "seq": seq,
            "delivered": {k: set(v) for k, v in self.delivered.items()},
            "mailboxes": boxes,
            "comm_stats": stats,
            "op_stats": op_stats,
            "commopt_stats": commopt_stats,
        }

    def restore_comm(self, snap: Dict[str, Any]) -> None:
        """Rebuild communication state from a checkpoint snapshot.

        In-flight messages captured under the old epoch are retagged to this
        world's epoch — they were legitimately sent before the cut and must
        be deliverable after the restart; anything sent *after* the cut died
        with the old world and never reappears."""
        self.clocks[:] = snap["clocks"]
        self.op_counts[:] = snap["op_counts"]
        with self._seq_lock:
            self._seq = dict(snap["seq"])
        self.delivered = {k: set(v) for k, v in snap["delivered"].items()}
        with self._stats_lock:
            self.comm_stats.update(snap["comm_stats"])
            # pre-epoch checkpoints (or hand-built snapshots) may predate
            # the per-op counters; restore what is present
            for op, st in snap.get("op_stats", {}).items():
                self.op_stats[op] = dict(st)
            self.commopt_stats.update(snap.get("commopt_stats", {}))
        for key, msgs in snap["mailboxes"].items():
            box = self.mailbox(*key)
            for (_epoch, seqno, data, sent_at, nbytes) in msgs:
                box.put((self.epoch, seqno, data, sent_at, nbytes))

    def deadlock_dump(self, rank: int, desc: str) -> str:
        lines = [
            f"deadlock: rank {rank} timed out in {desc} after "
            f"{self.timeout_s:g}s; pending operations:"
        ]
        for r, op in enumerate(self.pending):
            lines.append(f"  rank {r}: {op or '<not blocked in communication>'}")
        return "\n".join(lines)


class Comm:
    """Per-rank communicator handle."""

    def __init__(self, world: _World, rank: int):
        self._world = world
        self.rank = rank
        self.size = world.size

    # -- introspection -----------------------------------------------------
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    @property
    def clock(self) -> float:
        return self._world.clocks[self.rank]

    def advance(self, seconds: float) -> None:
        """Account local compute time on this rank's virtual clock."""
        self._world.clocks[self.rank] += seconds

    # -- fault hooks -------------------------------------------------------
    def _op(self, desc: str) -> None:
        """Count a communication operation; fire an injected rank crash.

        Also the abort poll point for compute-bound survivors: once any
        peer has failed, the next communication operation on this rank
        unwinds instead of feeding a doomed execution."""
        self._check_aborted()
        # communication ops are the governor's cooperative check sites in
        # SPMD code (a rank blocked in comm has no state boundaries)
        _governor_tick()
        world = self._world
        world.op_counts[self.rank] += 1
        plan = world.fault_plan
        if plan is not None and \
                plan.should_crash(self.rank, world.op_counts[self.rank]):
            raise InjectedCrash(
                f"injected crash on rank {self.rank} during {desc} "
                f"(operation #{world.op_counts[self.rank]})")

    def _check_aborted(self) -> None:
        world = self._world
        if world.failures:
            with world._failed_lock:
                items = sorted(world.failures.items())
            first = items[0][1]
            names = ", ".join(f"rank {r}" for r, _ in items)
            raise _AbortedByPeer(
                f"rank {self.rank} aborted: peer failure on {names} "
                f"({first})") from first

    # -- point-to-point -----------------------------------------------------
    def _payload(self, buf, datatype: Optional[VectorType]):
        arr = np.asarray(buf)
        if datatype is not None:
            data = datatype.pack(arr.reshape(-1))
        else:
            data = np.copy(arr)
        return data, data.nbytes

    def Send(self, buf, dest: int, tag: int = 0,
             datatype: Optional[VectorType] = None) -> None:
        self._op(f"Send(dest={dest}, tag={tag})")
        data, nbytes = self._payload(buf, datatype)
        world = self._world
        net = world.net
        plan = world.fault_plan
        channel = (self.rank, dest, tag)
        seq = world.next_seq(self.rank, dest, tag)
        retries = Config.get("resilience.send_retries")
        backoff = Config.get("resilience.retry_backoff_us") * 1e-6
        attempt = 0
        while True:
            world.clocks[self.rank] += net.send_overhead(nbytes)
            world.record(nbytes)
            world.account("Send", count=1, nbytes=nbytes)
            if plan is not None and plan.drop(channel):
                attempt += 1
                if attempt > retries:
                    raise SimMPIError(
                        f"message rank {self.rank} -> rank {dest} (tag={tag}, "
                        f"seq={seq}) lost: dropped on all "
                        f"{attempt} attempts ({retries} retransmissions)")
                # retransmission: exponential-ish backoff on the virtual clock
                world.clocks[self.rank] += backoff * attempt
                world.record(nbytes, stat="retransmissions")
                continue
            delay = plan.delay(channel) if plan is not None else 0.0
            box = world.mailbox(self.rank, dest, tag)
            envelope = (world.epoch, seq, data,
                        world.clocks[self.rank] + delay, nbytes)
            box.put(envelope)
            if plan is not None and plan.duplicate(channel):
                box.put(envelope)
            return

    def Recv(self, buf, source: int, tag: int = 0,
             datatype: Optional[VectorType] = None):
        desc = f"Recv(source={source}, tag={tag})"
        self._op(desc)
        world = self._world
        clock_before = world.clocks[self.rank]
        box = world.mailbox(source, self.rank, tag)
        delivered = world.delivered.setdefault((source, self.rank, tag), set())
        world.pending[self.rank] = desc
        deadline = time.monotonic() + world.timeout_s
        try:
            while True:
                self._check_aborted()
                _governor_tick()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DeadlockError(world.deadlock_dump(self.rank, desc))
                try:
                    epoch, seq, data, sent_at, nbytes = box.get(
                        timeout=min(remaining, _POLL_S))
                except queue.Empty:
                    continue
                if epoch < world.epoch:
                    # in-flight message from a pre-restart epoch: stale
                    world.record(nbytes, stat="stale_discarded")
                    continue
                if seq in delivered:
                    # duplicate injected by the fault plan: suppress
                    world.record(nbytes, stat="duplicates_suppressed")
                    continue
                delivered.add(seq)
                break
        finally:
            world.pending[self.rank] = None
        # virtual wait: how long this rank's clock stalls for the arrival
        # (zero when computation already advanced the clock past it — the
        # quantity the overlap optimizer removes from the critical path)
        arrival = sent_at + world.net.latency_s
        world.account("Recv", count=1,
                      wait_s=max(0.0, arrival - clock_before))
        world.clocks[self.rank] = max(world.clocks[self.rank], arrival)
        target = np.asarray(buf)
        if datatype is not None:
            datatype.unpack(target.reshape(-1), data)
        else:
            np.copyto(target, data.reshape(target.shape))
        return target

    def Isend(self, buf, dest: int, tag: int = 0,
              datatype: Optional[VectorType] = None) -> Request:
        self.Send(buf, dest, tag, datatype)  # eager protocol
        request = Request(lambda: None)
        request._done = True
        return request

    def Irecv(self, buf, source: int, tag: int = 0,
              datatype: Optional[VectorType] = None) -> Request:
        world = self._world
        box = world.mailbox(source, self.rank, tag)
        desc = f"Irecv(source={source}, tag={tag})"
        deadline = time.monotonic() + world.timeout_s

        def complete():
            self.Recv(buf, source, tag, datatype)

        def poll():
            # called from Request.test when the message has not arrived:
            # abort on peer failure, raise once the deadline (started at
            # request creation) expires — a dropped message must not keep
            # a test() loop spinning forever
            self._check_aborted()
            _governor_tick()
            if time.monotonic() >= deadline:
                raise DeadlockError(world.deadlock_dump(self.rank, desc))

        return Request(complete, try_complete=lambda: not box.empty(),
                       poll=poll)

    def Waitall(self, requests: Sequence[Request]) -> None:
        Request.waitall(requests)

    def Sendrecv(self, sendbuf, dest: int, recvbuf, source: int,
                 tag: int = 0) -> None:
        req = self.Irecv(recvbuf, source, tag)
        self.Send(sendbuf, dest, tag)
        req.wait()

    # -- collectives ----------------------------------------------------------
    def _barrier_wait(self, desc: str) -> None:
        """One synchronization point with deadlock/abort diagnostics."""
        world = self._world
        world.pending[self.rank] = desc
        try:
            world.barrier.wait(timeout=world.timeout_s)
        except threading.BrokenBarrierError:
            self._check_aborted()
            raise DeadlockError(world.deadlock_dump(self.rank, desc)) from None
        finally:
            world.pending[self.rank] = None

    def _exchange(self, value, desc: str = "collective"):
        """All ranks deposit a value; returns the full slot list."""
        world = self._world
        world.coll_slots[self.rank] = value
        self._barrier_wait(desc)
        slots = list(world.coll_slots)
        self._barrier_wait(desc)
        return slots

    def _sync_clocks(self, cost: float, desc: str = "collective") -> None:
        """Collectives synchronize: all clocks advance to max + cost."""
        world = self._world
        before = world.clocks[self.rank]
        world.coll_slots[self.rank] = before
        self._barrier_wait(desc)
        peak = max(world.coll_slots)
        self._barrier_wait(desc)
        # wait = how long this rank idles for the slowest participant
        world.account(desc.split("(", 1)[0],
                      wait_s=max(0.0, peak - before))
        world.clocks[self.rank] = peak + cost

    def Barrier(self) -> None:
        self._op("Barrier()")
        self._world.account("Barrier", count=1)
        self._sync_clocks(self._world.net.barrier(self.size), "Barrier()")

    def Bcast(self, buf, root: int = 0):
        self._op(f"Bcast(root={root})")
        arr = np.asarray(buf)
        desc = f"Bcast(root={root})"
        slots = self._exchange(np.copy(arr) if self.rank == root else None, desc)
        if self.rank != root:
            np.copyto(arr, slots[root].reshape(arr.shape))
        self._sync_clocks(self._world.net.bcast(arr.nbytes, self.size), desc)
        self._world.record(arr.nbytes * (self.size - 1))
        self._world.account("Bcast", count=1,
                            nbytes=arr.nbytes * (self.size - 1))
        return arr

    def bcast(self, obj, root: int = 0):
        self._op(f"bcast(root={root})")
        desc = f"bcast(root={root})"
        slots = self._exchange(obj if self.rank == root else None, desc)
        nbytes = getattr(slots[root], "nbytes", 64)
        self._world.account("bcast", count=1, nbytes=int(nbytes))
        self._sync_clocks(self._world.net.bcast(int(nbytes), self.size), desc)
        return slots[root]

    def Scatter(self, sendbuf, recvbuf, root: int = 0):
        self._op(f"Scatter(root={root})")
        desc = f"Scatter(root={root})"
        recv = np.asarray(recvbuf)
        slots = self._exchange(np.copy(np.asarray(sendbuf))
                               if self.rank == root else None, desc)
        chunks = slots[root].reshape((self.size,) + recv.shape)
        np.copyto(recv, chunks[self.rank])
        total = int(chunks.nbytes)
        self._sync_clocks(self._world.net.scatter(total, self.size), desc)
        self._world.record(total)
        self._world.account("Scatter", count=1, nbytes=total)
        return recv

    def Gather(self, sendbuf, recvbuf, root: int = 0):
        self._op(f"Gather(root={root})")
        desc = f"Gather(root={root})"
        send = np.copy(np.asarray(sendbuf))
        slots = self._exchange(send, desc)
        if self.rank == root and recvbuf is not None:
            recv = np.asarray(recvbuf)
            stacked = np.stack([s.reshape(send.shape) for s in slots])
            np.copyto(recv, stacked.reshape(recv.shape))
        total = send.nbytes * self.size
        self._sync_clocks(self._world.net.gather(total, self.size), desc)
        self._world.record(total)
        self._world.account("Gather", count=1, nbytes=total)
        return recvbuf

    def Allgather(self, sendbuf, recvbuf):
        self._op("Allgather()")
        send = np.copy(np.asarray(sendbuf))
        slots = self._exchange(send, "Allgather()")
        recv = np.asarray(recvbuf)
        stacked = np.stack([s.reshape(send.shape) for s in slots])
        np.copyto(recv, stacked.reshape(recv.shape))
        self._sync_clocks(self._world.net.allgather(send.nbytes, self.size),
                          "Allgather()")
        self._world.record(send.nbytes * (self.size - 1))
        self._world.account("Allgather", count=1,
                            nbytes=send.nbytes * (self.size - 1))
        return recv

    def Allreduce(self, sendbuf, recvbuf, op: str = "sum"):
        self._op(f"Allreduce(op={op!r})")
        send = np.copy(np.asarray(sendbuf))
        slots = self._exchange(send, f"Allreduce(op={op!r})")
        from ..runtime.wcr import WCR_UFUNC

        ufunc = WCR_UFUNC[op]
        total = slots[0].astype(np.result_type(slots[0]))
        for s in slots[1:]:
            total = ufunc(total, s)
        recv = np.asarray(recvbuf)
        np.copyto(recv, total.reshape(recv.shape))
        self._sync_clocks(self._world.net.allreduce(send.nbytes, self.size),
                          f"Allreduce(op={op!r})")
        self._world.record(send.nbytes * (self.size - 1))
        self._world.account("Allreduce", count=1,
                            nbytes=send.nbytes * (self.size - 1))
        return recv

    def Reduce(self, sendbuf, recvbuf, op: str = "sum", root: int = 0):
        self._op(f"Reduce(op={op!r}, root={root})")
        desc = f"Reduce(op={op!r}, root={root})"
        send = np.copy(np.asarray(sendbuf))
        slots = self._exchange(send, desc)
        if self.rank == root and recvbuf is not None:
            from ..runtime.wcr import WCR_UFUNC

            ufunc = WCR_UFUNC[op]
            total = slots[0].astype(np.result_type(slots[0]))
            for s in slots[1:]:
                total = ufunc(total, s)
            recv = np.asarray(recvbuf)
            np.copyto(recv, total.reshape(recv.shape))
        self._sync_clocks(self._world.net.reduce(send.nbytes, self.size), desc)
        self._world.record(send.nbytes * (self.size - 1))
        self._world.account("Reduce", count=1,
                            nbytes=send.nbytes * (self.size - 1))
        return recvbuf

    def Alltoall(self, sendbuf, recvbuf):
        self._op("Alltoall()")
        send = np.copy(np.asarray(sendbuf)).reshape((self.size, -1))
        slots = self._exchange(send, "Alltoall()")
        recv = np.asarray(recvbuf).reshape((self.size, -1))
        for src in range(self.size):
            recv[src] = slots[src][self.rank]
        self._sync_clocks(self._world.net.alltoall(send[0].nbytes, self.size),
                          "Alltoall()")
        self._world.record(send.nbytes)
        self._world.account("Alltoall", count=1, nbytes=send.nbytes)
        return recvbuf


def run_spmd(func: Callable[[Comm], Any], size: int,
             net: Optional[NetModel] = None,
             fault_plan: Optional[FaultPlan] = None,
             timeout_s: Optional[float] = None) -> Tuple[List[Any], List[float], Dict]:
    """Run ``func(comm)`` on *size* simulated ranks.

    Returns (per-rank results, per-rank virtual clocks, communication stats).
    Exceptions on any rank abort the execution and re-raise; a
    :class:`DeadlockError` (blocking operation exceeding *timeout_s*,
    default ``resilience.comm_timeout_s``) re-raises with the full
    per-rank pending-operation dump.  *fault_plan* optionally injects
    message drops, delays, duplicates, and rank crashes.
    """
    world = _World(size, net or NetModel.from_config(),
                   fault_plan=fault_plan, timeout_s=timeout_s)
    results = _launch(func, world)
    _raise_failures(world)
    return results, world.clocks, world.comm_stats


def _launch(func: Callable[[Comm], Any], world: _World) -> List[Any]:
    """Run one epoch of SPMD threads to completion without raising.

    Failures land in ``world.failures`` keyed by rank; the supervisor
    (:mod:`repro.resilience.distributed`) inspects them to decide between
    restart and re-raise, while :func:`run_spmd` always re-raises."""
    results: List[Any] = [None] * world.size

    def runner(rank: int) -> None:
        try:
            results[rank] = func(Comm(world, rank))
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            world.fail(exc, rank)
        finally:
            world.pending[rank] = "<finished>"

    threads = [threading.Thread(target=runner, args=(r,), daemon=True)
               for r in range(world.size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def primary_failures(world: _World) -> Dict[int, BaseException]:
    """Rank failures that *caused* the abort, in rank order.

    :class:`_AbortedByPeer` unwinds are secondary casualties — survivors
    kicked out of barriers/receives after someone else died — and are
    excluded unless they are all that happened."""
    primaries = {r: e for r, e in sorted(world.failures.items())
                 if not isinstance(e, _AbortedByPeer)}
    return primaries or dict(sorted(world.failures.items()))


def _raise_failures(world: _World) -> None:
    if not world.failures:
        return
    primaries = primary_failures(world)
    first = next(iter(primaries.values()))
    if all(isinstance(e, DeadlockError) for e in primaries.values()):
        # the dump already names every rank's pending operation
        raise first
    if len(primaries) == 1:
        rank, exc = next(iter(primaries.items()))
        raise SimMPIError(f"rank {rank} failed: {exc}") from exc
    lines = [f"{len(primaries)} ranks failed:"]
    for rank, exc in primaries.items():
        lines.append(f"  rank {rank}: {type(exc).__name__}: {exc}")
    raise SimMPIError("\n".join(lines)) from first
