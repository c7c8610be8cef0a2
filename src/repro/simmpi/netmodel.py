"""LogGP-style network cost model for the simulated interconnect.

Parameters default to a Piz-Daint-like Aries dragonfly (per-message overhead
``o``, latency ``L``, inverse bandwidth ``G``).  All simulated communication
advances per-rank *virtual clocks* using these costs; collectives use
tree/butterfly schedules expressed in terms of point-to-point costs, so the
model composes.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..config import Config

__all__ = ["NetModel", "FaultPlan"]


@dataclass
class NetModel:
    """Point-to-point and collective communication costs in seconds."""

    latency_s: float
    overhead_s: float
    inv_bandwidth_s_per_byte: float

    @classmethod
    def from_config(cls) -> "NetModel":
        return cls(
            latency_s=Config.get("net.latency_us") * 1e-6,
            overhead_s=Config.get("net.per_message_overhead_us") * 1e-6,
            inv_bandwidth_s_per_byte=1.0 / (Config.get("net.bandwidth_gbs") * 1e9),
        )

    # -- point to point ---------------------------------------------------
    def send_overhead(self, nbytes: int) -> float:
        """Sender-side cost of injecting a message."""
        return self.overhead_s + nbytes * self.inv_bandwidth_s_per_byte

    def ptp(self, nbytes: int) -> float:
        return self.send_overhead(nbytes) + self.latency_s

    # -- collectives --------------------------------------------------------
    def bcast(self, nbytes: int, size: int) -> float:
        """Binomial-tree broadcast."""
        if size <= 1:
            return 0.0
        return math.ceil(math.log2(size)) * self.ptp(nbytes)

    def reduce(self, nbytes: int, size: int) -> float:
        return self.bcast(nbytes, size)

    def allreduce(self, nbytes: int, size: int) -> float:
        """Recursive doubling."""
        if size <= 1:
            return 0.0
        return math.ceil(math.log2(size)) * self.ptp(nbytes)

    def scatter(self, total_bytes: int, size: int) -> float:
        """Binomial scatter: each tree level forwards half the payload."""
        if size <= 1:
            return 0.0
        levels = math.ceil(math.log2(size))
        time = 0.0
        remaining = total_bytes
        for _ in range(levels):
            remaining /= 2
            time += self.ptp(int(remaining))
        return time

    def gather(self, total_bytes: int, size: int) -> float:
        return self.scatter(total_bytes, size)

    def allgather(self, bytes_per_rank: int, size: int) -> float:
        """Ring allgather: (P-1) steps of the per-rank block."""
        if size <= 1:
            return 0.0
        return (size - 1) * self.ptp(bytes_per_rank)

    def alltoall(self, bytes_per_pair: int, size: int) -> float:
        if size <= 1:
            return 0.0
        return (size - 1) * self.ptp(bytes_per_pair)

    def barrier(self, size: int) -> float:
        return self.allreduce(8, size)


@dataclass
class FaultPlan:
    """A seeded fault-injection plan for the simulated network.

    Injected faults model real-world communication hiccups: message *drops*
    (the eager protocol retransmits with backoff, see ``Comm.Send``),
    *delays* (extra wire latency on the virtual clock), *duplicates*
    (suppressed at the receiver through per-channel sequence numbers), and
    *rank crashes* after a given number of communication operations.

    Decisions draw from one ``random.Random(seed)`` stream.  With
    probabilities of 0 or 1 (optionally bounded by ``max_drops`` /
    ``max_duplicates``) plans are fully deterministic; fractional
    probabilities are deterministic per-draw but the draw order depends on
    thread interleaving across ranks.
    """

    seed: int = 0
    drop_prob: float = 0.0
    delay_prob: float = 0.0
    delay_s: float = 0.0
    duplicate_prob: float = 0.0
    crash_rank: Optional[int] = None
    crash_after_ops: int = 1
    #: additional crash sites as ``[(rank, after_ops), ...]``; combined with
    #: the legacy ``crash_rank``/``crash_after_ops`` pair.  Each site fires
    #: at most once — the fault is transient, so a supervised restart from a
    #: checkpoint does not re-kill the respawned rank.
    crashes: Optional[List[Tuple[int, int]]] = None
    max_drops: Optional[int] = None
    max_duplicates: Optional[int] = None
    injected: dict = field(default_factory=lambda: {
        "drops": 0, "delays": 0, "duplicates": 0, "crashes": 0})

    def __post_init__(self):
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._crash_sites: List[Tuple[int, int]] = []
        if self.crash_rank is not None:
            self._crash_sites.append((self.crash_rank, self.crash_after_ops))
        for rank, after_ops in (self.crashes or []):
            self._crash_sites.append((int(rank), int(after_ops)))
        self._fired_sites: set = set()

    @property
    def crash_sites(self) -> List[Tuple[int, int]]:
        """All configured crash sites (legacy pair + ``crashes`` list)."""
        return list(self._crash_sites)

    @property
    def pending_crash_sites(self) -> List[Tuple[int, int]]:
        """Sites that have not fired yet."""
        return [site for i, site in enumerate(self._crash_sites)
                if i not in self._fired_sites]

    def _roll(self, prob: float) -> bool:
        if prob <= 0.0:
            return False
        if prob >= 1.0:
            return True
        return self._rng.random() < prob

    # -- per-event decisions (channel = (src, dst, tag)) -------------------
    def drop(self, channel: Tuple[int, int, int]) -> bool:
        with self._lock:
            if self.max_drops is not None and \
                    self.injected["drops"] >= self.max_drops:
                return False
            if self._roll(self.drop_prob):
                self.injected["drops"] += 1
                return True
            return False

    def delay(self, channel: Tuple[int, int, int]) -> float:
        with self._lock:
            if self._roll(self.delay_prob):
                self.injected["delays"] += 1
                return self.delay_s
            return 0.0

    def duplicate(self, channel: Tuple[int, int, int]) -> bool:
        with self._lock:
            if self.max_duplicates is not None and \
                    self.injected["duplicates"] >= self.max_duplicates:
                return False
            if self._roll(self.duplicate_prob):
                self.injected["duplicates"] += 1
                return True
            return False

    def should_crash(self, rank: int, ops_completed: int) -> bool:
        with self._lock:
            for i, (site_rank, after_ops) in enumerate(self._crash_sites):
                if i in self._fired_sites or site_rank != rank:
                    continue
                if ops_completed >= after_ops:
                    self._fired_sites.add(i)
                    self.injected["crashes"] += 1
                    return True
            return False
