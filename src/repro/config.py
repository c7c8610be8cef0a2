"""Global configuration for the data-centric toolbox.

A tiny hierarchical key-value store, with context-manager overrides so tests
and benchmarks can toggle behaviour (e.g. auto-optimization passes or device
model parameters) without mutating global state permanently.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator

_DEFAULTS: Dict[str, Any] = {
    # Frontend / optimizer behaviour
    "optimizer.simplify": True,              # run dataflow coarsening after parse
    "optimizer.tile_size": 64,               # WCR map tile size (paper §3.1 (3))
    "optimizer.stack_array_limit": 64,       # elements; below -> "stack" storage
    # Instrumentation (see repro.instrumentation)
    "instrument.mode": "off",                # "off" | "timers"
    # Multicore CPU backend (see repro.runtime.parallel and DESIGN.md §11)
    "device.cpu_threads": 0,                 # worker count; 0 -> $REPRO_CPU_THREADS
                                             # -> os.cpu_count()
    "parallel.min_work": 65536,              # est. flops below which a map
                                             # stays serial (pool dispatch
                                             # costs more than it saves)
    # Compilation cache (see repro.cache and DESIGN.md §9)
    "cache.enabled": True,                   # content-addressed compile cache
    "cache.dir": "",                         # "" -> $REPRO_CACHE_DIR -> ~/.cache/repro
    "cache.max_bytes": 256 * 1024 * 1024,    # on-disk LRU budget
    "cache.memory_entries": 128,             # in-memory LRU entry cap
    # Sanitizer (see repro.sanitizer and DESIGN.md §8)
    "sanitize.mode": "off",                  # "off" | "bounds" | "nan" | "bounds,nan"
    # Validation
    "validate.before_execute": True,         # run ir.validation before run_sdfg
    # Resilience (see repro.resilience and DESIGN.md)
    "resilience.mode": "strict",             # "strict" raises, "degrade" falls back
    "resilience.quarantine_threshold": 3,    # failures before a pass is skipped
    "resilience.max_pass_applications": 10000,  # fixed-point application cap
    # Fault injection / communication resilience (repro.simmpi)
    "resilience.send_retries": 3,            # eager-send retransmissions
    "resilience.retry_backoff_us": 10.0,     # virtual-clock backoff per retry
    "resilience.comm_timeout_s": 60.0,       # blocking-op deadlock timeout
    # Distributed checkpoint/restart (repro.resilience.distributed, §10)
    "resilience.ckpt_interval": 0,           # checkpoint every N state
                                             # transitions (0 = off)
    "resilience.ckpt_comm_ops": 0,           # ... or every K comm ops (0 = off)
    "resilience.max_restarts": 3,            # supervised restart budget
    "resilience.ckpt_dir": "",               # spill dir; "" -> $REPRO_CKPT_DIR
                                             # -> in-memory only
    # Execution governor (see repro.governor and DESIGN.md §12)
    "governor.deadline_s": 0.0,              # ambient wall-clock budget per
                                             # run (0 = off)
    "governor.max_bytes": 0,                 # admission-control memory
                                             # budget (0 = off)
    "governor.admission": "degrade",         # "degrade" tries the serial
                                             # tier before rejecting;
                                             # "strict" always rejects
    "governor.breaker_threshold": 3,         # consecutive failures that
                                             # open a program's circuit
                                             # (0 = breaker off)
    "governor.cooldown_s": 30.0,             # open -> half-open probe delay
    # Simulated device parameters (see repro.runtime.perfmodel)
    "gpu.kernel_launch_us": 6.0,
    "gpu.bandwidth_gbs": 790.0,              # V100-class HBM2
    "gpu.pcie_gbs": 12.0,
    "gpu.atomic_penalty": 12.0,
    "gpu.flops_gflops": 6100.0,              # FP64 ceiling, V100-class
    "cpu.bandwidth_gbs": 180.0,              # 2-socket Xeon-class
    "cpu.flops_gflops": 1300.0,
    "cpu.mkl_gemm_efficiency": 0.85,
    # Simulated network (Piz Daint Aries-like; LogGP)
    "net.latency_us": 1.2,
    "net.bandwidth_gbs": 9.0,
    "net.per_message_overhead_us": 0.6,
    # Communication optimizer (repro.distributed.commopt, DESIGN.md §13)
    "commopt.enabled": False,                # apply optimize_comm in
                                             # run_distributed (or set
                                             # $REPRO_COMM_OPT=1)
    "commopt.overlap": True,                 # halo-exchange interior/boundary
                                             # overlap rewrite
    "commopt.dedup": True,                   # loop-invariant collective dedup
    "commopt.coalesce_max_bytes": 4096,      # fuse same-peer messages at or
                                             # below this size (0 = off)
    "commopt.stencil_gflops": 0.0,           # stencil compute rate for the
                                             # overlap clock credit;
                                             # 0.0 -> cpu.flops_gflops
}

_config: Dict[str, Any] = dict(_DEFAULTS)


class Config:
    """Namespace wrapper around the process-wide configuration."""

    @staticmethod
    def get(key: str) -> Any:
        try:
            return _config[key]
        except KeyError:
            raise KeyError(f"unknown configuration key {key!r}") from None

    @staticmethod
    def set(key: str, value: Any) -> None:
        if key not in _config:
            raise KeyError(f"unknown configuration key {key!r}")
        _config[key] = value

    @staticmethod
    def keys():
        return _config.keys()

    @staticmethod
    def reset() -> None:
        _config.clear()
        _config.update(_DEFAULTS)

    @staticmethod
    @contextlib.contextmanager
    def override(**pairs: Any) -> Iterator[None]:
        """Temporarily override dotted keys (dots written as ``__``)."""
        keys = {k.replace("__", "."): v for k, v in pairs.items()}
        saved = {k: Config.get(k) for k in keys}
        try:
            for k, v in keys.items():
                Config.set(k, v)
            yield
        finally:
            for k, v in saved.items():
                Config.set(k, v)
