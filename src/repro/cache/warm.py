"""Parallel corpus warm-up: pre-populate the compilation cache.

Each benchmark is parsed and compiled twice — once as-is and once through
the ``auto_optimize`` pipeline — so every consumer of the corpus (the
sanitizer sweep, plain ``@repro.program`` calls) starts warm.
Workers run in a ``concurrent.futures`` process pool; the on-disk store's
atomic-rename writes make concurrent workers safe, and each worker's
hit/miss counters are folded into the returned summary.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List, Optional

__all__ = ["warm_corpus", "warm_one"]


def warm_one(name: str, size: str = "test", device: str = "CPU",
             cache_dir: str = "") -> Dict[str, object]:
    """Warm both cache entries (plain + auto-optimized) of one benchmark.

    Top-level so it pickles into process-pool workers; returns a result
    record instead of raising (one bad benchmark must not kill the sweep).
    """
    from . import cached_compile, reset_stats, stats
    from ..bench import registry
    from ..config import Config

    if cache_dir:
        Config.set("cache.dir", cache_dir)
    reset_stats()
    start = time.perf_counter()
    try:
        bench = registry.get(name)
        sdfg = bench.program.to_sdfg(**bench.arguments(size))
        cached_compile(sdfg, device=device)
        cached_compile(sdfg, device=device, optimize=device)
    except Exception as exc:
        return {"name": name, "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "seconds": time.perf_counter() - start,
                "hits": 0, "misses": 0, "stores": 0}
    s = stats()
    return {"name": name, "ok": True, "error": "",
            "seconds": time.perf_counter() - start,
            "hits": s.hits, "misses": s.misses, "stores": s.stores}


def warm_corpus(names: Optional[List[str]] = None, size: str = "test",
                device: str = "CPU", jobs: Optional[int] = None,
                verbose: bool = False) -> Dict[str, object]:
    """Compile the benchmark corpus into the cache, in parallel.

    *jobs* defaults to the CPU count (capped at the corpus size); ``jobs=1``
    warms serially in-process.  Returns a summary dictionary with per-name
    results and aggregate hit/miss counts.
    """
    from . import default_directory
    from ..bench import registry

    if names is None:
        names = registry.names()
    jobs = jobs or min(len(names) or 1, os.cpu_count() or 1)
    cache_dir = default_directory()

    start = time.perf_counter()
    results: List[Dict[str, object]] = []
    if jobs <= 1 or len(names) <= 1:
        for name in names:
            results.append(warm_one(name, size=size, device=device,
                                    cache_dir=cache_dir))
    else:
        import concurrent.futures as cf

        try:
            with cf.ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {pool.submit(warm_one, name, size, device,
                                       cache_dir): name for name in names}
                for future in cf.as_completed(futures):
                    try:
                        results.append(future.result())
                    except Exception as exc:      # worker died (e.g. OOM)
                        results.append({
                            "name": futures[future], "ok": False,
                            "error": f"{type(exc).__name__}: {exc}",
                            "seconds": 0.0, "hits": 0, "misses": 0,
                            "stores": 0})
        except (OSError, PermissionError):
            # no process pool available (restricted sandbox): warm serially
            results = [warm_one(name, size=size, device=device,
                                cache_dir=cache_dir) for name in names]
    results.sort(key=lambda r: r["name"])

    summary = {
        "size": size,
        "device": device,
        "jobs": jobs,
        "cache_dir": cache_dir,
        "wall_seconds": time.perf_counter() - start,
        "warmed": sum(1 for r in results if r["ok"]),
        "failed": sum(1 for r in results if not r["ok"]),
        "hits": sum(int(r["hits"]) for r in results),
        "misses": sum(int(r["misses"]) for r in results),
        "stores": sum(int(r["stores"]) for r in results),
        "results": results,
    }
    if verbose:
        for r in results:
            status = "ok" if r["ok"] else f"FAILED ({r['error']})"
            print(f"  warm {r['name']:<20} {r['seconds']:7.3f}s "
                  f"hits={r['hits']} misses={r['misses']} {status}",
                  file=sys.stderr)
    return summary
