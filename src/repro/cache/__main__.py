"""Compilation-cache CLI.

Usage::

    python -m repro.cache warm --size test --benchmarks gemm,atax --jobs 4
    python -m repro.cache stats [--json]
    python -m repro.cache clear
    python -m repro.cache verify [--evict]

``warm`` compiles the benchmark corpus (both the plain and auto-optimized
artifact of every program) across a process pool into the persistent store,
so subsequent bench/sanitizer/CI runs skip parsing, optimization, and code
generation entirely.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import get_store, warm_corpus


def _select_names(spec: str) -> Optional[List[str]]:
    if not spec or spec == "all":
        return None                     # warm_corpus: the whole corpus
    return [name.strip() for name in spec.split(",") if name.strip()]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Persistent content-addressed compilation cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    warm = sub.add_parser("warm", help="compile the corpus into the cache")
    warm.add_argument("--size", default="test",
                      choices=["test", "small", "large"])
    warm.add_argument("--benchmarks", default="all",
                      help="comma-separated subset, or 'all'")
    warm.add_argument("--jobs", type=int, default=0,
                      help="process-pool width (default: cpu count)")
    warm.add_argument("--device", default="CPU")

    stats_p = sub.add_parser("stats", help="show store statistics")
    stats_p.add_argument("--json", action="store_true", dest="as_json")

    sub.add_parser("clear", help="delete every cache entry")

    verify = sub.add_parser("verify", help="checksum-verify all entries")
    verify.add_argument("--evict", action="store_true",
                        help="delete corrupted entries")

    args = parser.parse_args(argv)
    store = get_store()

    if args.command == "warm":
        names = _select_names(args.benchmarks)
        summary = warm_corpus(names=names, size=args.size,
                              device=args.device, jobs=args.jobs or None,
                              verbose=True)
        print(f"warmed {summary['warmed']}/{len(summary['results'])} "
              f"benchmark(s) in {summary['wall_seconds']:.2f}s "
              f"({summary['jobs']} job(s); hits={summary['hits']} "
              f"misses={summary['misses']} stores={summary['stores']}) "
              f"-> {summary['cache_dir']}")
        return 0 if summary["failed"] == 0 else 1

    if args.command == "stats":
        info = store.disk_stats()
        if args.as_json:
            print(json.dumps(info, indent=2, sort_keys=True))
        else:
            print(f"cache directory : {info['directory']}")
            print(f"entries         : {info['entries']}")
            print(f"size            : {info['bytes'] / 1024.0:.1f} KiB "
                  f"(budget {info['max_bytes'] / (1024.0 * 1024.0):.0f} MiB)")
            print(f"memory tier     : {info['memory_entries']} live entries")
        return 0

    if args.command == "clear":
        removed = store.clear()
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'} "
              f"from {store.directory}")
        return 0

    if args.command == "verify":
        ok, corrupted = store.verify(evict=args.evict)
        print(f"{ok} entr{'y' if ok == 1 else 'ies'} ok, "
              f"{len(corrupted)} corrupted"
              f"{' (evicted)' if args.evict and corrupted else ''}")
        for path in corrupted:
            print(f"  corrupt: {path}")
        return 0 if not corrupted else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
