"""Benchmark corpus (§3.4) and measurement harnesses.

``repro.bench.registry`` holds the corpus; ``repro.bench.dist`` is the
distributed comm-volume gate (``python -m repro.bench.dist``).  Wall-clock
and compile-time numbers come from ``benchmarks/e2e/run.py``.
"""

from . import registry

__all__ = ["registry"]
