"""Compiled SDFG artifacts (AOT compilation, §3.3).

A :class:`CompiledSDFG` bundles the generated specialized module with the
calling convention.  Compilation time (frontend + optimization already done
by the caller + module generation + ``compile()``) is recorded for the
paper's Fig. 6 experiment.

A :class:`CompiledSDFG` only holds what was built.  :func:`build` is the
one cold path (validate, generate, time both); a cache hit constructs the
holder around a module rehydrated from cached source (see
:mod:`repro.cache`) and skips both — the graph was validated when the entry
was created.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

from .. import instrumentation
from ..cache import cached_compile
from ..runtime.executor import CallingConvention

__all__ = ["CompiledSDFG", "build", "compile_sdfg"]


class CompiledSDFG:
    """An executable, specialized program generated from an SDFG.

    With ``instrument=True`` the generated module carries per-state and
    per-map timing hooks (reporting to :mod:`repro.instrumentation`); with
    ``sanitize=True`` it carries bounds/NaN guard calls (reporting to
    :mod:`repro.sanitizer.guards`); the default module has neither.
    """

    def __init__(self, sdfg, run, source: str,
                 closure_specs: Dict[str, Tuple[int, int]],
                 device: str = "CPU", instrument: bool = False,
                 sanitize: bool = False, from_cache: bool = False,
                 validate_seconds: float = 0.0,
                 codegen_seconds: float = 0.0):
        self.sdfg = sdfg
        #: the signature of the graph as built; later edits of it do not count
        self.convention = CallingConvention(sdfg)
        self._run = run
        self.source = source
        self.closure_specs = dict(closure_specs)
        self.device = device
        self.instrumented = instrument
        self.sanitized = sanitize
        #: True when rehydrated from the compilation cache
        self.from_cache = from_cache
        self.validate_seconds = validate_seconds
        self.codegen_seconds = codegen_seconds
        #: state-index -> visit count from the most recent execution
        #: (consumed by the device performance models)
        self.last_state_visits: Dict[int, int] = {}
        self.last_symbols: Dict[str, int] = {}
        #: the dispatcher module a resume at a state index runs
        self._resume = None
        self._resume_lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        return self.run_prepared(*self.convention.bind(args, kwargs))

    def run_prepared(self, containers: Dict, symbols: Dict,
                     start_state: Optional[int] = None,
                     visits: Optional[Dict[int, int]] = None):
        """Execute with already-bound containers/symbols, optionally resuming
        at a state-machine index (checkpoint/restart, DESIGN.md §10).

        ``start_state`` is an index into ``sdfg.topological_states()`` — the
        numbering the generated module and the distributed checkpointer
        share.  A resume runs the ``while __state`` dispatcher module,
        generated from this artifact's graph on first use and never cached.
        Containers may include pre-populated transients (restored from a
        snapshot); they are reused instead of zero-allocated.

        This call's state-visit counts land in *visits* when given;
        ``last_state_visits``/``last_symbols`` are for single-threaded
        callers — threads sharing the artifact overwrite them.
        """
        if visits is None:
            visits = {}
        if start_state is None:
            self._run(containers, symbols, visits)
        else:
            self._resume_module()(containers, symbols, visits, start_state)
        self.last_state_visits = visits
        self.last_symbols = dict(symbols)
        return self.convention.collect(containers)

    def _resume_module(self):
        with self._resume_lock:
            if self._resume is None:
                from .pygen import generate_payload

                self._resume = generate_payload(
                    self.sdfg, instrument=self.instrumented,
                    sanitize=self.sanitized, dispatcher=True)[0]
        return self._resume

    def save_source(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.source)

    def __repr__(self) -> str:
        return f"CompiledSDFG({self.sdfg.name!r}, device={self.device})"


def build(sdfg, device: str = "CPU", instrument: bool = False,
          sanitize: bool = False) -> CompiledSDFG:
    """The cold build: validate *sdfg*, generate its module, and report
    both durations to the active profile collector (Fig. 6)."""
    from .pygen import generate_payload

    coll = instrumentation._ACTIVE
    start = time.perf_counter()
    sdfg.validate()
    validate_seconds = time.perf_counter() - start
    if coll is not None:
        coll.add("phase", "validate", validate_seconds)
    start = time.perf_counter()
    run, source, closure_specs = generate_payload(
        sdfg, instrument=instrument, sanitize=sanitize)
    codegen_seconds = time.perf_counter() - start
    if coll is not None:
        coll.add("phase", "codegen", codegen_seconds)
    return CompiledSDFG(sdfg, run, source, closure_specs, device=device,
                        instrument=instrument, sanitize=sanitize,
                        validate_seconds=validate_seconds,
                        codegen_seconds=codegen_seconds)


def compile_sdfg(sdfg, device: str = "CPU", instrument: bool = False,
                 sanitize: bool = False,
                 cache: Optional[bool] = None) -> CompiledSDFG:
    """Compile an SDFG into an executable specialized module.

    When the compilation cache is enabled (``cache.enabled``; override with
    the *cache* argument) the content-addressed cache is consulted first and
    a hit rehydrates the module from cached source instead of re-generating
    it (see :mod:`repro.cache`).
    """
    if cache is False:
        return build(sdfg, device=device, instrument=instrument,
                     sanitize=sanitize)
    # the front door itself compiles uncached when the cache is configured off
    return cached_compile(sdfg, device=device, instrument=instrument,
                          sanitize=sanitize)
