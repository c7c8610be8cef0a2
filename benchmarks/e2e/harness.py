"""Measurement protocol shared by every workload: rows, verification,
interleaved timed rounds, and the statistics the reports are built from.

A *unit* is what gets compiled together (one corpus program, or one
distributed kernel whose eager and comm-optimized rows share a graph); a
*row* is one timed line of the report (one program at one size); a
*variant* is one set of arguments of a row (``alt_shapes`` rows cycle
through four).  Nothing here imports ``repro``: units hand in callables.
"""

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: interleaved rounds.  Every round runs one fresh-process set-up pass (cold
#: compile), one warm compile of every unit and one timed block per row and
#: reference, so each of a metric's five samples comes from another stretch
#: of the run and a few seconds of neighbour noise spoil one sample, not all
ROUNDS = 5
#: every timed block makes at least this many passes over the row's variants
MIN_CYCLES = 3
#: p90 is reported only on at least this many samples
P90_MIN_SAMPLES = 100
#: --quick: 1 round, blocks of this budget, 1 compile repetition
QUICK_BLOCK_S = 0.05


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p90(samples: Sequence[float]) -> Optional[float]:
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10)[-1]


@dataclass
class Variant:
    """One argument set of a row.

    The program and the NumPy reference each work on their own arrays;
    ``pristine`` holds the initial contents both are restored from.
    """

    args: Dict[str, Any]
    outputs: Tuple[str, ...]            # () -> compare the return value
    ref_args: Dict[str, Any] = field(init=False)
    pristine: Dict[str, np.ndarray] = field(init=False)
    #: arrays the program / the reference write (restored before each call)
    dirty: Tuple[str, ...] = ()
    ref_dirty: Tuple[str, ...] = ()
    expected: Dict[str, Any] = field(default_factory=dict)
    result: Any = None                  # return value of the latest op

    def __post_init__(self):
        self.pristine = {k: v.copy() for k, v in self.args.items()
                         if isinstance(v, np.ndarray)}
        self.ref_args = {k: (v.copy() if isinstance(v, np.ndarray) else v)
                         for k, v in self.args.items()}

    def restore(self) -> None:
        for name in self.dirty:
            np.copyto(self.args[name], self.pristine[name])

    def restore_ref(self) -> None:
        for name in self.ref_dirty:
            np.copyto(self.ref_args[name], self.pristine[name])

    def produced(self) -> Dict[str, Any]:
        if self.outputs:
            return {name: self.args[name] for name in self.outputs}
        return {"return": self.result}


@dataclass
class Row:
    name: str
    variants: List[Variant]
    reference: Callable[..., Any]
    #: ``op(**variant.args)`` is the timed operation; set by ``Unit.build``
    op: Optional[Callable[..., Any]] = None
    #: a row whose outputs this row must reproduce bit for bit (dist rows)
    bitwise_with: Optional["Row"] = None


class Unit:
    """Interface of a compile unit (see rows.py and distrows.py)."""

    name: str
    rows: List[Row]

    def build(self) -> List[Callable[..., Any]]:
        """Fresh program object(s), compiled for every variant; returns one
        op per row.  Cold or warm depends only on the cache state."""
        raise NotImplementedError


def _close(a, b) -> bool:
    """dtype-aware comparison: integers and booleans exactly, floats to
    eps**(1/3) of their dtype (6e-6 for float64: durbin's recursion at
    N=1000 legitimately differs from NumPy's summation order by 7e-7),
    absolute part scaled by the reference's magnitude."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    if not np.issubdtype(b.dtype, np.inexact):
        return bool(np.array_equal(a, b))
    tol = float(np.finfo(b.dtype).eps) ** (1.0 / 3.0)
    scale = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
    return bool(np.allclose(a, b, rtol=tol, atol=tol * scale))


def prime(row: Row) -> List[str]:
    """Run the reference and the op once per variant: records the expected
    outputs and which arrays each side writes; returns mismatch messages."""
    for v in row.variants:
        result = row.reference(**v.ref_args)
        v.expected = ({name: v.ref_args[name].copy() for name in v.outputs}
                      if v.outputs else {"return": np.copy(result)})
        v.ref_dirty = tuple(k for k, p in v.pristine.items()
                            if not np.array_equal(v.ref_args[k], p))
        v.result = row.op(**v.args)
        v.dirty = tuple(k for k, p in v.pristine.items()
                        if not np.array_equal(v.args[k], p))
    return verify(row)


def verify(row: Row) -> List[str]:
    """Compare what the latest op of each variant produced with the NumPy
    reference (and, for dist optimized rows, bitwise with the eager row)."""
    problems = []
    for i, v in enumerate(row.variants):
        produced = v.produced()
        for name, want in v.expected.items():
            if not _close(produced[name], want):
                problems.append(f"{row.name}[{i}].{name}: differs from the "
                                f"NumPy reference")
        if row.bitwise_with is not None:
            eager = row.bitwise_with.variants[i].produced()
            for name, got in produced.items():
                if not np.array_equal(got, eager[name]):
                    problems.append(f"{row.name}[{i}].{name}: not bitwise "
                                    f"equal to {row.bitwise_with.name}")
    return problems


def timed_block(call: Callable[[Variant], None], variants: List[Variant],
                restore: Callable[[Variant], None], budget_s: float
                ) -> List[float]:
    """Seconds per op, one sample per pass over *variants*; restores the
    working arrays before every call, outside the timed region."""
    gc.collect()
    samples: List[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < MIN_CYCLES or time.perf_counter() < deadline:
        total = 0.0
        for v in variants:
            restore(v)
            start = time.perf_counter()
            call(v)
            total += time.perf_counter() - start
        samples.append(total / len(variants))
    return samples


def op_block(row: Row, budget_s: float) -> List[float]:
    def call(v: Variant) -> None:
        v.result = row.op(**v.args)

    return timed_block(call, row.variants, Variant.restore, budget_s)


def ref_block(row: Row, budget_s: float) -> List[float]:
    return timed_block(lambda v: row.reference(**v.ref_args), row.variants,
                       Variant.restore_ref, budget_s)


def best(samples: Sequence[float]) -> float:
    """The value of a metric sampled once per round: its minimum, the
    sample from the quietest stretch of the run.  Noise on a shared box only
    ever adds time; over 8 runs the minimum of five block medians repeated
    within 2-4 % where their median repeated within 3-14 %."""
    return min(samples)


@dataclass
class RowTiming:
    op_blocks: List[List[float]] = field(default_factory=list)
    ref_blocks: List[List[float]] = field(default_factory=list)

    @property
    def op_s(self) -> float:
        return best([statistics.median(b) for b in self.op_blocks])

    @property
    def ref_s(self) -> float:
        return best([statistics.median(b) for b in self.ref_blocks])

    @property
    def op_samples(self) -> List[float]:
        return [s for b in self.op_blocks for s in b]


def timed_round(rows: List[Row], timings: Dict[str, RowTiming],
                block_s: float, rng: np.random.Generator
                ) -> Tuple[int, List[str]]:
    """One round: visits every row in a seed-shuffled order, times a block
    of the op and a block of its NumPy reference, and verifies the row.
    Returns the number of ops attempted and the verification failures."""
    attempted = 0
    problems: List[str] = []
    for index in rng.permutation(len(rows)):
        row = rows[index]
        try:
            ops = op_block(row, block_s)
            refs = ref_block(row, block_s)
        except Exception as exc:
            raise RuntimeError(f"row {row.name} could not be measured") from exc
        timing = timings.setdefault(row.name, RowTiming())
        timing.op_blocks.append(ops)
        timing.ref_blocks.append(refs)
        attempted += len(ops) * len(row.variants)
        problems.extend(verify(row))
    return attempted, problems


def timed_build(unit: Unit) -> float:
    """Seconds of one ``unit.build()``; binds the fresh ops to the rows."""
    start = time.perf_counter()
    ops = unit.build()
    elapsed = time.perf_counter() - start
    for row, op in zip(unit.rows, ops):
        row.op = op
    return elapsed
