"""Static race detection for map scopes.

For every map scope the detector classifies the parallel execution of its
iteration space as one of three verdicts:

``race-free``
    Every pair of potentially conflicting accesses (write-write or
    read-write on the same container) is proven safe: WCR writes commute by
    construction, non-WCR writes are injective in the map parameters, and
    read/write subsets either coincide per iteration point or are provably
    disjoint across iteration points.

``race``
    A conflict is *proven*: two distinct iteration points (or two distinct
    writers within one point) touch the same element, at least one of them
    writing without WCR.

``unproved``
    The symbolic engine cannot decide (dynamic memlets, non-affine
    subscripts, symbolic strides, nested-scope parameters, ...).  Runtime
    guards and the differential oracle cover this residue.

The analysis works on the *inner* memlets of a scope — the edges leaving the
``MapEntry`` (reads) and entering the ``MapExit`` (writes) — which carry the
per-iteration subsets; outer edges only carry propagated hulls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.memlet import Memlet
from ..ir.nodes import MapEntry
from ..ir.sdfg import SDFG
from ..ir.state import SDFGState
from ..symbolic import Integer, Range, definitely_eq, definitely_le

__all__ = ["RACE_FREE", "UNPROVED", "RACE", "Conflict", "MapRaceVerdict",
           "check_races", "analyze_map"]

RACE_FREE = "race-free"
UNPROVED = "unproved"
RACE = "race"

_ORDER = {RACE_FREE: 0, UNPROVED: 1, RACE: 2}


@dataclass
class Conflict:
    """One potentially conflicting access pair inside a map scope."""

    kind: str            # "write-write" | "read-write" | "wcr-mix" | "self"
    container: str
    first: str           # str(subset) of the first access
    second: str          # str(subset) of the second access (or note)
    verdict: str         # UNPROVED or RACE
    note: str = ""

    def to_dict(self) -> dict:
        return {"kind": self.kind, "container": self.container,
                "first": self.first, "second": self.second,
                "verdict": self.verdict, "note": self.note}


@dataclass
class MapRaceVerdict:
    """Race-analysis result for one map scope."""

    sdfg: str
    state: str
    map_label: str
    params: Tuple[str, ...]
    verdict: str
    conflicts: List[Conflict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"sdfg": self.sdfg, "state": self.state, "map": self.map_label,
                "params": list(self.params), "verdict": self.verdict,
                "conflicts": [c.to_dict() for c in self.conflicts]}


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _multiple_points(dim) -> Optional[bool]:
    """Does a map-range dimension ``(b, e, s)`` contain at least two
    iteration points?  Three-valued; assumes a positive step."""
    begin, end, step = dim
    if isinstance(step, Integer) and step.value <= 0:
        return None
    return definitely_le(begin + step, end)


def _nonempty(rng: Range) -> Optional[bool]:
    """Does the box contain at least one point?  Three-valued."""
    verdict: Optional[bool] = True
    for begin, end, _ in rng.dims:
        le = definitely_le(begin, end)
        if le is False:
            return False
        if le is None:
            verdict = None
    return verdict


def _hull(subset: Range, param_ranges: Dict[str, Tuple]) -> Optional[Range]:
    """Over-approximate a parametric subset by a parameter-free box, by
    substituting each map parameter's extreme values.  Uses the per-dimension
    affine bound logic shared with the bounds checker."""
    from .bounds import minmax_expr

    chain = list(param_ranges.items())
    dims = []
    for begin, end, step in subset.dims:
        lo = minmax_expr(begin, chain, want_max=False)
        hi = minmax_expr(end, chain, want_max=True)
        if lo is None or hi is None:
            return None
        dims.append((lo, hi, 1))
    return Range(dims)


def _points_shift(write: Range, read: Range, params: Sequence[str],
                  param_dims: Dict[str, Tuple]):
    """Decide whether ``write`` (at iteration x) can alias ``read`` (at a
    *different* iteration y) when both subsets are per-dimension points.

    Returns one of:
      ("safe", note)      -- provably no cross-iteration aliasing
      ("race", note)      -- a realizable nonzero iteration shift exists
      ("unproved", note)  -- cannot decide
    """
    # Imported lazily: codegen transitively imports the executor, which
    # imports the guard module of this package (cycle-safe at call time).
    from ..codegen.pygen import affine_decompose

    if write.ndim != read.ndim:
        return ("unproved", "rank mismatch")
    shifts: Dict[str, int] = {}
    for d, ((wb, we, _), (rb, re_, _)) in enumerate(zip(write.dims, read.dims)):
        if definitely_eq(wb, we) is not True or definitely_eq(rb, re_) is not True:
            return ("unproved", f"dim {d} is not a point")
        wdec = affine_decompose(wb, params)
        rdec = affine_decompose(rb, params)
        if wdec is None or rdec is None:
            return ("unproved", f"dim {d} not affine in one parameter")
        wp, wa, wc = wdec
        rp, ra, rc = rdec
        if wp is None and rp is None:
            eq = definitely_eq(wc, rc)
            if eq is False:
                return ("safe", f"dim {d} constants differ")
            if eq is None:
                return ("unproved", f"dim {d} constants undecided")
            continue
        if wp is None or rp is None or wp != rp:
            return ("unproved", f"dim {d} parameters differ")
        if wa != ra or not isinstance(wa, Integer) or wa.value == 0:
            return ("unproved", f"dim {d} coefficients differ or are symbolic")
        delta = rc - wc  # read at y aliases write at x iff y = x + delta/a
        if not isinstance(delta, Integer):
            return ("unproved", f"dim {d} offset is symbolic")
        if delta.value % wa.value != 0:
            return ("safe", f"dim {d} offset not a multiple of the coefficient")
        t = delta.value // wa.value
        if wp in shifts and shifts[wp] != t:
            return ("safe", f"inconsistent shifts for {wp}")
        shifts[wp] = t
    nonzero = {p: t for p, t in shifts.items() if t != 0}
    if not nonzero:
        # Aliasing only at the same iteration point (or along params that
        # constrain nothing): sequential within an iteration, hence safe.
        return ("safe", "aliasing only within one iteration point")
    # A nonzero shift conflicts iff some iteration x has x + t also in range.
    for p, t in nonzero.items():
        begin, end, step = param_dims[p]
        if not isinstance(step, Integer) or step.value <= 0:
            return ("unproved", f"symbolic step for {p}")
        if abs(t) % step.value != 0:
            return ("safe", f"shift {t} for {p} not a multiple of step {step}")
        realizable = definitely_le(begin + abs(t), end)
        if realizable is False:
            return ("safe", f"shift {t} exceeds the range of {p}")
        if realizable is None:
            return ("unproved", f"shift {t} for {p} undecided")
    shift_desc = ", ".join(f"{p}{t:+d}" for p, t in sorted(nonzero.items()))
    return ("race", f"aliases at iteration shift ({shift_desc})")


def _injective_verdict(memlet: Memlet, params: Sequence[str],
                       param_dims: Dict[str, Tuple]):
    """Is a non-WCR write subset injective across iteration points?

    Returns ``(verdict, note)`` with verdict in {RACE_FREE, UNPROVED, RACE}.
    """
    from ..codegen.pygen import affine_decompose

    subset = memlet.subset
    if memlet.dynamic:
        return (UNPROVED, "dynamic (data-dependent) memlet")
    if subset is None:
        return (UNPROVED, "missing subset")
    syms = {s.name for s in subset.free_symbols}
    # Parameters the subset does not mention at all: if such a parameter
    # provably has >= 2 iteration points, every one of them writes the same
    # subset -> a definite write-write race (when the subset is nonempty).
    undecided_multiplicity = False
    for p in params:
        if p in syms:
            continue
        multi = _multiple_points(param_dims[p])
        if multi is True:
            if _nonempty(subset) is True:
                return (RACE, f"subset independent of parameter {p} "
                              f"with multiple iteration points")
            return (UNPROVED, f"subset independent of {p}; emptiness undecided")
        if multi is None:
            undecided_multiplicity = True
    # Each mentioned parameter needs a separating dimension: a point dim
    # affine in that parameter alone with a provably nonzero coefficient.
    separated = set()
    for d, (begin, end, step) in enumerate(subset.dims):
        if definitely_eq(begin, end) is not True:
            continue
        dec = affine_decompose(begin, params)
        if dec is None or dec[0] is None:
            continue
        p, a, _c = dec
        nonzero = (isinstance(a, Integer) and a.value != 0) or \
            a.is_positive() is True or (-a).is_positive() is True
        if nonzero:
            separated.add(p)
    missing = [p for p in params if p in syms and p not in separated]
    if missing:
        return (UNPROVED, f"no separating dimension for {', '.join(missing)}")
    if undecided_multiplicity:
        unknown = [p for p in params if p not in syms]
        return (UNPROVED, f"iteration multiplicity undecided for "
                          f"{', '.join(unknown)}")
    return (RACE_FREE, "injective in all map parameters")


# ---------------------------------------------------------------------------
# Per-map analysis
# ---------------------------------------------------------------------------

def analyze_map(state: SDFGState, entry: MapEntry,
                sdfg: Optional[SDFG] = None) -> MapRaceVerdict:
    """Race-analyze one map scope of *state*."""
    map_obj = entry.map
    params = tuple(map_obj.params)
    param_dims = {p: map_obj.range.dims[i] for i, p in enumerate(params)}
    exit_node = entry.exit_node

    # Parameters of maps nested inside this scope: memlets mentioning them
    # cannot be analyzed from this scope's viewpoint.
    nested_params: set = set()
    for node in state.scope_subgraph_nodes(entry):
        if isinstance(node, MapEntry) and node is not entry:
            nested_params |= set(node.map.params)

    writes: List[Memlet] = []
    for edge in state.in_edges(exit_node):
        if edge.dst_conn and edge.memlet is not None and edge.memlet.data:
            writes.append(edge.memlet)
    reads: List[Memlet] = []
    for edge in state.out_edges(entry):
        if edge.src_conn and edge.memlet is not None and edge.memlet.data:
            reads.append(edge.memlet)

    conflicts: List[Conflict] = []
    verdict = RACE_FREE

    def record(kind, container, first, second, v, note):
        nonlocal verdict
        if _ORDER[v] > _ORDER[verdict]:
            verdict = v
        if v != RACE_FREE:
            conflicts.append(Conflict(kind, container, str(first), str(second), v, note))

    def foreign(memlet: Memlet) -> bool:
        if memlet.subset is None:
            return False
        return bool({s.name for s in memlet.subset.free_symbols} & nested_params)

    def hull_of(memlet: Memlet) -> Optional[Range]:
        if memlet.subset is None or memlet.dynamic or foreign(memlet):
            return None
        return _hull(memlet.subset, param_dims)

    # --- per-write self analysis (same write vs. itself at other points) ---
    for w in writes:
        if w.wcr is not None:
            continue  # WCR writes commute by construction
        if foreign(w):
            record("self", w.data, w.subset, "(nested scope)", UNPROVED,
                   "subset uses nested-map parameters")
            continue
        v, note = _injective_verdict(w, params, param_dims)
        if v != RACE_FREE:
            record("self", w.data, w.subset, "(self)", v, note)

    # --- pairwise write-write ---------------------------------------------
    for i in range(len(writes)):
        for j in range(i + 1, len(writes)):
            w1, w2 = writes[i], writes[j]
            if w1.data != w2.data:
                continue
            both_wcr = w1.wcr is not None and w2.wcr is not None
            if both_wcr and w1.wcr == w2.wcr:
                continue  # same commutative reduction: safe
            if w1.dynamic or w2.dynamic:
                record("write-write", w1.data, w1.subset, w2.subset, UNPROVED,
                       "dynamic memlet")
                continue
            h1, h2 = hull_of(w1), hull_of(w2)
            if h1 is not None and h2 is not None and h1.intersects(h2) is False:
                continue  # provably disjoint footprints
            kind = "wcr-mix" if (w1.wcr is not None) != (w2.wcr is not None) \
                or (both_wcr and w1.wcr != w2.wcr) else "write-write"
            same = w1.subset is not None and w2.subset is not None and \
                w1.subset == w2.subset
            if same and _nonempty(w1.subset) is True:
                record(kind, w1.data, w1.subset, w2.subset, RACE,
                       "two writers touch the identical subset")
            else:
                record(kind, w1.data, w1.subset, w2.subset, UNPROVED,
                       "possibly overlapping writers")

    # --- read-write --------------------------------------------------------
    for r in reads:
        for w in writes:
            if r.data != w.data:
                continue
            if w.wcr is not None:
                # Reading a container that is concurrently WCR-updated is
                # order-dependent unless the footprints are disjoint.
                hr, hw = hull_of(r), hull_of(w)
                if hr is not None and hw is not None and \
                        hr.intersects(hw) is False:
                    continue
                record("read-write", r.data, r.subset, w.subset, UNPROVED,
                       "read overlaps a WCR-updated container")
                continue
            if r.dynamic or w.dynamic:
                record("read-write", r.data, r.subset, w.subset, UNPROVED,
                       "dynamic memlet")
                continue
            if foreign(r) or foreign(w):
                record("read-write", r.data, r.subset, w.subset, UNPROVED,
                       "subset uses nested-map parameters")
                continue
            if r.subset is not None and w.subset is not None and \
                    r.subset == w.subset:
                continue  # same-point access: sequenced within the iteration
            hr, hw = hull_of(r), hull_of(w)
            if hr is not None and hw is not None and hr.intersects(hw) is False:
                continue
            result, note = _points_shift(w.subset, r.subset, params, param_dims)
            if result == "safe":
                continue
            record("read-write", r.data, r.subset, w.subset,
                   RACE if result == "race" else UNPROVED, note)

    return MapRaceVerdict(
        sdfg=sdfg.name if sdfg is not None else "",
        state=state.label, map_label=map_obj.label, params=params,
        verdict=verdict, conflicts=conflicts)


def check_races(sdfg: SDFG) -> List[MapRaceVerdict]:
    """Analyze every map scope of *sdfg* (including nested SDFGs)."""
    from ..ir.nodes import NestedSDFG

    verdicts: List[MapRaceVerdict] = []
    for state in sdfg.states():
        for node in state.nodes():
            if isinstance(node, MapEntry):
                verdicts.append(analyze_map(state, node, sdfg))
            elif isinstance(node, NestedSDFG):
                verdicts.extend(check_races(node.sdfg))
    return verdicts
