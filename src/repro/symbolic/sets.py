"""Symbolic integer range sets (memlet subsets and map ranges).

A :class:`Range` is an N-dimensional box of integer points, stored per
dimension as an inclusive ``(begin, end, step)`` triple of symbolic
expressions — the same convention DaCe uses for memlet subsets.  The set
operations needed by the dataflow transformations are provided with
*three-valued* results: ``True`` / ``False`` when the symbolic engine can
decide, ``None`` when it cannot (transformations must then be conservative).
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .expr import (
    Expr,
    Integer,
    Max,
    Min,
    definitely_eq,
    definitely_le,
    definitely_lt,
    sympify,
)

DimTriple = Tuple[Expr, Expr, Expr]

__all__ = ["Range"]


class Range:
    """An N-dimensional symbolic box with inclusive bounds and strides."""

    __slots__ = ("dims", "_text")

    def __init__(self, dims: Iterable[Union[DimTriple, Tuple]]):
        normalized: List[DimTriple] = []
        for dim in dims:
            if len(dim) == 2:
                begin, end = dim
                step = 1
            elif len(dim) == 3:
                begin, end, step = dim
            else:
                raise ValueError(f"range dimension must be 2- or 3-tuple, got {dim!r}")
            normalized.append((sympify(begin), sympify(end), sympify(step)))
        object.__setattr__(self, "dims", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("Range is immutable")

    def __copy__(self) -> "Range":
        return self

    def __deepcopy__(self, memo) -> "Range":
        return self

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_shape(cls, shape: Sequence) -> "Range":
        """Full range covering an array of the given shape."""
        return cls([(0, sympify(s) - 1, 1) for s in shape])

    @classmethod
    def from_indices(cls, indices: Sequence) -> "Range":
        """Degenerate range for a single point access ``A[i, j]``."""
        return cls([(i, i, 1) for i in indices])

    @classmethod
    def from_string(cls, text: str, symbols: Optional[Mapping[str, Expr]] = None) -> "Range":
        """Parse ``"0:N, i, 2:M:2"`` style subsets (used in tests/serialization)."""
        import ast as _ast

        symbols = dict(symbols or {})

        def parse_expr(snippet: str) -> Expr:
            tree = _ast.parse(snippet.strip(), mode="eval").body
            return _eval_ast(tree, symbols)

        dims: List[DimTriple] = []
        for dim_text in _split_top_level(text):
            pieces = dim_text.split(":")
            if len(pieces) == 1:
                point = parse_expr(pieces[0])
                dims.append((point, point, Integer(1)))
            elif len(pieces) == 2:
                begin = parse_expr(pieces[0])
                end = parse_expr(pieces[1]) - 1
                dims.append((begin, end, Integer(1)))
            elif len(pieces) == 3:
                begin = parse_expr(pieces[0])
                end = parse_expr(pieces[1]) - 1
                step = parse_expr(pieces[2])
                dims.append((begin, end, step))
            else:
                raise ValueError(f"cannot parse range dimension {dim_text!r}")
        return cls(dims)

    # -- basic queries -----------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.dims)

    def size(self) -> Tuple[Expr, ...]:
        """Number of points per dimension: (end - begin) // step + 1."""
        out = []
        for begin, end, step in self.dims:
            extent = end - begin
            if step == Integer(1):
                out.append(extent + 1)
            else:
                out.append(extent // step + 1)
        return tuple(out)

    def volume(self) -> Expr:
        total: Expr = Integer(1)
        for s in self.size():
            total = total * s
        return total

    def num_elements(self, env: Optional[Mapping[str, int]] = None) -> int:
        return self.volume().evaluate(env)

    @property
    def free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for begin, end, step in self.dims:
            out |= begin.free_symbols | end.free_symbols | step.free_symbols
        return out

    def is_point(self) -> Optional[bool]:
        """True when every dimension has a single element."""
        results = [definitely_eq(b, e) for b, e, _ in self.dims]
        if all(r is True for r in results):
            return True
        if any(r is False for r in results):
            return False
        return None

    # -- set operations ----------------------------------------------------
    def covers(self, other: "Range") -> Optional[bool]:
        """Three-valued: does self contain every point of other?

        Sound for unit strides; with non-unit strides the answer is only
        ``True`` when the triples are structurally identical.
        """
        if self.ndim != other.ndim:
            return None
        verdict: Optional[bool] = True
        for (b1, e1, s1), (b2, e2, s2) in zip(self.dims, other.dims):
            if (b1, e1, s1) == (b2, e2, s2):
                continue
            if not (s1 == Integer(1) and s2 == Integer(1)):
                return None
            low = definitely_le(b1, b2)
            high = definitely_le(e2, e1)
            if low is True and high is True:
                continue
            if low is False or high is False:
                # other definitely starts before self or ends after it
                return False
            verdict = None
        return verdict

    def intersects(self, other: "Range") -> Optional[bool]:
        """Three-valued: do the boxes share at least one point (ignoring
        stride phase, i.e. an over-approximation suitable for dependency
        checks)?"""
        if self.ndim != other.ndim:
            return None
        verdict: Optional[bool] = True
        for (b1, e1, _), (b2, e2, _) in zip(self.dims, other.dims):
            # Disjoint along this dim <=> e1 < b2 or e2 < b1
            lt1 = definitely_lt(e1, b2)
            lt2 = definitely_lt(e2, b1)
            if lt1 is True or lt2 is True:
                return False
            if lt1 is None or lt2 is None:
                verdict = None
        return verdict

    def intersection(self, other: "Range") -> Optional["Range"]:
        """Symbolic box intersection; None when provably empty."""
        if self.ndim != other.ndim:
            raise ValueError("dimension mismatch in Range.intersection")
        if self.intersects(other) is False:
            return None
        dims = []
        for (b1, e1, s1), (b2, e2, s2) in zip(self.dims, other.dims):
            step = s1 if definitely_le(s2, s1) is True else s2
            dims.append((Max.make(b1, b2), Min.make(e1, e2), step))
        return Range(dims)

    def union_hull(self, other: "Range") -> "Range":
        """Smallest box containing both (used for memlet propagation)."""
        if self.ndim != other.ndim:
            raise ValueError("dimension mismatch in Range.union_hull")
        dims = []
        for (b1, e1, s1), (b2, e2, s2) in zip(self.dims, other.dims):
            step = s1 if s1 == s2 else Integer(1)
            dims.append((Min.make(b1, b2), Max.make(e1, e2), step))
        return Range(dims)

    # -- transformations ---------------------------------------------------
    def offset_by(self, origin: Sequence, negative: bool = True) -> "Range":
        """Shift by -origin (default) or +origin per dimension."""
        if len(origin) != self.ndim:
            raise ValueError("origin length mismatch in Range.offset_by")
        dims = []
        for (begin, end, step), off in zip(self.dims, origin):
            off = sympify(off)
            if negative:
                dims.append((begin - off, end - off, step))
            else:
                dims.append((begin + off, end + off, step))
        return Range(dims)

    def compose(self, inner: "Range") -> "Range":
        """Subset-of-subset: coordinates of *inner* are relative to self.

        Unit-stride outer dimensions compose exactly; a strided outer
        dimension composes by scaling the inner offsets.
        """
        if inner.ndim != self.ndim:
            raise ValueError("dimension mismatch in Range.compose")
        dims = []
        for (ob, _oe, os_), (ib, ie, is_) in zip(self.dims, inner.dims):
            dims.append((ob + ib * os_, ob + ie * os_, is_ * os_))
        return Range(dims)

    def subs(self, env) -> "Range":
        return Range([(b.subs(env), e.subs(env), s.subs(env)) for b, e, s in self.dims])

    def to_slices(self, env: Optional[Mapping[str, int]] = None) -> Tuple[slice, ...]:
        """Concrete NumPy slices for this subset (requires all symbols bound).

        Bounds are inclusive domain coordinates: an end before the begin
        (``0:i`` at ``i == 0`` stores end ``-1``) is an *empty* range, and
        the exclusive stop must not cross zero into NumPy's from-the-end
        territory — ascending ``e+1`` for ``e <= -2`` and descending
        ``e-1`` for ``e == 0`` would both silently select wrong elements.
        """
        out = []
        for begin, end, step in self.dims:
            b = begin.evaluate(env)
            e = end.evaluate(env)
            s = step.evaluate(env)
            if s > 0:
                out.append(slice(b, e + 1, s) if e >= b else slice(0, 0, 1))
            elif e > b:
                out.append(slice(0, 0, 1))
            else:
                out.append(slice(b, None if e == 0 else e - 1, s))
        return tuple(out)

    # -- protocol ------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Range):
            return NotImplemented
        return self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __len__(self) -> int:
        return self.ndim

    def __getitem__(self, index: int) -> DimTriple:
        return self.dims[index]

    def __str__(self) -> str:
        # rendered once: a range is immutable and shared by graph clones, and
        # each serialization (cache key, snapshot) prints every one again
        if not hasattr(self, "_text"):
            object.__setattr__(self, "_text", ", ".join(
                str(begin) if definitely_eq(begin, end) is True
                else f"{begin}:{end + 1}" if step == Integer(1)
                else f"{begin}:{end + 1}:{step}"
                for begin, end, step in self.dims))
        return self._text

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Range[{self}]"


def _split_top_level(text: str) -> List[str]:
    """Split on commas not nested in parentheses/brackets."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return [p for p in (part.strip() for part in parts) if p]


def _eval_ast(node, symbols: Mapping[str, Expr]) -> Expr:
    import ast as _ast

    if isinstance(node, _ast.Constant):
        return sympify(node.value)
    if isinstance(node, _ast.Name):
        from .expr import Symbol

        if node.id in symbols:
            return symbols[node.id]
        return Symbol(node.id)
    if isinstance(node, _ast.BinOp):
        left = _eval_ast(node.left, symbols)
        right = _eval_ast(node.right, symbols)
        if isinstance(node.op, _ast.Add):
            return left + right
        if isinstance(node.op, _ast.Sub):
            return left - right
        if isinstance(node.op, _ast.Mult):
            return left * right
        if isinstance(node.op, _ast.FloorDiv):
            return left // right
        if isinstance(node.op, _ast.Mod):
            return left % right
        raise ValueError(f"unsupported operator in range expression: {node.op}")
    if isinstance(node, _ast.UnaryOp) and isinstance(node.op, _ast.USub):
        return -_eval_ast(node.operand, symbols)
    raise ValueError(f"unsupported syntax in range expression: {_ast.dump(node)}")
