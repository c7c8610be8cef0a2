"""Transformation infrastructure.

All transformations follow the same pattern-matching shape as in the paper:
a transformation *matches* a subgraph (returning match descriptors) and
*applies* by modifying or removing elements of the graph.  Matching is
re-run after every application, because applications invalidate prior
matches; the driver loops until a fixed point.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

__all__ = ["Transformation", "apply_transformation"]


class Transformation:
    """Base class: subclasses implement ``matches`` and ``apply_match``."""

    #: human-readable name (defaults to the class name)
    name: str = ""

    @classmethod
    def matches(cls, sdfg, **options) -> Iterator[Any]:
        """Yield match descriptors (opaque to the driver)."""
        raise NotImplementedError

    @classmethod
    def apply_match(cls, sdfg, match, **options) -> None:
        """Apply the transformation at the given match."""
        raise NotImplementedError

    @classmethod
    def apply_once(cls, sdfg, **options) -> bool:
        """Apply at the first match; returns True if anything changed."""
        for match in cls.matches(sdfg, **options):
            cls.apply_match(sdfg, match, **options)
            sdfg.validate()
            return True
        return False

    @classmethod
    def apply_repeated(cls, sdfg, max_applications: Optional[int] = None,
                       **options) -> int:
        """Apply until no more matches (or the limit is reached)."""
        count = 0
        while max_applications is None or count < max_applications:
            if not cls.apply_once(sdfg, **options):
                break
            count += 1
        return count


def apply_transformation(sdfg, transformation, **options) -> int:
    """Entry point used by ``SDFG.apply``: accepts a Transformation subclass
    (or instance) and applies it repeatedly."""
    if isinstance(transformation, type) and issubclass(transformation, Transformation):
        return transformation.apply_repeated(sdfg, **options)
    if isinstance(transformation, Transformation):
        return type(transformation).apply_repeated(sdfg, **options)
    raise TypeError(f"not a transformation: {transformation!r}")
