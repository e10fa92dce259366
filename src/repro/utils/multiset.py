"""An immutable, hashable multiset.

Provenance monomials (Sec. 2.3 of the paper) are multisets of annotation
symbols: ``s1 * s1 * s2`` is the multiset ``{s1: 2, s2: 1}``.  The order
relation on monomials (Def. 2.15) is exactly multiset inclusion, so the
core container used throughout the library is this frozen multiset.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, Tuple, TypeVar

T = TypeVar("T")


class FrozenMultiset:
    """An immutable multiset over hashable, orderable elements.

    Elements are kept internally as a sorted tuple, which makes equal
    multisets structurally identical and therefore hashable and directly
    comparable.

    >>> m = FrozenMultiset(["s1", "s2", "s1"])
    >>> m.count("s1")
    2
    >>> m <= FrozenMultiset(["s1", "s1", "s2", "s3"])
    True
    """

    __slots__ = ("_items", "_counts", "_hash")

    def __init__(self, items: Iterable[T] = ()):  # noqa: D107
        self._items: Tuple[T, ...] = tuple(sorted(items, key=_sort_key))
        self._counts: Dict[T, int] = dict(Counter(self._items))
        self._hash = hash(self._items)

    @classmethod
    def from_counts(cls, counts: Dict[T, int]) -> "FrozenMultiset":
        """Build from ``{element: multiplicity}`` without re-counting.

        The snapshot/WAL decode path rebuilds hundreds of thousands of
        monomials whose serialized form already *is* a count mapping;
        going through ``__init__`` would re-sort the expanded element
        list and re-run :class:`collections.Counter` over it.  All
        multiplicities must be positive.

        >>> FrozenMultiset.from_counts({"s2": 1, "s1": 2}) == \
            FrozenMultiset(["s1", "s2", "s1"])
        True
        """
        items: list = []
        for item in sorted(counts, key=_sort_key):
            multiplicity = counts[item]
            if multiplicity < 1:
                raise ValueError(
                    "multiplicities must be positive, got {!r}: {!r}".format(
                        item, multiplicity
                    )
                )
            items.extend([item] * multiplicity)
        multiset = cls.__new__(cls)
        multiset._items = tuple(items)
        multiset._counts = dict(counts)
        multiset._hash = hash(multiset._items)
        return multiset

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: T) -> bool:
        return item in self._counts

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt from the items, never from the slots: the cached hash
        # is only good in the process that took it (str hashes are
        # randomized per process), and a multiset unpickled with a
        # foreign one would equal nothing it is looked up against.
        return type(self), (self._items,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrozenMultiset):
            return NotImplemented
        return self._items == other._items

    def __repr__(self) -> str:
        return "FrozenMultiset({!r})".format(list(self._items))

    # ------------------------------------------------------------------
    # Multiset queries
    # ------------------------------------------------------------------
    def count(self, item: T) -> int:
        """Multiplicity of ``item`` (0 when absent)."""
        return self._counts.get(item, 0)

    @property
    def counts(self) -> Dict[T, int]:
        """A fresh ``{element: multiplicity}`` dictionary."""
        return dict(self._counts)

    @property
    def items(self) -> Tuple[T, ...]:
        """All elements with repetition, in sorted order."""
        return self._items

    def support(self) -> "FrozenMultiset":
        """The underlying *set*: each element exactly once.

        This implements the "remove all the multiple occurrences of the
        same variable in each monomial" step of Corollary 5.6.
        """
        return FrozenMultiset(self._counts.keys())

    def distinct(self) -> Tuple[T, ...]:
        """The distinct elements, sorted."""
        return tuple(sorted(self._counts.keys(), key=_sort_key))

    # ------------------------------------------------------------------
    # Multiset order (Def. 2.15 on monomials) and algebra
    # ------------------------------------------------------------------
    def __le__(self, other: "FrozenMultiset") -> bool:
        """Multiset inclusion: every multiplicity in ``self`` is covered.

        This is Def. 2.15 for monomials: an injective mapping of the
        factors of ``self`` to equal factors of ``other`` exists if and
        only if the multiset of ``self`` is included in that of ``other``.
        """
        if len(self) > len(other):
            return False
        other_counts = other._counts
        for item, n in self._counts.items():
            if other_counts.get(item, 0) < n:
                return False
        return True

    def __lt__(self, other: "FrozenMultiset") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "FrozenMultiset") -> bool:
        return other <= self

    def __gt__(self, other: "FrozenMultiset") -> bool:
        return other < self

    def __add__(self, other: "FrozenMultiset") -> "FrozenMultiset":
        """Multiset sum (used for monomial multiplication)."""
        if not isinstance(other, FrozenMultiset):
            return NotImplemented
        return FrozenMultiset(self._items + other._items)

    def union(self, other: "FrozenMultiset") -> "FrozenMultiset":
        """Multiset union: per-element maximum of multiplicities."""
        merged = Counter(self._counts)
        for item, n in other._counts.items():
            merged[item] = max(merged[item], n)
        return FrozenMultiset(Counter(dict(merged)).elements())


def _sort_key(item):
    """Stable sort key that tolerates heterogeneous element types."""
    return (type(item).__name__, repr(item))
