"""Cardinality-banded plan caching and greedy join ordering.

Join-order quality depends on the query and on *rough* relation sizes:
a plan chosen for ``|R| = 900`` is still the right plan at
``|R| = 1000``, but probably not at ``|R| = 3``.  Plans are therefore
keyed by the query together with a **cardinality profile** — each
relation's size collapsed to its power-of-two band — so that

* repeated evaluation of the same query (the incremental-maintenance
  refresh loop, a benchmark's inner loop) hits the cache, while
* growth or shrinkage past a band boundary invalidates exactly the
  plans whose ordering decisions it could change.

An atom with a constant is costed by its *selected* cardinality — the
number of rows matching its constants, read off the database's
maintained index — and the profile carries that figure's band too, so
``R('a', y)`` is planned as the one row it selects, not as all of ``R``.

The greedy ordering heuristic lives here too, used by the hash-join
compiler (:mod:`repro.engine.hashjoin`): prefer atoms with more
already-bound variables, break ties by smaller (selected) cardinality,
then by fewer newly-bound variables.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.query.atoms import Atom
from repro.query.terms import Variable

#: A cache key: the query plus its cardinality profile.
PlanKey = Tuple[Hashable, Tuple[Tuple, ...]]


def cardinality_band(cardinality: int) -> int:
    """The power-of-two band of a relation size (0 / 1 / 2-3 / 4-7 -> 0..3).

    >>> [cardinality_band(n) for n in (0, 1, 2, 3, 4, 8, 1000)]
    [0, 1, 2, 2, 3, 4, 10]
    """
    return cardinality.bit_length()


def cardinality_profile(
    relations: Mapping[str, Tuple[Optional[int], int]],
    selected: Optional[Mapping[int, int]] = None,
) -> Tuple[Tuple, ...]:
    """A hashable profile for cache keying: one ``(relation, arity,
    band)`` triple per relation, then one ``(atom index, band)`` pair
    per atom costed by its selected cardinality.

    ``relations`` maps each relation to ``(arity or None, cardinality)``;
    the arity participates in the key because a plan compiled against a
    mismatched arity degenerates to the empty plan.  ``selected`` maps
    atom indexes to the number of rows their constants select.

    >>> cardinality_profile({"R": (2, 1000)}, {0: 3})
    (('R', 2, 10), (0, 2))
    """
    profile: Tuple[Tuple, ...] = tuple(
        (relation, -1 if arity is None else arity, cardinality_band(cardinality))
        for relation, (arity, cardinality) in sorted(relations.items())
    )
    if selected:
        profile += tuple(
            (index, cardinality_band(count))
            for index, count in sorted(selected.items())
        )
    return profile


def greedy_order(
    atoms: Sequence[Atom],
    cardinalities: Mapping[str, int],
    selected: Optional[Mapping[int, int]] = None,
) -> List[int]:
    """Greedy join order over atom indices.

    Repeatedly pick the atom maximizing the number of variables already
    bound by chosen atoms; ties go to the smaller relation, then to the
    atom binding fewer new variables (a selectivity proxy), then to
    presentation order for determinism.  ``selected`` overrides the size
    of individual atoms (by index) with the rows their constants select.

    >>> from repro.query.build import atom
    >>> greedy_order([atom("Big", "x", "y"), atom("Small", "x")],
    ...              {"Big": 100, "Small": 1})
    [1, 0]
    >>> greedy_order([atom("Big", "x", "y"), atom("Small", "x")],
    ...              {"Big": 100, "Small": 1}, {0: 0})
    [0, 1]
    """
    selected = {} if selected is None else selected
    remaining = list(range(len(atoms)))
    bound: Set[Variable] = set()
    order: List[int] = []
    while remaining:
        def badness(index: int):
            atom_vars = set(atoms[index].variables())
            size = selected.get(index)
            return (
                -len(atom_vars & bound),
                cardinalities.get(atoms[index].relation, 0)
                if size is None
                else size,
                len(atom_vars - bound),
                index,
            )

        best = min(remaining, key=badness)
        remaining.remove(best)
        order.append(best)
        bound.update(atoms[best].variables())
    return order


class PlanCache:
    """An LRU cache of compiled plans keyed by (query, profile).

    Thread-safe: the engine's process-wide default cache is shared by
    concurrent evaluations, and an unsynchronized LRU bump could race
    a concurrent eviction.

    >>> cache = PlanCache(capacity=2)
    >>> cache.store(("q1", ()), "plan-1")
    >>> cache.lookup(("q1", ()))
    'plan-1'
    >>> cache.stats()["hits"]
    1
    """

    def __init__(self, capacity: int = 512):  # noqa: D107
        if capacity < 1:
            raise ValueError("plan cache capacity must be positive")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._plans: "OrderedDict[PlanKey, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def lookup(self, key: PlanKey):
        """The cached plan for ``key``, or ``None`` (counts a miss)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self._misses += 1
                return None
            self._plans.move_to_end(key)
            self._hits += 1
            return plan

    def store(self, key: PlanKey, plan) -> None:
        """Cache ``plan``, evicting the least recently used on overflow."""
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self._capacity:
                self._plans.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._plans),
                "capacity": self._capacity,
            }

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        with self._lock:
            self._plans.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:
        return "<PlanCache {size}/{capacity}, {hits} hits, {misses} misses>".format(
            **self.stats()
        )
