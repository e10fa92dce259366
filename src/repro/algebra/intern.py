"""Interning of annotation symbols and provenance monomials.

The set-at-a-time engine (:mod:`repro.engine.hashjoin`) touches the
same few monomials millions of times: every hash-join step multiplies
every monomial of an intermediate annotation by one tuple symbol, and
every union/projection adds polynomials together.  Building
:class:`~repro.semiring.polynomial.Monomial` objects (sorted factor
multisets) for each of those operations would dominate the runtime, so
this module interns both layers:

* every annotation **symbol** becomes a small integer id;
* every **monomial** (a sorted tuple of symbol ids) becomes a small
  integer id, assigned once and reused forever;
* the hot operation — monomial × symbol — is a memoized table lookup,
  and polynomial addition degenerates to merging ``{monomial id:
  coefficient}`` dictionaries keyed by small integers.

Interned annotations are decoded back into canonical
:class:`~repro.semiring.polynomial.Polynomial` values only at result
boundaries, so callers never observe the encoding.

Sharing and lifetime: a table only ever grows, and the engine shares
one process-wide table across evaluations so refresh loops reuse every
memoized product.  Long-lived processes churning through disjoint
symbol spaces are protected by :func:`shared_intern`, which swaps in a
fresh table once the shared one crosses :data:`MAX_SHARED_ENTRIES` —
in-flight evaluations captured their reference at entry and finish on
the old table undisturbed.  Interning itself is thread-safe
(double-checked locking on the slow path; published entries are never
mutated outside :meth:`InternTable.clear`).
"""

from __future__ import annotations

import itertools
import threading
from bisect import insort
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.semiring.polynomial import Monomial, Polynomial

#: Interned annotation: monomial id -> positive coefficient.
InternedPolynomial = Dict[int, int]

#: Process-wide source of :attr:`InternTable.token` values.  A counter
#: (not ``id()``) so a table's token is never reused by a later table —
#: caches keyed on tokens stay sound across garbage collection.
_TOKEN_COUNTER = itertools.count(1)


class InternTable:
    """A grow-only intern table for symbols and monomials.

    >>> table = InternTable()
    >>> s1, s2 = table.symbol_id("s1"), table.symbol_id("s2")
    >>> m = table.times_symbol(table.one, s1)
    >>> m = table.times_symbol(m, s2)
    >>> str(table.monomial(m))
    's1*s2'
    >>> table.symbol_id("s1") == s1  # interning is idempotent
    True
    """

    __slots__ = (
        "_lock",
        "_symbol_ids",
        "_symbols",
        "_monomial_ids",
        "_monomial_keys",
        "_products",
        "_decoded",
        "_token",
        "one",
    )

    def __init__(self):  # noqa: D107
        # Guards first-time interning (check-then-act); lookups of
        # already-published entries stay lock-free — entries are
        # immutable once visible in the id dictionaries.
        self._lock = threading.Lock()
        self._token = next(_TOKEN_COUNTER)
        self._symbol_ids: Dict[str, int] = {}
        self._symbols: List[str] = []
        self._monomial_ids: Dict[Tuple[int, ...], int] = {}
        self._monomial_keys: List[Tuple[int, ...]] = []
        self._products: Dict[Tuple[int, int], int] = {}
        self._decoded: Dict[int, Monomial] = {}
        #: Id of the empty monomial (the multiplicative unit).
        self.one = self._intern(())

    # ------------------------------------------------------------------
    # Symbols
    # ------------------------------------------------------------------
    def symbol_id(self, symbol: str) -> int:
        """The id of ``symbol``, assigning a fresh one on first use."""
        existing = self._symbol_ids.get(symbol)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._symbol_ids.get(symbol)
            if existing is not None:
                return existing
            fresh = len(self._symbols)
            self._symbols.append(symbol)
            self._symbol_ids[symbol] = fresh  # publish after the append
            return fresh

    def symbol(self, symbol_id: int) -> str:
        """The symbol string of an id."""
        return self._symbols[symbol_id]

    # ------------------------------------------------------------------
    # Monomials
    # ------------------------------------------------------------------
    def _intern(self, key: Tuple[int, ...]) -> int:
        existing = self._monomial_ids.get(key)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._monomial_ids.get(key)
            if existing is not None:
                return existing
            fresh = len(self._monomial_keys)
            self._monomial_keys.append(key)
            self._monomial_ids[key] = fresh  # publish after the append
            return fresh

    def monomial_id(self, symbols: Iterable[str]) -> int:
        """Intern the monomial with the given symbol factors."""
        return self._intern(tuple(sorted(self.symbol_id(s) for s in symbols)))

    def times_symbol(self, monomial_id: int, symbol_id: int) -> int:
        """The id of ``monomial * symbol`` — the engine's hot operation.

        Memoized: after the first join over a database, every
        multiplication performed by a refresh loop is one dict lookup.
        """
        cached = self._products.get((monomial_id, symbol_id))
        if cached is not None:
            return cached
        factors = list(self._monomial_keys[monomial_id])
        insort(factors, symbol_id)
        product = self._intern(tuple(factors))
        # Unsynchronized publish is benign: racing writers computed the
        # same interned id for the same key.
        self._products[(monomial_id, symbol_id)] = product
        return product

    def monomial(self, monomial_id: int) -> Monomial:
        """Decode an id back into a canonical :class:`Monomial`."""
        cached = self._decoded.get(monomial_id)
        if cached is not None:
            return cached
        decoded = Monomial(
            self._symbols[s] for s in self._monomial_keys[monomial_id]
        )
        # Racing writers built equal Monomials; last write wins safely.
        self._decoded[monomial_id] = decoded
        return decoded

    @property
    def token(self) -> int:
        """A process-unique id of this table, never reused.

        Caches keyed on the *identity* of an intern table (join-step
        indexes storing interned symbol ids, cross-table remap arrays)
        key on this instead of ``id()``, which the allocator recycles.
        """
        return self._token

    def polynomial(self, terms: Mapping[int, int]) -> Polynomial:
        """Decode ``{monomial id: coefficient}`` into a polynomial.

        Ids decode to distinct monomials and engine coefficients are
        positive, so the term dictionary is adopted through the trusted
        constructor — decoding a 10k-join result this way is ~10x
        cheaper than re-validating every term.
        """
        monomial = self.monomial
        return Polynomial._from_clean(
            {
                monomial(mid): coefficient
                for mid, coefficient in terms.items()
                if coefficient > 0
            }
        )

    # ------------------------------------------------------------------
    # Cross-table merging (shard-local tables into a shared one)
    # ------------------------------------------------------------------
    def export_state(self) -> Tuple[List[str], List[Tuple[int, ...]]]:
        """A picklable ``(symbols, monomial keys)`` snapshot of this table.

        Durability snapshots store it, and recovery re-interns it into
        a serving table through :class:`InternRemapper`.  Taken under
        the lock so the keys are consistent with every id handed out so
        far.
        """
        with self._lock:
            return list(self._symbols), list(self._monomial_keys)

    def export_range(
        self, symbol_start: int, monomial_start: int
    ) -> Tuple[List[str], List[Tuple[int, ...]]]:
        """The symbols and monomial keys interned since a watermark.

        Long-lived workers keep a table across evaluations and ship only
        the delta each time; the parent accumulates deltas into a full
        replica (keys reference symbol ids below the snapshot length, so
        contiguous deltas always splice cleanly).  Taken under the lock
        for the same consistency :meth:`export_state` guarantees.
        """
        with self._lock:
            return (
                self._symbols[symbol_start:],
                self._monomial_keys[monomial_start:],
            )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def sizes(self) -> Dict[str, int]:
        """Current table sizes (for inspection and tests)."""
        return {
            "symbols": len(self._symbols),
            "monomials": len(self._monomial_keys),
            "products": len(self._products),
        }

    def entry_count(self) -> int:
        """Total growth-relevant entries (monomials + memoized products)."""
        return len(self._monomial_keys) + len(self._products)

    def clear(self) -> None:
        """Forget everything (ids are reassigned from scratch).

        Must not run concurrently with an evaluation still holding ids
        from this table; prefer :func:`shared_intern`'s swap-on-growth
        for long-lived processes.
        """
        with self._lock:
            self._symbol_ids.clear()
            del self._symbols[:]
            self._monomial_ids.clear()
            del self._monomial_keys[:]
            self._products.clear()
            self._decoded.clear()
        self.one = self._intern(())

    def __repr__(self) -> str:
        sizes = self.sizes()
        return "<InternTable {symbols} symbols, {monomials} monomials>".format(
            **sizes
        )


class InternRemapper:
    """Incrementally maps one foreign table's monomial ids into a target.

    The sharded engine keeps one remapper per (worker table,
    target table) pair: as the worker's accumulated export log grows,
    :meth:`extend` appends the new entries, so the dense ``local id ->
    target id`` array is built once per monomial, not once per
    evaluation.  :meth:`mapping` hands the whole array to vectorized
    remap kernels (:meth:`repro.algebra.columnar.ColumnarTable.remap`).

    >>> local, shared = InternTable(), InternTable()
    >>> m = local.times_symbol(local.one, local.symbol_id("z"))
    >>> remapper = InternRemapper(shared)
    >>> remapper.extend(*local.export_state())
    >>> str(shared.monomial(remapper.mapping()[m]))
    'z'
    """

    __slots__ = ("_target", "_symbol_ids", "_mid_map")

    def __init__(self, target: InternTable):  # noqa: D107
        self._target = target
        self._symbol_ids: List[int] = []
        self._mid_map: List[int] = []

    @property
    def mapped_symbols(self) -> int:
        """How many foreign symbols have been mapped so far."""
        return len(self._symbol_ids)

    @property
    def mapped_monomials(self) -> int:
        """How many foreign monomial ids have been mapped so far."""
        return len(self._mid_map)

    def extend(
        self,
        symbols: Sequence[str],
        monomial_keys: Sequence[Tuple[int, ...]],
    ) -> None:
        """Map the next contiguous slice of the foreign table's entries.

        ``symbols``/``monomial_keys`` continue where the previous call
        stopped — exactly what :meth:`InternTable.export_range` returns
        for the watermark this remapper has reached.
        """
        target = self._target
        symbol_ids = self._symbol_ids
        for symbol in symbols:
            symbol_ids.append(target.symbol_id(symbol))
        intern = target._intern
        mid_map = self._mid_map
        for key in monomial_keys:
            mid_map.append(intern(tuple(sorted(symbol_ids[s] for s in key))))

    def mapping(self) -> List[int]:
        """The dense ``foreign monomial id -> target id`` array (live)."""
        return self._mid_map


#: The process-wide table shared by default across engine invocations,
#: so repeated evaluations (e.g. an incremental refresh loop) reuse all
#: previously interned monomials and memoized products.  Access it via
#: :func:`shared_intern`, which bounds its lifetime growth.
GLOBAL_INTERN = InternTable()

#: Soft bound on the shared table: once monomials + memoized products
#: exceed this, :func:`shared_intern` starts a fresh table instead of
#: letting a long-lived process accumulate state forever.  Roughly two
#: hundred MB at the default — far past any single evaluation, cheap to
#: rebuild for the workloads that follow.
MAX_SHARED_ENTRIES = 2_000_000


def shared_intern() -> InternTable:
    """The shared intern table, replaced with a fresh one when oversized.

    Callers capture the returned reference once per evaluation, so the
    swap is thread-safe: an in-flight evaluation keeps (and keeps
    alive) the table it started with, while later evaluations intern
    into the replacement and the old table is garbage-collected.
    """
    global GLOBAL_INTERN
    table = GLOBAL_INTERN
    if table.entry_count() > MAX_SHARED_ENTRIES:
        table = InternTable()
        GLOBAL_INTERN = table
    return table
