"""Standard (join-count) minimization — the paper's baseline.

"Standard" minimization seeks an equivalent query with the fewest
relational atoms (Chandra-Merlin for CQ; Sagiv-Yannakakis for unions;
Klug for disequalities).  The paper contrasts it with provenance
minimization throughout Table 1:

* in **CQ**, the standard minimal query is also p-minimal *within CQ*
  (Thm. 3.9), but an equivalent UCQ≠ may still be strictly terser
  (Thm. 3.11);
* in **cCQ≠**, standard minimization = duplicate-atom removal =
  p-minimization, in PTIME (Thm. 3.12, Lemma 3.13);
* in **CQ≠**, a standard minimal equivalent always exists but a
  p-minimal one may not (Thm. 3.5).
"""

from __future__ import annotations

from typing import Callable, List, TypeVar

from repro.errors import UnsupportedQueryError
from repro.hom.containment import is_equivalent
from repro.hom.homomorphism import has_homomorphism
from repro.query.cq import ConjunctiveQuery
from repro.query.ucq import Query, UnionQuery, adjuncts_of

T = TypeVar("T")


def minimize_cq(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Chandra-Merlin minimization of a disequality-free CQ.

    Repeatedly removes an atom whenever the query maps homomorphically
    into the remainder (which proves equivalence); the fixpoint is the
    *core*, the unique minimal equivalent up to isomorphism.

    >>> from repro.query.parser import parse_query
    >>> q = parse_query("ans(x) :- R(x, y), R(x, z)")
    >>> minimize_cq(q).size()
    1
    """
    if query.has_disequalities():
        raise UnsupportedQueryError(
            "Chandra-Merlin minimization requires a disequality-free CQ; "
            "use minimize_cq_diseq or minimize_complete"
        )
    current = query
    changed = True
    while changed:
        changed = False
        for index in range(len(current.atoms)):
            candidate = _removal_candidate(current, index)
            if candidate is None:
                continue
            # candidate ⊇ current always holds (fewer atoms); a
            # homomorphism current -> candidate proves candidate ⊆ current.
            if has_homomorphism(current, candidate):
                current = candidate
                changed = True
                break
    return current


def _removal_candidate(query: ConjunctiveQuery, index: int):
    """``query`` without its ``index``-th atom, or ``None`` when the
    removal is ill-formed (empty body, or a head variable losing its
    last body occurrence — such removals can never preserve
    equivalence)."""
    from repro.errors import QueryConstructionError

    if len(query.atoms) == 1:
        return None
    try:
        return query.without_atom(index)
    except QueryConstructionError:
        return None


def minimize_complete(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Minimize a complete query by duplicate-atom removal (Lemma 3.13).

    For cCQ≠ this is simultaneously standard minimization and
    p-minimization, and runs in PTIME (Thm. 3.12).
    """
    if not query.is_complete():
        raise UnsupportedQueryError(
            "duplicate-removal minimization requires a complete query "
            "(Def. 2.2); use minimize_cq or minimize_cq_diseq"
        )
    return query.deduplicate_atoms()


def minimize_cq_diseq(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Standard minimization of a CQ≠ by atom deletion.

    Tries to delete atoms while preserving equivalence, using the
    complete (exponential) containment test of
    :mod:`repro.hom.containment`.  Disequalities whose variables lose
    their last occurrence are dropped with the atom.  Following Klug,
    a minimal equivalent of a CQ≠ exists in CQ≠; note (Lemma 3.8) it
    need not be unique up to isomorphism.
    """
    if not query.has_disequalities():
        return minimize_cq(query)
    if query.is_complete():
        return query.deduplicate_atoms()
    current = query
    changed = True
    while changed:
        changed = False
        for index in range(len(current.atoms)):
            candidate = _removal_candidate(current, index)
            if candidate is None:
                continue
            if is_equivalent(candidate, current):
                current = candidate
                changed = True
                break
    return current


def minimize_adjunct(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """Dispatch to the right single-query minimizer."""
    if not query.has_disequalities():
        return minimize_cq(query)
    if query.is_complete():
        return query.deduplicate_atoms()
    return minimize_cq_diseq(query)


def minimize_ucq(
    query: Query,
    adjunct_minimizer: Callable[[ConjunctiveQuery], ConjunctiveQuery] = minimize_adjunct,
) -> UnionQuery:
    """Standard minimization of a union (Sagiv-Yannakakis style).

    Each adjunct is minimized, then adjuncts contained in a surviving
    adjunct are removed.  Mutually contained (equivalent) adjuncts keep
    a single representative.
    """
    adjuncts = [adjunct_minimizer(adjunct) for adjunct in adjuncts_of(query)]
    return UnionQuery(remove_contained_adjuncts(adjuncts))


def remove_contained_adjuncts(
    adjuncts: List[T],
    contained: Callable[[T, T], bool] = None,
) -> List[T]:
    """Drop every adjunct contained in another surviving adjunct.

    ``contained(a, b)`` decides ``a ⊆ b`` (defaults to the general
    containment test).  When two adjuncts contain each other, the one
    encountered first survives — exactly the survivor semantics step III
    of MinProv needs.  With a custom ``contained`` the items may be any
    values standing for adjuncts (MinProv passes each adjunct with its
    embedding invariants).
    """
    if contained is None:
        from repro.hom.containment import is_contained

        contained = is_contained
    removed = [False] * len(adjuncts)
    for i, keeper in enumerate(adjuncts):
        if removed[i]:
            continue
        for j, other in enumerate(adjuncts):
            if i == j or removed[j]:
                continue
            if contained(other, keeper):
                removed[j] = True
    return [adjunct for adjunct, gone in zip(adjuncts, removed) if not gone]


def minimize_query(query: Query) -> Query:
    """Standard minimization of any supported query.

    Returns a CQ for CQ input and a union for union input.
    """
    if isinstance(query, ConjunctiveQuery):
        return minimize_adjunct(query)
    return minimize_ucq(query)
