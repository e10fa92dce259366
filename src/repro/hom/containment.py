"""Query containment and equivalence (Def. 2.8).

Decision procedures, by class:

* **CQ ⊆ CQ** (no disequalities): the Chandra-Merlin homomorphism
  theorem — ``Q ⊆ Q'`` iff a homomorphism ``Q' -> Q`` exists
  (Thm. 3.1); for unions, containment holds iff every adjunct of the
  left query is contained in some adjunct of the right one
  (Sagiv-Yannakakis).
* **cCQ≠ ⊆ CQ≠** (complete left side): the same homomorphism criterion
  (Thm. 3.1, after Karvounarakis-Tannen), extended to union targets by
  Lemma 4.9.
* **general CQ≠/UCQ≠**: homomorphisms are *not* complete for
  containment (Example 3.2).  We rewrite the left-hand side into its
  possible completions w.r.t. all constants of both queries
  (Def. 4.1) — each completion is complete, so the previous criterion
  applies.  This is sound and complete, at an exponential price that
  Thm. 4.10 shows unavoidable.  A right adjunct that is itself complete
  w.r.t. those constants can only embed injectively, so its
  :func:`~repro.hom.homomorphism.may_embed` invariants skip most
  searches that would fail.

A canonical-database procedure for disequality-free queries is included
as an independent oracle for differential testing.
"""

from __future__ import annotations

from typing import List

from repro.hom.homomorphism import embedding_invariants, has_homomorphism, may_embed
from repro.query.cq import ConjunctiveQuery
from repro.query.terms import is_variable
from repro.query.ucq import Query, adjuncts_of


def is_contained(q1: Query, q2: Query) -> bool:
    """Decide ``q1 ⊆ q2`` for CQ≠/UCQ≠ queries.

    >>> from repro.query.parser import parse_query
    >>> q = parse_query("ans() :- R(x, y), R(y, z), x != z")
    >>> qp = parse_query("ans() :- R(x, y), x != y")
    >>> is_contained(q, qp)          # Example 3.2: containment holds...
    True
    >>> from repro.hom.homomorphism import has_homomorphism
    >>> has_homomorphism(qp, q)      # ...but no homomorphism witnesses it
    False
    """
    left = adjuncts_of(q1)
    right = adjuncts_of(q2)
    if left[0].arity != right[0].arity:
        return False
    if not any(a.has_disequalities() for a in left + right):
        # Chandra-Merlin / Sagiv-Yannakakis fast path: without
        # disequalities, containment holds iff every left adjunct admits
        # a homomorphism from some right adjunct.
        return all(
            any(has_homomorphism(r, adj) for r in right) for adj in left
        )
    constants = set()
    for adjunct in left + right:
        constants.update(adjunct.constants())
    # Invariants only for complete right adjuncts: ``may_embed`` is a
    # necessary condition only for homomorphisms out of those.
    right_invariants = [
        embedding_invariants(r) if r.is_complete(constants) else None for r in right
    ]
    any_complete = any(inv is not None for inv in right_invariants)
    for adjunct in left:
        for completion in _completions_for_containment(adjunct, constants):
            target = embedding_invariants(completion) if any_complete else None
            if not any(
                (inv is None or may_embed(inv, target)) and has_homomorphism(r, completion)
                for r, inv in zip(right, right_invariants)
            ):
                return False
    return True


def _completions_for_containment(
    adjunct: ConjunctiveQuery, constants
) -> List[ConjunctiveQuery]:
    """The left-hand sides to test: the adjunct itself when already
    complete w.r.t. ``constants``, otherwise its possible completions.

    Disequality-free adjuncts still require the completion argument when
    the right-hand side carries disequalities, so only the fully
    complete case short-circuits.
    """
    if adjunct.is_complete(constants):
        return [adjunct]
    from repro.minimize.canonical import possible_completions  # lazy: avoid cycle

    return possible_completions(adjunct, constants)


def is_contained_cq_fast(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Chandra-Merlin fast path for disequality-free CQs.

    Sound and complete only when *both* queries are in CQ; used
    internally by standard minimization and as a test oracle.
    """
    if q1.has_disequalities() or q2.has_disequalities():
        raise ValueError("fast path requires disequality-free queries")
    return has_homomorphism(q2, q1)


def is_equivalent(q1: Query, q2: Query) -> bool:
    """Decide ``q1 ≡ q2`` (Def. 2.8): containment in both directions."""
    return is_contained(q1, q2) and is_contained(q2, q1)


def canonical_database(query: ConjunctiveQuery):
    """Freeze a disequality-free CQ into its canonical database.

    Every variable becomes a fresh constant ``@name``; the frozen head
    is returned alongside.  ``q1 ⊆ q2`` iff the frozen head of ``q1``
    is in ``q2(canonical_database(q1))`` — the classic Chandra-Merlin
    construction, valid only without disequalities.
    """
    from repro.db.instance import AnnotatedDatabase

    if query.has_disequalities():
        raise ValueError("canonical databases require disequality-free queries")

    def freeze(term):
        if is_variable(term):
            return "@{}".format(term.name)
        return term.value

    db = AnnotatedDatabase()
    for atom in query.atoms:
        db.add(atom.relation, tuple(freeze(t) for t in atom.args))
    frozen_head = tuple(freeze(t) for t in query.head.args)
    return db, frozen_head


def is_contained_canonical_db(q1: ConjunctiveQuery, q2: Query) -> bool:
    """Containment via canonical databases (CQ left-hand side only).

    An independent oracle for :func:`is_contained`, used by the
    differential tests.
    """
    from repro.engine.evaluate import evaluate

    db, frozen_head = canonical_database(q1)
    return frozen_head in evaluate(q2, db)
