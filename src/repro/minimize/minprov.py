"""MinProv — the provenance-minimization algorithm (Algorithm 1).

Given ``Q ∈ UCQ≠``, MinProv produces an equivalent p-minimal query
(Thm. 4.6, Prop. 4.8) in three steps:

I.   replace every adjunct by its canonical rewriting w.r.t. the full
     constant set of ``Q`` (Def. 4.1) — provenance preserved
     (Thm. 4.4);
II.  minimize each (complete) adjunct by duplicate-atom removal
     (Lemma 3.13);
III. remove adjuncts contained in another adjunct — since all adjuncts
     are complete, containment is a single homomorphism test
     (Thm. 3.1), skipped when the adjuncts' embedding invariants
     already rule it out.

The output realizes the *core provenance* of ``Q``: for every database
``D`` and output tuple ``t``, ``P(t, MinProv(Q), D) <= P(t, Q', D)``
for every equivalent ``Q' ∈ UCQ≠``.

The exponential size of the output is unavoidable (Thm. 4.10); see
``benchmarks/bench_theorem410_blowup.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.hom.homomorphism import (
    EmbeddingInvariants,
    embedding_invariants,
    has_homomorphism,
    is_isomorphic,
    may_embed,
)
from repro.minimize.canonical import possible_completions
from repro.minimize.standard import remove_contained_adjuncts
from repro.query.cq import ConjunctiveQuery
from repro.query.ucq import Query, UnionQuery, as_union


@dataclass(frozen=True)
class MinProvTrace:
    """The intermediate queries of a MinProv run.

    ``step1`` is :math:`Q_I` (canonical rewriting), ``step2`` is
    :math:`Q_{II}` (per-adjunct minimization) and ``step3`` is
    :math:`Q_{III}`, the p-minimal result.  Used by the Figure 3 /
    Examples 5.2-5.8 reproduction.
    """

    input: Query
    step1: UnionQuery
    step2: UnionQuery
    step3: UnionQuery

    @property
    def result(self) -> UnionQuery:
        """The algorithm output (= ``step3``)."""
        return self.step3


_Entry = Tuple[ConjunctiveQuery, EmbeddingInvariants]


def _contained_complete(inner: _Entry, outer: _Entry) -> bool:
    """``inner ⊆ outer`` for complete adjuncts: one homomorphism test
    (Thm. 3.1 — the inner query is complete w.r.t. every constant in
    play, so homomorphism existence characterizes containment).  The
    outer adjunct is complete too, so :func:`may_embed` applies and
    most failing searches are never started."""
    return may_embed(outer[1], inner[1]) and has_homomorphism(outer[0], inner[0])


def min_prov_trace(query: Query) -> MinProvTrace:
    """Run MinProv, retaining every intermediate query."""
    union = as_union(query)
    constants = union.constants()

    # Step I: canonical rewriting of every adjunct over all of Const(Q).
    step1_adjuncts: List[ConjunctiveQuery] = []
    for adjunct in union.adjuncts:
        step1_adjuncts.extend(possible_completions(adjunct, constants))
    step1 = UnionQuery(step1_adjuncts)

    # Step II: minimize each complete adjunct (duplicate removal,
    # Lemma 3.13).
    step2_adjuncts = [adjunct.deduplicate_atoms() for adjunct in step1_adjuncts]
    step2 = UnionQuery(step2_adjuncts)

    # Step III: remove contained adjuncts (containment of complete
    # queries is a homomorphism test).
    entries = [(adjunct, embedding_invariants(adjunct)) for adjunct in step2_adjuncts]
    survivors = remove_contained_adjuncts(entries, contained=_contained_complete)
    step3 = UnionQuery([adjunct for adjunct, _ in survivors])
    return MinProvTrace(input=query, step1=step1, step2=step2, step3=step3)


def min_prov(query: Query) -> UnionQuery:
    """The p-minimal equivalent of ``query`` in UCQ≠ (Thm. 4.6).

    >>> from repro.query.parser import parse_query
    >>> q = parse_query("ans(x) :- R(x, y), R(y, x)")   # Qconj of Figure 1
    >>> result = min_prov(q)
    >>> sorted(str(a) for a in result.adjuncts)
    ['ans(v1) :- R(v1, v1)', 'ans(v1) :- R(v1, v2), R(v2, v1), v1 != v2']
    """
    return min_prov_trace(query).result


def is_p_minimal(query: Query) -> bool:
    """Is ``query`` p-minimal among all equivalent UCQ≠ queries?

    ``Q`` is p-minimal iff its provenance already equals the core
    provenance, i.e. iff ``Can(Q) ≡_P MinProv(Q)``.  Two complete
    unions whose adjuncts partition the equality "cases" have equal
    provenance on every database iff their adjunct multisets agree up
    to isomorphism, which is what is checked here.
    """
    union = as_union(query)
    constants = union.constants()
    canonical_adjuncts: List[ConjunctiveQuery] = []
    for adjunct in union.adjuncts:
        canonical_adjuncts.extend(possible_completions(adjunct, constants))
    minimal = min_prov_trace(query).step3.adjuncts
    return _same_iso_multiset(canonical_adjuncts, list(minimal))


def _same_iso_multiset(
    left: List[ConjunctiveQuery], right: List[ConjunctiveQuery]
) -> bool:
    """Do two adjunct lists agree as multisets up to isomorphism?"""
    if len(left) != len(right):
        return False
    remaining = list(right)
    for adjunct in left:
        match: Optional[int] = None
        for index, candidate in enumerate(remaining):
            if is_isomorphic(adjunct, candidate):
                match = index
                break
        if match is None:
            return False
        del remaining[match]
    return not remaining
