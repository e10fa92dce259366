"""Part 2 of Thm. 5.1: exact core provenance, computed off-line.

The full direct pipeline: given the provenance polynomial ``p`` of an
output tuple ``t`` (produced by *any* equivalent query), the database
``D`` and ``Const(Q)`` — but not the query itself —

1. compute the core monomials with the PTIME transform of Cor. 5.6;
2. for each core monomial, reconstruct its unique complete adjunct
   (Lemma 5.9) and set its coefficient to the adjunct's automorphism
   count (Lemma 5.7) — counted once per distinct adjunct within a call.

The result equals ``P(t, MinProv(Q), D)`` exactly — verified against
rewrite-then-evaluate by tests and by
``benchmarks/bench_direct_vs_rewrite.py``.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Hashable, Iterable, Mapping, Sequence, Tuple

from repro.db.instance import AnnotatedDatabase
from repro.direct.core_polynomial import core_monomials
from repro.direct.reconstruct import (
    AdjunctPattern,
    adjunct_from_pattern,
    adjunct_pattern,
)
from repro.errors import NotAbstractlyTaggedError
from repro.hom.homomorphism import count_automorphisms
from repro.query.terms import Constant
from repro.semiring.polynomial import Monomial, Polynomial

HeadTuple = Tuple[Hashable, ...]


def core_provenance(
    polynomial: Polynomial,
    db: AnnotatedDatabase,
    output: Sequence[Hashable],
    constants: Iterable[Constant] = (),
) -> Polynomial:
    """The exact core provenance of one output tuple (Thm. 5.1, part 2).

    ``polynomial`` is ``P(t, Q, D)`` as computed by an arbitrary query
    equivalent to ``Q``; ``constants`` is ``Const(Q)``.  Requires an
    abstractly-tagged database — Thm. 6.2 shows the task is impossible
    otherwise, and :class:`~repro.errors.NotAbstractlyTaggedError` is
    raised.
    """
    _require_abstract_tagging(db)
    constant_values = {c.value for c in constants}
    return _core_polynomial(polynomial, db, output, constant_values, {})


def core_provenance_table(
    results: Mapping[HeadTuple, Polynomial],
    db: AnnotatedDatabase,
    constants: Iterable[Constant] = (),
) -> Dict[HeadTuple, Polynomial]:
    """Apply :func:`core_provenance` to a whole query result.

    ``results`` is the ``{tuple: polynomial}`` mapping returned by
    either evaluation engine.  Tagging is checked once, and ``|Aut|``
    is computed once per distinct adjunct pattern across all rows.
    """
    _require_abstract_tagging(db)
    constant_values = {c.value for c in constants}
    automorphism_counts: Dict[AdjunctPattern, int] = {}
    return {
        output: _core_polynomial(
            polynomial, db, output, constant_values, automorphism_counts
        )
        for output, polynomial in results.items()
    }


def _require_abstract_tagging(db: AnnotatedDatabase) -> None:
    if not db.is_abstractly_tagged():
        raise NotAbstractlyTaggedError(
            "direct core-provenance computation requires an abstractly-"
            "tagged database (Thm. 6.2 shows it is impossible otherwise)"
        )


def _core_polynomial(
    polynomial: Polynomial,
    db: AnnotatedDatabase,
    output: Sequence[Hashable],
    constant_values: AbstractSet[Hashable],
    automorphism_counts: Dict[AdjunctPattern, int],
) -> Polynomial:
    """Core monomials with ``Aut`` coefficients (Lemmas 5.7 and 5.9).

    Equal patterns rebuild the same adjunct, so ``automorphism_counts``
    (owned by the caller, never outliving one call) builds and searches
    each adjunct once.
    """
    terms: Dict[Monomial, int] = {}
    for monomial in core_monomials(polynomial):
        pattern = adjunct_pattern(monomial, db, output, constant_values)
        count = automorphism_counts.get(pattern)
        if count is None:
            count = count_automorphisms(adjunct_from_pattern(pattern, constant_values))
            automorphism_counts[pattern] = count
        terms[monomial] = count
    return Polynomial(terms)
