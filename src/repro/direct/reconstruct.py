"""Reconstructing the p-minimal adjunct behind a core monomial.

Lemma 5.9: given a core monomial ``m`` of ``P(t, Q, D)``, the database
``D``, the output tuple ``t`` and ``Const(Q)`` — but *not* the query —
the complete adjunct of ``MinProv(Q)`` whose assignments yield ``m``
can be rebuilt, because on an abstractly-tagged database an assignment
of a complete adjunct is invertible:

* every annotation of ``m`` identifies one database tuple (abstract
  tagging);
* each such tuple is the image of exactly one atom (the monomial is in
  support form);
* a value equal to a constant of ``Const(Q)`` must be that constant
  (completeness forbids variables from taking constant values), and
  every other value corresponds to one fresh variable (completeness
  forces distinct variables to take distinct values).

The coefficient of ``m`` in the core provenance is then the number of
automorphisms of the reconstructed adjunct (Lemma 5.7).  The adjunct is
first read off as an :func:`adjunct_pattern` of plain values, so callers
that meet many monomials can count automorphisms once per pattern.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.db.instance import AnnotatedDatabase
from repro.errors import ReproError
from repro.hom.homomorphism import count_automorphisms
from repro.query.atoms import Atom, Disequality
from repro.query.cq import DEFAULT_HEAD_RELATION, ConjunctiveQuery
from repro.query.terms import Constant, Term, Variable
from repro.semiring.polynomial import Monomial


AdjunctPattern = Tuple[Tuple[Tuple[str, Tuple[Hashable, ...]], ...], Tuple[Hashable, ...]]


def adjunct_pattern(
    monomial: Monomial,
    db: AnnotatedDatabase,
    output: Sequence[Hashable],
    constant_values: AbstractSet[Hashable],
) -> AdjunctPattern:
    """The adjunct of Lemma 5.9 as plain values.

    One ``(relation, args)`` per symbol of ``monomial`` in symbol order,
    then the head's args.  Each argument is a :class:`Constant` when its
    value is in ``constant_values`` (``Const(Q)``) and otherwise the
    0-based index of its fresh variable, numbered by first occurrence.
    Equal patterns rebuild equal adjuncts (:func:`adjunct_from_pattern`),
    so their automorphism counts are equal too.
    """
    if not monomial.is_linear():
        raise ReproError(
            "core monomials are in support form; got {}".format(monomial)
        )
    index_of: Dict[Hashable, int] = {}

    def arg_of(value: Hashable) -> Hashable:
        if value in constant_values:
            return Constant(value)
        return index_of.setdefault(value, len(index_of))

    atoms = []
    for symbol in monomial.symbols:
        relation, row = db.tuple_for_annotation(symbol)
        atoms.append((relation, tuple(arg_of(v) for v in row)))
    return tuple(atoms), tuple(arg_of(v) for v in output)


def adjunct_from_pattern(
    pattern: AdjunctPattern,
    constant_values: AbstractSet[Hashable],
    head_relation: str = DEFAULT_HEAD_RELATION,
) -> ConjunctiveQuery:
    """Build the complete adjunct an :func:`adjunct_pattern` describes:
    fresh variables ``v1, v2, ...`` disequated from each other and from
    every constant of ``constant_values``."""
    atom_patterns, head_args = pattern
    variables: List[Variable] = []

    def term_of(arg: Hashable) -> Term:
        if isinstance(arg, Constant):
            return arg
        if arg == len(variables):  # indices appear in first-occurrence order
            variables.append(Variable("v{}".format(arg + 1)))
        return variables[arg]

    atoms = [
        Atom(relation, tuple(term_of(arg) for arg in args))
        for relation, args in atom_patterns
    ]
    head = Atom(head_relation, tuple(term_of(arg) for arg in head_args))

    disequalities = set()
    for i, x in enumerate(variables):
        for y in variables[i + 1:]:
            disequalities.add(Disequality(x, y))
        for value in constant_values:
            disequalities.add(Disequality(x, Constant(value)))
    return ConjunctiveQuery(head, atoms, disequalities)


def reconstruct_adjunct(
    monomial: Monomial,
    db: AnnotatedDatabase,
    output: Sequence[Hashable],
    constants: Iterable[Constant] = (),
    head_relation: str = DEFAULT_HEAD_RELATION,
) -> ConjunctiveQuery:
    """Rebuild the complete adjunct that yields ``monomial`` for
    ``output`` (Lemma 5.9).

    ``monomial`` must be in support form (each annotation once) and
    ``db`` abstractly tagged; ``constants`` is ``Const(Q)``.

    >>> db = AnnotatedDatabase.from_dict({"R": {("a", "a"): "s1"}})
    >>> q = reconstruct_adjunct(Monomial(["s1"]), db, ("a",))
    >>> str(q)
    'ans(v1) :- R(v1, v1)'
    """
    constant_values = {c.value for c in constants}
    pattern = adjunct_pattern(monomial, db, output, constant_values)
    return adjunct_from_pattern(pattern, constant_values, head_relation)


def monomial_coefficient(
    monomial: Monomial,
    db: AnnotatedDatabase,
    output: Sequence[Hashable],
    constants: Iterable[Constant] = (),
) -> int:
    """The core coefficient of ``monomial``: ``Aut`` of its adjunct
    (Lemmas 5.7 and 5.9).

    >>> db = AnnotatedDatabase.from_dict(
    ...     {"R": {("a", "b"): "s2", ("b", "c"): "s4", ("c", "a"): "s5"}})
    >>> monomial_coefficient(Monomial(["s2", "s4", "s5"]), db, ())
    3
    """
    adjunct = reconstruct_adjunct(monomial, db, output, constants)
    return count_automorphisms(adjunct)
