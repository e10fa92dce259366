"""Query homomorphisms (Def. 2.10) and their special forms.

A homomorphism ``h : Q -> Q'`` maps the atoms of ``Q`` to atoms of
``Q'`` such that

1. relational atoms map to relational atoms over the same relation, and
   disequality atoms map to disequality atoms;
2. the head of ``Q`` maps to the head of ``Q'``;
3. the induced mapping on arguments is a function (all instances of a
   variable map the same way);
4. constants map to themselves.

One pragmatic extension is needed for the homomorphism theorem
(Thm. 3.1) to hold verbatim in the presence of constants: a disequality
of ``Q`` whose endpoints map to two *distinct constants* is accepted
even though the (vacuously true) disequality atom ``c != c'`` cannot
syntactically exist in ``Q'``.

Three refinements of plain homomorphisms matter to the paper:

* **surjective on relational atoms** — Thm. 3.3: a surjective
  homomorphism ``Q' -> Q`` between equivalent queries witnesses
  ``Q <=_P Q'``;
* **bijective on relational atoms (automorphisms)** — Lemma 5.7: the
  number of automorphisms of a p-minimal adjunct is the coefficient of
  its monomials in the core provenance;
* **isomorphisms** — used to deduplicate canonical adjuncts.

:func:`embedding_invariants` and :func:`may_embed` are a cheap
necessary condition for a homomorphism out of a *complete* query, used
to skip searches that cannot succeed (MinProv step III, the completion
branch of containment).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.query.atoms import Disequality
from repro.query.cq import ConjunctiveQuery
from repro.query.terms import Term, Variable, is_constant, is_variable


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism from a source query to a target query.

    ``variable_map``
        the induced mapping from source variables to target terms,
        as a sorted tuple of pairs (hashable);
    ``atom_map``
        for each source relational atom index, the index of its image
        among the target's relational atoms.
    """

    variable_map: Tuple[Tuple[Variable, Term], ...]
    atom_map: Tuple[int, ...]

    def mapping(self) -> Dict[Variable, Term]:
        """The variable mapping as a dictionary."""
        return dict(self.variable_map)

    def apply(self, term: Term) -> Term:
        """Image of a term (constants map to themselves)."""
        if is_constant(term):
            return term
        return dict(self.variable_map).get(term, term)

    def is_atom_injective(self) -> bool:
        """True when no two source atoms share an image."""
        return len(set(self.atom_map)) == len(self.atom_map)


def homomorphisms(
    source: ConjunctiveQuery,
    target: ConjunctiveQuery,
    surjective: bool = False,
    bijective: bool = False,
) -> Iterator[Homomorphism]:
    """Enumerate homomorphisms ``source -> target`` (Def. 2.10).

    ``surjective`` restricts to homomorphisms whose relational-atom
    image covers *every* atom of the target (Thm. 3.3);
    ``bijective`` restricts to atom-level bijections (automorphism
    search).  Head arities must agree; head relation names are ignored
    (queries under comparison conventionally share the head ``ans``).
    """
    if source.arity != target.arity:
        return
    if bijective and source.size() != target.size():
        return

    binding: Dict[Variable, Term] = {}

    def bind(source_term: Term, target_term: Term, undo: List[Variable]) -> bool:
        """Extend the variable binding with source_term -> target_term."""
        if is_constant(source_term):
            return source_term == target_term
        bound = binding.get(source_term)
        if bound is None:
            binding[source_term] = target_term
            undo.append(source_term)
            return True
        return bound == target_term

    # Condition 2: the head of the source maps to the head of the target.
    head_undo: List[Variable] = []
    for source_term, target_term in zip(source.head.args, target.head.args):
        if not bind(source_term, target_term, head_undo):
            for var in head_undo:
                del binding[var]
            return

    target_atoms = target.atoms
    by_relation: Dict[Tuple[str, int], List[int]] = {}
    for index, atom in enumerate(target_atoms):
        by_relation.setdefault((atom.relation, atom.arity), []).append(index)

    atom_map: List[int] = []
    used: Set[int] = set()

    def diseqs_ok() -> bool:
        """Condition 1 for disequality atoms, with the constant-pair
        extension described in the module docstring."""
        for dis in source.disequalities:
            left = binding.get(dis.left, dis.left) if is_variable(dis.left) else dis.left
            right = (
                binding.get(dis.right, dis.right)
                if is_variable(dis.right)
                else dis.right
            )
            if left == right:
                return False
            if is_constant(left) and is_constant(right):
                continue  # distinct constants: vacuously true disequality
            if Disequality(left, right) not in target.disequalities:
                return False
        return True

    def extend(index: int) -> Iterator[Homomorphism]:
        if index == len(source.atoms):
            if surjective and len(used) != len(target_atoms):
                return
            if not diseqs_ok():
                return
            yield Homomorphism(
                variable_map=tuple(
                    sorted(binding.items(), key=lambda kv: kv[0].name)
                ),
                atom_map=tuple(atom_map),
            )
            return
        if surjective:
            remaining = len(source.atoms) - index
            uncovered = len(target_atoms) - len(used)
            if remaining < uncovered:
                return
        source_atom = source.atoms[index]
        candidates = by_relation.get((source_atom.relation, source_atom.arity), [])
        for target_index in candidates:
            if bijective and target_index in used:
                continue
            target_atom = target_atoms[target_index]
            undo: List[Variable] = []
            consistent = True
            for source_term, target_term in zip(source_atom.args, target_atom.args):
                if not bind(source_term, target_term, undo):
                    consistent = False
                    break
            if consistent:
                atom_map.append(target_index)
                newly_used = target_index not in used
                if newly_used:
                    used.add(target_index)
                yield from extend(index + 1)
                if newly_used:
                    used.discard(target_index)
                atom_map.pop()
            for var in undo:
                del binding[var]

    yield from extend(0)


def find_homomorphism(
    source: ConjunctiveQuery,
    target: ConjunctiveQuery,
    surjective: bool = False,
) -> Optional[Homomorphism]:
    """The first homomorphism found, or ``None``."""
    for hom in homomorphisms(source, target, surjective=surjective):
        return hom
    return None


def has_homomorphism(source: ConjunctiveQuery, target: ConjunctiveQuery) -> bool:
    """Does any homomorphism ``source -> target`` exist?"""
    return find_homomorphism(source, target) is not None


def has_surjective_homomorphism(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> bool:
    """Does a homomorphism surjective on relational atoms exist?

    Together with equivalence this witnesses ``target <=_P source``
    (Thm. 3.3: a surjective homomorphism ``Q' -> Q`` gives
    ``Q <=_P Q'``; here source plays ``Q'`` and target plays ``Q``).
    """
    return find_homomorphism(source, target, surjective=True) is not None


EmbeddingInvariants = Tuple[Tuple[Hashable, ...], Counter, int]


def _equality_shape(args: Tuple[Term, ...]) -> Tuple[Hashable, ...]:
    """The arguments with each variable replaced by the position of its
    first occurrence; constants stay themselves."""
    first: Dict[Term, int] = {}
    return tuple(
        first.setdefault(arg, index) if isinstance(arg, Variable) else arg
        for index, arg in enumerate(args)
    )


def embedding_invariants(query: ConjunctiveQuery) -> EmbeddingInvariants:
    """What an injective, constant-fixing renaming of variables keeps.

    The head's equality shape, a ``Counter`` of ``(relation, shape)``
    over the *distinct* relational atoms, and the number of variables
    (all of which occur in the body, Def. 2.1).  Compare two of these
    with :func:`may_embed`.
    """
    shapes: Counter = Counter()
    variables: Set[Term] = set()
    for atom in set(query.atoms):
        shapes[atom.relation, _equality_shape(atom.args)] += 1
        variables.update(atom.args)
    variable_count = sum(1 for term in variables if isinstance(term, Variable))
    return _equality_shape(query.head.args), shapes, variable_count


def may_embed(source: EmbeddingInvariants, target: EmbeddingInvariants) -> bool:
    """A necessary condition for a homomorphism ``source -> target``,
    given the :func:`embedding_invariants` of both queries.

    Sound only when the source query is complete (Def. 2.2) w.r.t. the
    constants of *both* queries: its disequalities then forbid any two
    of its terms from meeting, so every homomorphism out of it is an
    injective renaming of variables onto variables that fixes
    constants.  Such a map preserves the head's shape, sends distinct
    atoms to distinct atoms of the same shape, and needs as many
    target variables as there are source variables.

    >>> from repro.query.parser import parse_query
    >>> path = parse_query("ans() :- R(x, y), R(y, z), x != y, x != z, y != z")
    >>> loop = parse_query("ans() :- R(x, x)")
    >>> may_embed(embedding_invariants(path), embedding_invariants(loop))
    False
    >>> has_homomorphism(path, loop)
    False
    """
    source_head, source_shapes, source_variables = source
    target_head, target_shapes, target_variables = target
    return (
        source_head == target_head
        and source_variables <= target_variables
        and all(target_shapes[shape] >= n for shape, n in source_shapes.items())
    )


def automorphisms(query: ConjunctiveQuery) -> List[Homomorphism]:
    """All automorphisms: homomorphisms ``Q -> Q`` bijective on atoms."""
    return list(homomorphisms(query, query, bijective=True))


def count_automorphisms(query: ConjunctiveQuery) -> int:
    """``Aut(Q)`` — the coefficient of Lemma 5.7.

    >>> from repro.query.parser import parse_query
    >>> cycle = parse_query(
    ...     "ans() :- R(x, y), R(y, z), R(z, x), x != y, y != z, x != z")
    >>> count_automorphisms(cycle)
    3
    """
    return len(automorphisms(query))


def is_isomorphic(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Are the queries identical up to variable renaming?

    Decided exactly: some homomorphism ``q1 -> q2`` must be bijective on
    relational atoms, rename variables bijectively onto variables, and
    carry the disequality set of ``q1`` onto that of ``q2``.
    """
    if q1.size() != q2.size():
        return False
    if len(q1.disequalities) != len(q2.disequalities):
        return False
    for hom in homomorphisms(q1, q2, bijective=True):
        if _is_isomorphism_witness(hom, q1, q2):
            return True
    return False


def _is_isomorphism_witness(
    hom: Homomorphism, q1: ConjunctiveQuery, q2: ConjunctiveQuery
) -> bool:
    mapping = hom.mapping()
    images = list(mapping.values())
    if not all(is_variable(image) for image in images):
        return False
    if len(set(images)) != len(images):
        return False
    mapped_diseqs = {dis.substitute(mapping) for dis in q1.disequalities}
    return mapped_diseqs == q2.disequalities
