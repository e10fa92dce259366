"""Incremental view maintenance over ``N[X]`` provenance polynomials.

Why provenance makes views maintainable
---------------------------------------
The provenance polynomial ``P(t, Q, D)`` (Def. 2.12) records *every*
derivation of an output tuple: one monomial per satisfying assignment,
one factor per used input tuple.  That makes the effect of any base
update expressible algebraically, without re-running the query:

* **deletion** of a tuple sends its annotation to the semiring zero, so
  every monomial mentioning it vanishes (``0`` is annihilating for
  ``·`` and neutral for ``+``) — the view tuple survives iff its
  polynomial stays nonzero, computed by
  :func:`repro.apps.deletion.partition_by_survival`;
* **insertion** adds monomials: by distributivity, the new assignments
  are exactly those using at least one inserted tuple, enumerated by
  the delta rule ``Δ(Q1 ⋈ Q2) = ΔQ1⋈Q2 + Q1⋈ΔQ2 + ΔQ1⋈ΔQ2`` (unions
  simply add) in :mod:`repro.incremental.delta`;
* **annotation update** is a symbol renaming, the homomorphic image
  under ``N[X] → N[X']`` (:meth:`Polynomial.map_symbols`).

Because ``N[X]`` is the *universal* commutative semiring (Green et al.,
PODS 2007), maintaining the polynomial maintains every specialization —
trust, clearance, probability, counting — for free.

Why survival works on core provenance but polynomials do not
------------------------------------------------------------
Survival under deletion is a Boolean, *absorptive* question: whether
``P(t, Q, D)`` stays nonzero after zeroing symbols is insensitive to
coefficients, exponents, and even to monomials absorbed by smaller ones
(if ``m ≤ m'`` then ``m'`` only vanishes when some symbol of ``m'`` is
zeroed; the question factors through the absorptive quotient of
``N[X]``).  The paper's core provenance — the minimal monomials under
the Def. 2.15 order — therefore answers survival exactly, which is why
Sec. 6 can still run deletion propagation on cores.  The surviving
*polynomial*, by contrast, is not recoverable from the core:
``s1 + s1*s2`` and ``s1`` share the core ``s1``, yet they are different
elements of ``N[X]`` — any non-absorptive specialization (counting,
probability) tells them apart, and the monomials the core absorbed are
live derivations a later deletion may leave as the only ones standing
in an updated polynomial.  Incremental maintenance of materialized
views therefore stores full polynomials, and the composed, repeated-tag
setting this creates is exactly the Sec. 6 regime discussed in
:mod:`repro.views.program` (Thms. 6.1/6.2): p-minimal queries stay
p-minimal, but direct core computation becomes impossible — so we keep
the polynomials and derive cores on demand.

Subsystem layout
----------------
:mod:`~repro.incremental.delta`
    :class:`Delta` batches and the pivot-decomposed delta join, which
    probes the database's own maintained hash indexes.
:mod:`~repro.incremental.registry`
    :class:`ViewRegistry` — materialized views with fresh layer symbols
    (as in :mod:`repro.views.program`), maintained in topological order
    with provenance-driven invalidation via an inverted
    symbol → view-tuple index.
:mod:`~repro.incremental.maintain`
    The apply/refresh loop and the equivalence audit against
    :func:`repro.views.program.evaluate_program`.
"""

from repro.incremental.delta import (
    Delta,
    apply_to_database,
    delta_assignments,
    delta_provenance,
)
from repro.incremental.maintain import (
    ConsistencyReport,
    check_consistency,
    full_recompute,
    maintain,
    refresh,
)
from repro.incremental.registry import (
    MaintenanceReport,
    ViewChange,
    ViewRegistry,
)

__all__ = [
    "Delta",
    "apply_to_database",
    "delta_assignments",
    "delta_provenance",
    "ViewRegistry",
    "ViewChange",
    "MaintenanceReport",
    "ConsistencyReport",
    "check_consistency",
    "full_recompute",
    "maintain",
    "refresh",
]
