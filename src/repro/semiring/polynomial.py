"""The provenance semiring ``N[X]``: monomials and polynomials.

A :class:`Monomial` is a finite multiset of annotation symbols (strings);
``s1 * s1 * s2`` has the factor multiset ``{s1: 2, s2: 1}``.  A
:class:`Polynomial` maps monomials to positive natural coefficients.

The paper works with polynomials *in expanded form* — coefficients and
exponents written out as repeated monomials and repeated factors — so
that monomials correspond one-to-one with assignments (see the Note at
the end of Sec. 2.4).  :meth:`Polynomial.expanded` provides that view;
``str()`` shows the compact form with coefficients and exponents.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from repro.semiring.base import Semiring
from repro.utils.multiset import FrozenMultiset

SymbolLike = Union[str, "Monomial"]


class Monomial:
    """A product of annotation symbols, e.g. ``s1*s1*s2``.

    Immutable and hashable.  The empty monomial is the multiplicative
    unit ``1``.

    >>> m = Monomial(["s1", "s2", "s1"])
    >>> str(m)
    's1^2*s2'
    >>> m.degree
    3
    """

    __slots__ = ("_factors",)

    def __init__(self, symbols: Iterable[str] = ()):  # noqa: D107
        factors = tuple(symbols)
        for symbol in factors:
            if not isinstance(symbol, str):
                raise TypeError(
                    "monomial factors must be symbol strings, got {!r}".format(symbol)
                )
        self._factors = FrozenMultiset(factors)

    # -- constructors ---------------------------------------------------
    @classmethod
    def one(cls) -> "Monomial":
        """The empty monomial (multiplicative unit)."""
        return cls(())

    @classmethod
    def from_multiset(cls, factors: FrozenMultiset) -> "Monomial":
        """Wrap an existing factor multiset."""
        monomial = cls.__new__(cls)
        monomial._factors = factors
        return monomial

    # -- structure ------------------------------------------------------
    @property
    def factors(self) -> FrozenMultiset:
        """The factor multiset."""
        return self._factors

    @property
    def degree(self) -> int:
        """Total degree (number of factors with multiplicity)."""
        return len(self._factors)

    @property
    def symbols(self) -> Tuple[str, ...]:
        """All factors with repetition, sorted."""
        return self._factors.items

    def exponent(self, symbol: str) -> int:
        """Multiplicity of ``symbol`` in this monomial."""
        return self._factors.count(symbol)

    def support(self) -> "Monomial":
        """Each symbol exactly once (Cor. 5.6, step 1)."""
        return Monomial.from_multiset(self._factors.support())

    def is_linear(self) -> bool:
        """True when no symbol occurs more than once."""
        return self._factors == self._factors.support()

    # -- order (Def. 2.15) ----------------------------------------------
    def __le__(self, other: "Monomial") -> bool:
        """Monomial containment ``m <= m'`` (Def. 2.15)."""
        return self._factors <= other._factors

    def __lt__(self, other: "Monomial") -> bool:
        return self._factors < other._factors

    def __ge__(self, other: "Monomial") -> bool:
        return other <= self

    def __gt__(self, other: "Monomial") -> bool:
        return other < self

    # -- algebra ----------------------------------------------------------
    def __mul__(self, other: SymbolLike) -> "Monomial":
        if isinstance(other, str):
            other = Monomial([other])
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial.from_multiset(self._factors + other._factors)

    # -- protocol ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._factors == other._factors

    def __hash__(self) -> int:
        return hash(("Monomial", self._factors))

    def __iter__(self) -> Iterator[str]:
        return iter(self._factors)

    def __str__(self) -> str:
        if self.degree == 0:
            return "1"
        parts = []
        for symbol in self._factors.distinct():
            exponent = self.exponent(symbol)
            parts.append(symbol if exponent == 1 else "{}^{}".format(symbol, exponent))
        return "*".join(parts)

    def expanded_str(self) -> str:
        """Factors written out one by one (``s1*s1*s2``)."""
        if self.degree == 0:
            return "1"
        return "*".join(self.symbols)

    def __repr__(self) -> str:
        return "Monomial({!r})".format(list(self.symbols))


class Polynomial:
    """An element of ``N[X]``: monomials with positive coefficients.

    >>> p = Polynomial.from_terms([(Monomial(["s1"]), 2), (Monomial(["s2", "s3"]), 1)])
    >>> str(p)
    '2*s1 + s2*s3'
    >>> p.monomial_count()
    3
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] = ()):  # noqa: D107
        cleaned: Dict[Monomial, int] = {}
        for monomial, coefficient in dict(terms).items():
            if not isinstance(monomial, Monomial):
                raise TypeError("polynomial keys must be Monomial instances")
            if not isinstance(coefficient, int):
                raise TypeError("coefficients must be natural numbers")
            if coefficient < 0:
                raise ValueError("coefficients must be nonnegative")
            if coefficient > 0:
                cleaned[monomial] = coefficient
        self._terms = cleaned

    # -- constructors ---------------------------------------------------
    @classmethod
    def _from_clean(cls, terms: Dict[Monomial, int]) -> "Polynomial":
        """Adopt an already-validated term dictionary without copying.

        The decode hot path (:meth:`repro.algebra.intern.InternTable.
        polynomial`) builds millions of result polynomials whose terms
        are positive by construction; re-validating each through
        ``__init__`` dominates the merge stage.  ``terms`` must map
        :class:`Monomial` keys to positive ints and must not be mutated
        by the caller afterwards.
        """
        polynomial = cls.__new__(cls)
        polynomial._terms = terms
        return polynomial

    @classmethod
    def zero(cls) -> "Polynomial":
        """The zero polynomial (annotation of absent tuples)."""
        return cls({})

    @classmethod
    def one(cls) -> "Polynomial":
        """The unit polynomial."""
        return cls({Monomial.one(): 1})

    @classmethod
    def variable(cls, symbol: str) -> "Polynomial":
        """The polynomial consisting of a single annotation symbol."""
        return cls({Monomial([symbol]): 1})

    @classmethod
    def from_monomials(cls, monomials: Iterable[Monomial]) -> "Polynomial":
        """Sum of monomial occurrences (duplicates add up)."""
        terms: Dict[Monomial, int] = {}
        for monomial in monomials:
            terms[monomial] = terms.get(monomial, 0) + 1
        return cls(terms)

    @classmethod
    def from_terms(cls, terms: Iterable[Tuple[Monomial, int]]) -> "Polynomial":
        """Sum of ``(monomial, coefficient)`` pairs."""
        accumulated: Dict[Monomial, int] = {}
        for monomial, coefficient in terms:
            accumulated[monomial] = accumulated.get(monomial, 0) + coefficient
        return cls(accumulated)

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse ``"2*s1^2*s2 + s3"`` into a polynomial.

        The grammar is: terms separated by ``+``; each term is factors
        separated by ``*``; a factor is a natural number (coefficient),
        or ``symbol`` or ``symbol^exponent``.

        >>> str(Polynomial.parse("s1*s1 + 2*s3"))
        's1^2 + 2*s3'
        """
        text = text.strip()
        if not text or text == "0":
            return cls.zero()
        terms: Dict[Monomial, int] = {}
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError("empty term in polynomial text")
            coefficient = 1
            symbols: List[str] = []
            for factor in chunk.split("*"):
                factor = factor.strip()
                if not factor:
                    raise ValueError("empty factor in polynomial text")
                if factor.isdigit():
                    coefficient *= int(factor)
                    continue
                if "^" in factor:
                    symbol, _, exponent_text = factor.partition("^")
                    symbols.extend([symbol.strip()] * int(exponent_text))
                else:
                    symbols.append(factor)
            monomial = Monomial(symbols)
            terms[monomial] = terms.get(monomial, 0) + coefficient
        return cls(terms)

    # -- structure ------------------------------------------------------
    @property
    def terms(self) -> Dict[Monomial, int]:
        """A fresh ``{monomial: coefficient}`` dictionary."""
        return dict(self._terms)

    def coefficient(self, monomial: Monomial) -> int:
        """Coefficient of ``monomial`` (0 when absent)."""
        return self._terms.get(monomial, 0)

    def monomials(self) -> List[Monomial]:
        """Distinct monomials, in deterministic order."""
        return sorted(self._terms.keys(), key=lambda m: m.symbols)

    def sorted_terms(self) -> List[Tuple[Monomial, int]]:
        """``(monomial, coefficient)`` pairs in :meth:`monomials` order."""
        return sorted(self._terms.items(), key=lambda term: term[0].symbols)

    def monomial_count(self) -> int:
        """Number of monomial *occurrences* (sum of coefficients).

        This equals the number of assignments that produced the
        annotated tuple (Sec. 2.4's isomorphism between assignments and
        expanded monomials).
        """
        return sum(self._terms.values())

    def expanded(self) -> List[Monomial]:
        """Monomial occurrences with repetition (the paper's expanded
        form, in which coefficients are written as repeated monomials)."""
        occurrences: List[Monomial] = []
        for monomial in self.monomials():
            occurrences.extend([monomial] * self._terms[monomial])
        return occurrences

    def support(self) -> frozenset:
        """All annotation symbols occurring anywhere in the polynomial."""
        symbols = set()
        for monomial in self._terms:
            symbols.update(monomial.symbols)
        return frozenset(symbols)

    def degree(self) -> int:
        """Maximum monomial degree (0 for the zero polynomial)."""
        return max((m.degree for m in self._terms), default=0)

    def is_zero(self) -> bool:
        """True when this is the zero polynomial."""
        return not self._terms

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = dict(self._terms)
        for monomial, coefficient in other._terms.items():
            terms[monomial] = terms.get(monomial, 0) + coefficient
        return Polynomial(terms)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: Dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                product = m1 * m2
                terms[product] = terms.get(product, 0) + c1 * c2
        return Polynomial(terms)

    def scale(self, n: int) -> "Polynomial":
        """Multiply every coefficient by the natural number ``n``."""
        if n < 0:
            raise ValueError("scale factor must be nonnegative")
        return Polynomial({m: c * n for m, c in self._terms.items()})

    def derivative(self, symbol: str) -> "Polynomial":
        """The formal partial derivative ``∂p/∂symbol``.

        For bag semantics this is the sensitivity of the output
        multiplicity to the multiplicity of the input tuple annotated
        ``symbol`` (used by :mod:`repro.apps.causality`).

        >>> str(Polynomial.parse("s1^2*s2 + 3*s1 + s3").derivative("s1"))
        '3 + 2*s1*s2'
        """
        terms: Dict[Monomial, int] = {}
        for monomial, coefficient in self._terms.items():
            exponent = monomial.exponent(symbol)
            if exponent == 0:
                continue
            remaining = list(monomial.symbols)
            remaining.remove(symbol)
            reduced = Monomial(remaining)
            terms[reduced] = terms.get(reduced, 0) + coefficient * exponent
        return Polynomial(terms)

    def map_symbols(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename annotation symbols (used by Sec. 6's re-tagging)."""
        terms: Dict[Monomial, int] = {}
        for monomial, coefficient in self._terms.items():
            renamed = Monomial([mapping.get(s, s) for s in monomial.symbols])
            terms[renamed] = terms.get(renamed, 0) + coefficient
        return Polynomial(terms)

    # -- protocol ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for monomial in self.monomials():
            coefficient = self._terms[monomial]
            if monomial.degree == 0:
                parts.append(str(coefficient))
            elif coefficient == 1:
                parts.append(str(monomial))
            else:
                parts.append("{}*{}".format(coefficient, monomial))
        return " + ".join(parts)

    def expanded_str(self) -> str:
        """Expanded form: every occurrence written out."""
        occurrences = self.expanded()
        if not occurrences:
            return "0"
        return " + ".join(m.expanded_str() for m in occurrences)

    def __repr__(self) -> str:
        return "Polynomial.parse({!r})".format(str(self))


class ProvenancePolynomialSemiring(Semiring[Polynomial]):
    """``N[X]`` packaged as a :class:`~repro.semiring.base.Semiring`.

    This is the *universal* commutative semiring over ``X`` (Green et
    al. 2007): any valuation of the symbols into another commutative
    semiring factors uniquely through it — see
    :func:`repro.semiring.evaluate.evaluate_polynomial`.
    """

    idempotent_add = False
    absorptive = False

    @property
    def zero(self) -> Polynomial:
        return Polynomial.zero()

    @property
    def one(self) -> Polynomial:
        return Polynomial.one()

    def add(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return a + b

    def mul(self, a: Polynomial, b: Polynomial) -> Polynomial:
        return a * b
