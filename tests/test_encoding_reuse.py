"""Row fragments: the lean encoders, and view reads that re-encode only
what changed.

Two guarantees, each against a construction kept here as the oracle:

* **the law** — :func:`polynomial_to_list` (which copies each
  monomial's count mapping instead of rebuilding support and exponents)
  and the row-spliced :func:`encode_table` produce exactly the bytes of
  ``canonical_json`` over the old ``results_to_list`` builder, for
  polynomials with non-ASCII symbols, exponents and coefficients above
  one, and the zero and unit polynomials;
* **freshness** — a materialized view's ``GET /v1/views/V`` body is
  spliced from per-row fragments that the registry reuses while a row's
  polynomial object is unchanged.  Over seeded churn histories with
  deletes and retags, after every update the served bytes equal an
  encode that reuses nothing, and so does the subscription snapshot.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate.result import AggregateResult
from repro.db.generators import random_database
from repro.io import (
    canonical_json,
    encode_results,
    encode_table,
    polynomial_to_list,
)
from repro.query.parser import parse_program
from repro.semiring.polynomial import Monomial, Polynomial
from repro.server.app import ServerState

from test_server_core import drive


# ----------------------------------------------------------------------
# The reference builder (the construction the lean encoders replaced)
# ----------------------------------------------------------------------
def reference_polynomial_to_list(polynomial):
    terms = []
    for monomial in polynomial.monomials():
        exponents = {
            symbol: monomial.exponent(symbol) for symbol in monomial.support()
        }
        terms.append(
            {"monomial": exponents, "coefficient": polynomial.coefficient(monomial)}
        )
    return terms


def reference_results_to_list(results):
    return [
        {"tuple": list(output), "provenance": reference_polynomial_to_list(p)}
        for output, p in sorted(results.items(), key=lambda kv: repr(kv[0]))
    ]


def reference_table(results, **tail):
    return canonical_json(
        {"kind": "polynomial", "results": reference_results_to_list(results), **tail}
    )


# ----------------------------------------------------------------------
# The law
# ----------------------------------------------------------------------
symbols = st.sampled_from(["s1", "s2", "s10", "x", "é", "ßy", "符号", "a\"b", "\\n"])
monomials = st.lists(symbols, max_size=4).map(Monomial)
polynomials = st.one_of(
    st.just(Polynomial.zero()),
    st.just(Polynomial.one()),
    st.dictionaries(monomials, st.integers(1, 5), max_size=4).map(Polynomial),
)
values = st.one_of(st.integers(-5, 50), st.sampled_from(["a", "ü", "日本", "q\"t"]))
tables = st.dictionaries(
    st.lists(values, min_size=1, max_size=3).map(tuple), polynomials, max_size=8
)


class TestLeanEncoders:
    @given(polynomials)
    @settings(max_examples=200)
    def test_polynomial_to_list_law(self, polynomial):
        lean = polynomial_to_list(polynomial)
        assert lean == reference_polynomial_to_list(polynomial)
        assert canonical_json(lean) == canonical_json(
            reference_polynomial_to_list(polynomial)
        )

    @given(tables)
    @settings(max_examples=200)
    def test_encode_table_law(self, table):
        assert encode_table(table, False) == reference_table(table)
        assert encode_table(table, False, version=7, view="V") == reference_table(
            table, version=7, view="V"
        )

    @given(tables)
    @settings(max_examples=50)
    def test_aggregate_table_law(self, table):
        from repro.algebra.monoid import monoid_for
        from repro.algebra.semimodule import SemimoduleElement

        groups = {
            row: AggregateResult(
                polynomial,
                (SemimoduleElement(monoid_for("sum"), {3: polynomial}),),
            )
            for row, polynomial in table.items()
            if not polynomial.is_zero()
        }
        assert encode_table(groups, True, version=1) == canonical_json(
            {"version": 1, **encode_results(groups, True)}
        )


# ----------------------------------------------------------------------
# Freshness
# ----------------------------------------------------------------------
PROGRAM = """
V(x, z) :- R(x, y), S(y, z)
W(x) :- V(x, y), R(y, x)
C(x, count(*)) :- R(x, y)
"""

DOMAIN = range(8)


def random_batch(rng, model, serial):
    """One update: an insert, a delete or a retag of R or S."""
    relation = rng.choice(["R", "S"])
    rows = sorted(model[relation])
    kind = rng.choice(["insert", "insert", "delete", "retag"]) if rows else "insert"
    if kind == "insert":
        row = (rng.choice(DOMAIN), rng.choice(DOMAIN))
        if row in model[relation]:
            return None
        model[relation].add(row)
        return {"insert": {relation: [list(row)]}}
    row = rng.choice(rows)
    if kind == "delete":
        model[relation].discard(row)
        return {"delete": {relation: [list(row)]}}
    return {
        "retag": {relation: [{"row": list(row), "annotation": "t{}".format(serial)}]}
    }


def unreused_view_body(state, name):
    registry = state.registry
    return encode_table(
        registry.read_view(name), False, version=registry.db_version(), view=name
    )


def test_view_reads_equal_an_encode_with_no_reuse():
    for seed in range(12):
        rng = random.Random(seed)
        db = random_database({"R": 2, "S": 2}, DOMAIN, 18, seed)
        model = {name: set(db.rows(name)) for name in ("R", "S")}
        with ServerState(db, program=parse_program(PROGRAM)) as state:
            for serial in range(40):
                batch = random_batch(rng, model, serial)
                if batch is None:
                    continue
                state.apply_update(batch)
                for name in ("V", "W"):
                    # Read some views only now and then, so a read sees
                    # the changes of several updates at once.
                    if rng.random() < 0.6:
                        served = drive(state, "GET", "/v1/views/" + name).body
                        assert served == unreused_view_body(state, name), (
                            seed, serial, name
                        )
                stats = state.registry.stats()
                assert stats["fragments"] <= stats["live_symbols"]
                served = drive(state, "GET", "/v1/views/C").body
                registry = state.registry
                assert served == encode_table(
                    registry.read_view("C"), True,
                    version=registry.db_version(), view="C",
                )


def test_subscription_snapshot_equals_an_encode_with_no_reuse():
    rng = random.Random(5)
    db = random_database({"R": 2, "S": 2}, DOMAIN, 18, 5)
    model = {name: set(db.rows(name)) for name in ("R", "S")}
    with ServerState(db, program=parse_program(PROGRAM)) as state:
        for serial in range(30):
            batch = random_batch(rng, model, serial)
            if batch is None:
                continue
            state.apply_update(batch)
            state.read_view("V")  # warm the fragments
            if serial % 5 == 0:
                body = json.loads(state.subscribe({"view": "V"}))
                assert canonical_json(body["snapshot"]) == canonical_json(
                    {
                        "kind": "polynomial",
                        "results": reference_results_to_list(
                            state.registry.read_view("V")
                        ),
                    }
                )


def test_fragments_are_reused_until_the_row_changes():
    db = random_database({"R": 2, "S": 2}, DOMAIN, 18, 3)
    with ServerState(db, program=parse_program(PROGRAM)) as state:
        registry = state.registry
        first = registry.view_fragments("V")
        again = registry.view_fragments("V")
        assert all(a is b for a, b in zip(first, again))
        row = next(iter(sorted(db.rows("R"))))
        state.apply_update({"delete": {"R": [list(row)]}})
        after = registry.view_fragments("V")
        reused = {id(fragment) for fragment in first}
        changed = [fragment for fragment in after if id(fragment) not in reused]
        assert len(changed) < len(after)
