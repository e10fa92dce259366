"""The public API surface: everything advertised exists and works."""


import repro


class TestAllExports:
    def test_every_name_in_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.6.0"

    def test_subpackage_alls_resolve(self):
        import repro.aggregate
        import repro.algebra
        import repro.apps
        import repro.hom
        import repro.incremental
        import repro.minimize
        import repro.obs
        import repro.order
        import repro.paperdata
        import repro.query
        import repro.semiring
        import repro.utils
        import repro.views

        for module in (
            repro.aggregate,
            repro.algebra,
            repro.apps,
            repro.hom,
            repro.incremental,
            repro.minimize,
            repro.obs,
            repro.order,
            repro.paperdata,
            repro.query,
            repro.semiring,
            repro.utils,
            repro.views,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)


class TestReadmeSnippet:
    """The README quickstart must keep working verbatim."""

    def test_quickstart_block(self):
        from repro import (
            AnnotatedDatabase,
            core_provenance_table,
            evaluate,
            min_prov,
            parse_query,
        )

        db = AnnotatedDatabase.from_dict({"R": {
            ("a", "a"): "s1", ("a", "b"): "s2",
            ("b", "a"): "s3", ("b", "b"): "s4",
        }})
        query = parse_query("ans(x) :- R(x, y), R(y, x)")
        results = evaluate(query, db)
        assert str(results[("a",)]) == "s1^2 + s2*s3"
        minimal = min_prov(query)
        texts = sorted(str(a) for a in minimal.adjuncts)
        assert texts == [
            "ans(v1) :- R(v1, v1)",
            "ans(v1) :- R(v1, v2), R(v2, v1), v1 != v2",
        ]
        core = core_provenance_table(results, db)
        assert str(core[("a",)]) == "s1 + s2*s3"
        assert str(core[("b",)]) == "s2*s3 + s4"

    def test_docstring_quickstart(self):
        """The module docstring's snippet (smoke form)."""
        from repro import AnnotatedDatabase, evaluate, min_prov, parse_query

        db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "a")]})
        query = parse_query("ans(x) :- R(x, y), R(y, x)")
        assert evaluate(query, db)
        assert min_prov(query)


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_parse_error_position_default(self):
        from repro.errors import ParseError

        assert ParseError("x").position == -1
