"""The EngineConfig facade: validation, the one spelling, `repro.connect`.

Every public entry point accepts one :class:`repro.EngineConfig` (or a
bare engine name) and nothing else to say how to evaluate.  These tests
pin that contract: the config holds exactly the five evaluation fields,
the keyword spellings removed in 1.7.0 are rejected outright, and the
serving keywords that replaced config fields validate their input.
"""

import warnings
from dataclasses import fields

import pytest

import repro
from repro import EngineConfig, connect
from repro.cli import build_parser
from repro.config import resolve_engine_config
from repro.db.instance import AnnotatedDatabase
from repro.engine.evaluate import evaluate, provenance
from repro.aggregate.evaluate import evaluate_aggregate
from repro.errors import EvaluationError
from repro.incremental.registry import ViewRegistry
from repro.query.parser import parse_program, parse_query
from repro.server.app import ServerState, make_server
from repro.session import QuerySession


def small_db():
    return AnnotatedDatabase.from_dict(
        {
            "R": {("a", "b"): "s1", ("b", "c"): "s2", ("a", "c"): "s3"},
            "S": {("c", "d"): "s4", ("b", "d"): "s5"},
        }
    )


QUERY = parse_query("ans(x, z) :- R(x, y), S(y, z)")
AGG_QUERY = parse_query("ans(x, count(*)) :- R(x, y), S(y, z)")
PROGRAM = parse_program("V(x, z) :- R(x, y), S(y, z)")


class TestEngineConfigValidation:
    def test_defaults(self):
        config = EngineConfig()
        assert config.engine == "hashjoin"
        assert config.shards is None and config.workers is None
        assert config.mode == "process"
        assert config.broadcast_threshold is None

    def test_exactly_the_five_evaluation_fields(self):
        assert {field.name for field in fields(EngineConfig)} == {
            "engine",
            "shards",
            "workers",
            "mode",
            "broadcast_threshold",
        }

    def test_frozen_and_hashable(self):
        config = EngineConfig(engine="sharded", shards=2)
        with pytest.raises(AttributeError):
            config.shards = 4
        assert config == EngineConfig(engine="sharded", shards=2)
        assert hash(config) == hash(EngineConfig(engine="sharded", shards=2))
        # every field participates in identity (the result cache keys on it)
        assert config != config.with_overrides(mode="thread")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"engine": ""},
            {"engine": 7},
            {"mode": "fibers"},
            {"shards": 0},
            {"shards": -1},
            {"shards": True},
            {"shards": 2.5},
            {"workers": 0},
            {"workers": False},
            {"broadcast_threshold": -1},
            {"broadcast_threshold": True},
            {"mode": ""},
            {"mode": 7},
            {"shards": "2"},
            {"workers": -3},
            {"broadcast_threshold": 2.5},
        ],
    )
    def test_invalid_fields_raise(self, kwargs):
        with pytest.raises(EvaluationError):
            EngineConfig(**kwargs)

    def test_with_overrides(self):
        config = EngineConfig(engine="sharded")
        assert config.with_overrides(shards=3).shards == 3
        assert config.with_overrides(shards=3) is not config
        with pytest.raises(EvaluationError, match="unknown EngineConfig"):
            config.with_overrides(sharding=3)

    def test_with_overrides_revalidates(self):
        with pytest.raises(EvaluationError):
            EngineConfig().with_overrides(shards=-2)


class TestResolveEngineConfig:
    def test_string_is_silent_shorthand(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = resolve_engine_config("backtrack", "caller")
        assert config == EngineConfig(engine="backtrack")

    def test_none_is_the_default(self):
        default = EngineConfig(engine="sharded", shards=3)
        assert resolve_engine_config(None, "caller") == EngineConfig()
        assert resolve_engine_config(None, "caller", default=default) is default
        assert resolve_engine_config("hashjoin", "caller", default=default) == (
            default.with_overrides(engine="hashjoin")
        )

    def test_config_taken_verbatim(self):
        mine = EngineConfig(engine="sharded", shards=7, mode="thread")
        default = EngineConfig(engine="hashjoin", shards=1)
        assert resolve_engine_config(mine, "caller", default=default) is mine

    def test_bad_config_type(self):
        with pytest.raises(EvaluationError, match="EngineConfig or an engine"):
            resolve_engine_config(42, "caller")


#: Each public entry point, called with everything but the config.
ENTRY_POINTS = {
    "evaluate": lambda **kw: evaluate(QUERY, small_db(), **kw),
    "provenance": lambda **kw: provenance(QUERY, small_db(), ("a", "d"), **kw),
    "evaluate_aggregate": lambda **kw: evaluate_aggregate(
        AGG_QUERY, small_db(), **kw
    ),
    "ViewRegistry": lambda **kw: ViewRegistry(PROGRAM, small_db(), **kw),
    "QuerySession": lambda **kw: QuerySession(small_db(), **kw),
    "ServerState": lambda **kw: ServerState(small_db(), **kw),
    "make_server": lambda **kw: make_server(small_db(), **kw),
    "EngineConfig": lambda **kw: EngineConfig(**kw),
}

#: The keyword spellings removed in 1.7.0, per entry point.
REMOVED_KEYWORDS = {
    "evaluate": ("engine", "shards", "workers"),
    "provenance": ("engine", "shards", "workers"),
    "evaluate_aggregate": ("engine", "shards", "workers"),
    "ViewRegistry": ("engine", "shards", "workers"),
    "QuerySession": (
        "engine", "shards", "workers", "mode", "broadcast_threshold",
    ),
    "ServerState": ("engine", "shards", "workers", "broadcast_threshold"),
    "make_server": ("engine", "shards", "workers", "broadcast_threshold"),
    "EngineConfig": ("columnar", "data_dir", "server_mode"),
}

#: A value each removed keyword used to accept.
OLD_VALUES = {
    "engine": "hashjoin",
    "shards": 2,
    "workers": 2,
    "mode": "thread",
    "broadcast_threshold": 0,
    "columnar": False,
    "data_dir": "state",
    "server_mode": "async",
}


class TestRemovedSpellings:
    @pytest.mark.parametrize(
        "entry_point, keyword",
        [
            (entry_point, keyword)
            for entry_point, keywords in REMOVED_KEYWORDS.items()
            for keyword in keywords
        ],
    )
    def test_removed_keyword_raises(self, entry_point, keyword):
        with pytest.raises(TypeError, match=keyword):
            ENTRY_POINTS[entry_point](**{keyword: OLD_VALUES[keyword]})

    def test_cli_no_columnar_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["eval", "-p", "p.dl", "-d", "d.json", "--no-columnar"]
            )


class TestServingKeywords:
    @pytest.mark.parametrize("data_dir", ["", 7])
    def test_bad_data_dir_is_rejected(self, data_dir):
        with pytest.raises(EvaluationError, match="data_dir"):
            ServerState(small_db(), data_dir=data_dir)

    def test_server_state_forces_thread_pools(self):
        config = EngineConfig(engine="sharded", mode="process")
        with ServerState(small_db(), config=config) as state:
            # /update mutates the db in place, so serving runs thread pools
            assert state.config == config.with_overrides(mode="thread")


class TestConnect:
    def test_defaults_to_sharded_session(self):
        with connect(small_db()) as session:
            assert isinstance(session, QuerySession)
            assert session.config.engine == "sharded"

    def test_engine_name_shorthand(self):
        with connect(small_db(), "hashjoin") as session:
            assert session.config.engine == "hashjoin"

    def test_overrides_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = connect(small_db(), shards=2, workers=2, mode="thread")
        with session:
            assert session.config.shards == 2
            result = session.evaluate(QUERY)
        assert sorted(str(p) for p in result.values()) == [
            "s1*s5 + s3*s4",
            "s2*s4",
        ]

    def test_config_object(self):
        config = EngineConfig(engine="sharded", shards=2, mode="thread")
        with connect(small_db(), config) as session:
            assert session.config is config

    def test_bad_config_type(self):
        with pytest.raises(EvaluationError, match="connect:"):
            connect(small_db(), 3.14)


class TestPublicSurface:
    def test_facade_names_exported(self):
        assert "EngineConfig" in repro.__all__
        assert "connect" in repro.__all__
        assert repro.EngineConfig is EngineConfig

    def test_one_shot_engine_helpers_not_advertised(self):
        # still importable for back-compat, but the facade is
        # evaluate + EngineConfig
        for name in (
            "evaluate_hashjoin",
            "evaluate_sharded",
            "evaluate_aggregate_sharded",
        ):
            assert name not in repro.__all__
            assert hasattr(repro, name)
