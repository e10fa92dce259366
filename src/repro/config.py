"""The unified engine configuration surface: :class:`EngineConfig`.

Every entry point that evaluates queries — :func:`repro.evaluate`,
:func:`repro.provenance`, :func:`repro.evaluate_aggregate`,
:class:`repro.QuerySession`, :class:`repro.ViewRegistry`,
:func:`repro.make_server` and the CLI — accepts one
:class:`EngineConfig` (or a bare engine name as shorthand) describing
*how* to execute: which engine, how many shards and workers, process or
thread pools, and the replication threshold for small relations.  It is
the only spelling: none of those entry points takes the fields as
separate keywords.

>>> EngineConfig()
EngineConfig(engine='hashjoin', shards=None, workers=None, mode='process', broadcast_threshold=None)
>>> EngineConfig(engine="sharded", shards=2).with_overrides(workers=2).shards
2
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Union

from repro.errors import EvaluationError

#: Pool kinds the sharded engine can run on.
EXECUTOR_MODES = ("process", "thread")


@dataclass(frozen=True)
class EngineConfig:
    """How to execute queries: engine choice plus its tuning knobs.

    Immutable and hashable, so it can key caches (the serving tier keys
    result-cache entries on it).  Which ``engine`` values are accepted
    depends on the entry point — sessions take ``sharded``/``hashjoin``,
    one-shot evaluation also takes ``backtrack`` — and is validated
    there; this class validates the engine-independent fields.

    ``shards`` and ``workers`` default to ``None`` = "let the sharded
    engine pick" (:data:`~repro.engine.sharded.DEFAULT_SHARDS` shards,
    one worker per core up to the shard count).  ``broadcast_threshold``
    is the row count below which a relation is replicated to every
    shard instead of partitioned (``None`` = engine default).  Serving
    deployment settings (durability directory, front end) are not
    evaluation settings: they are keywords of
    :class:`~repro.server.app.ServerState` and
    :func:`~repro.server.app.make_server`.
    """

    engine: str = "hashjoin"
    shards: Optional[int] = None
    workers: Optional[int] = None
    mode: str = "process"
    broadcast_threshold: Optional[int] = None

    def __post_init__(self):  # noqa: D105
        if not isinstance(self.engine, str) or not self.engine:
            raise EvaluationError(
                "EngineConfig.engine must be a non-empty engine name, "
                "got {!r}".format(self.engine)
            )
        if self.mode not in EXECUTOR_MODES:
            raise EvaluationError(
                "EngineConfig.mode must be one of {}; got {!r}".format(
                    ", ".join(EXECUTOR_MODES), self.mode
                )
            )
        for field_name in ("shards", "workers"):
            value = getattr(self, field_name)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool)
                or value < 1
            ):
                raise EvaluationError(
                    "EngineConfig.{} must be a positive int or None, "
                    "got {!r}".format(field_name, value)
                )
        threshold = self.broadcast_threshold
        if threshold is not None and (
            not isinstance(threshold, int) or isinstance(threshold, bool)
            or threshold < 0
        ):
            raise EvaluationError(
                "EngineConfig.broadcast_threshold must be a non-negative "
                "int or None, got {!r}".format(threshold)
            )

    def with_overrides(self, **overrides) -> "EngineConfig":
        """A copy with the given fields replaced (unknown names raise)."""
        known = {field.name for field in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise EvaluationError(
                "unknown EngineConfig field(s): {}".format(", ".join(unknown))
            )
        return replace(self, **overrides)


def resolve_engine_config(
    config: Union[EngineConfig, str, None],
    caller: str,
    default: Optional[EngineConfig] = None,
) -> EngineConfig:
    """Normalize an entry point's ``config`` argument.

    ``config`` may be a full :class:`EngineConfig` (taken verbatim), a
    bare engine name (shorthand for ``default`` with that engine), or
    ``None`` (use ``default``, itself defaulting to ``EngineConfig()``).
    Anything else raises :class:`~repro.errors.EvaluationError` naming
    ``caller``.
    """
    base = EngineConfig() if default is None else default
    if config is None:
        return base
    if isinstance(config, str):
        return replace(base, engine=config)
    if isinstance(config, EngineConfig):
        return config
    raise EvaluationError(
        "{}: config must be an EngineConfig or an engine name, "
        "got {!r}".format(caller, type(config).__name__)
    )


def connect(
    db,
    config: Union[EngineConfig, str, None] = None,
    **overrides,
):
    """Open a :class:`~repro.session.QuerySession` against ``db``.

    The documented way in: pick an engine once, then evaluate batches.
    With no ``config`` the session uses the sharded engine with its
    defaults; pass an :class:`EngineConfig`, a bare engine name, or
    config fields as keyword overrides.

    >>> from repro.db.instance import AnnotatedDatabase
    >>> from repro.query.parser import parse_query
    >>> db = AnnotatedDatabase.from_rows({"R": [("a", "b"), ("b", "c")]})
    >>> with connect(db, shards=2, workers=2, mode="thread") as session:
    ...     result = session.evaluate(parse_query("ans(x, z) :- R(x, y), R(y, z)"))
    >>> sorted(str(p) for p in result.values())
    ['s1*s2']
    """
    from repro.session import QuerySession

    base = resolve_engine_config(
        config, "connect", default=EngineConfig(engine="sharded")
    )
    if overrides:
        base = base.with_overrides(**overrides)
    return QuerySession(db, base)
