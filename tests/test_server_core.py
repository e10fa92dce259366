"""The transport-free request core, driven with no socket in sight.

``repro.server.core.handle`` decides every response of both front
ends, so this module pins it directly:

* **the whole method × path × mount matrix**, generated *from the route
  table*: every cell is either routed or answers the 404 / 405 / 501
  the table implies, shaped per mount and counted under a bounded
  label;
* **one validator per concern** — Content-Length (invalid, negative,
  oversized → 413), JSON bodies, changefeed resolution order;
* **transport failures enter the same ladder** — a body timeout or a
  refused engine call thrown in at a step comes out shaped, and a shed
  leader's 503 reaches its whole flight;
* **what never waits** — a warm hit, ``/stats`` and ``/metrics`` yield
  no step a transport could queue or shed;
* **transport equality** — the requests the two front ends used to
  answer differently, replayed over real sockets on both, must now
  agree on status, body and whether the connection survives.
"""

import json
import logging
import socket
from concurrent.futures import Future

import pytest

from repro.obs.trace import tracing, tree_stage_names
from repro.query.parser import parse_program
from repro.server import core
from repro.server.app import ServerState, perform, resolve

from test_server import JOIN, UNION, serve, small_db

pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

PROGRAM = "V(x, z) :- R(x, y), S(y, z)"

#: Verbs no route has, next to the ones the table routes.
STRAY_METHODS = ("PUT", "HEAD", "PATCH", "OPTIONS")


def drive(state, method, target, body=b"", content_length=None):
    """One request through ``handle()``: the body is handed over when
    asked for, every other step is taken the blocking way."""
    request = core.Request(
        method,
        target,
        str(len(body)) if content_length is None else content_length,
    )

    def take(step):
        if isinstance(step, core.Body):
            assert step.length == len(body)
            return body
        return perform(step)

    return resolve(core.handle(state, request), take)


def error_of(response, v1):
    """``(message, code)`` of an error response, checking its shape."""
    payload = json.loads(response.body)
    if not v1:
        assert isinstance(payload["error"], str)
        return payload["error"], None
    envelope = payload["error"]
    assert set(envelope) == {"code", "message", "detail"}
    return envelope["message"], envelope["code"]


@pytest.fixture(scope="module")
def state():
    with ServerState(small_db(), program=parse_program(PROGRAM)) as state:
        yield state


# ----------------------------------------------------------------------
# The matrix, generated from the route table
# ----------------------------------------------------------------------
def sample_path(pattern):
    return pattern + "x" if pattern.endswith("/") else pattern


PATHS = sorted({sample_path(route.pattern) for route in core.ROUTES}) + ["/nope"]
METHODS = sorted({route.method for route in core.ROUTES}) + list(STRAY_METHODS)
CELLS = [
    (method, path, v1)
    for method in METHODS
    for path in PATHS
    for v1 in (False, True)
]


def implied(method, path, v1):
    """What the table implies for one cell: ``(status, message)``, or
    ``None`` when a route serves it."""
    mounted = [
        route
        for route in core.ROUTES
        if sample_path(route.pattern) == path and (v1 or not route.v1_only)
    ]
    allowed = [route.method for route in mounted]
    if method in allowed:
        return None
    if allowed and method in ("GET", "POST"):
        return 405, "{} only accepts {}".format(path, " or ".join(allowed))
    if allowed:
        return 405, "{} does not accept {}".format(path, method)
    if method in {route.method for route in core.ROUTES}:
        return 404, "unknown path {}".format(path)
    return 501, "unsupported method {}".format(method)


class TestRouteMatrix:
    def test_the_matrix_covers_every_kind_of_cell(self):
        kinds = {
            (implied(*cell) or (200, ""))[0] for cell in CELLS
        }
        assert kinds == {200, 404, 405, 501}
        # v1-only rows really differ between the mounts.
        assert implied("POST", "/subscribe", False) == (
            404,
            "unknown path /subscribe",
        )
        assert implied("POST", "/subscribe", True) is None

    @pytest.mark.parametrize(
        "method,path,v1",
        CELLS,
        ids=["{} {}{}".format(m, "/v1" if v else "", p) for m, p, v in CELLS],
    )
    def test_cell(self, state, method, path, v1):
        counter = state.metrics.get("repro_http_requests_total")
        label = path.rsplit("/", 1)[0] if path.count("/") > 1 else path
        if path == "/nope":
            label = "other"
        response = drive(
            state, method, ("/v1" if v1 else "") + path, b'{"pad": 1}'
        )
        key = (label, method, str(response.status))
        assert key in counter.series()  # counted, under a bounded label
        # The legacy mount advertises its successor on every response.
        assert ("Deprecation" in response.headers) == (not v1)
        if not v1:
            assert response.headers["Link"] == (
                '</v1{}>; rel="successor-version"'.format(path)
            )
        expected = implied(method, path, v1)
        if expected is None:
            # Routed: whatever the endpoint made of the padding body,
            # it was not the table's refusal.
            assert response.status not in (405, 501)
            if response.status == 404:
                assert "unknown path" not in error_of(response, v1)[0]
            return
        status, message = expected
        assert response.status == status
        assert not response.close
        assert error_of(response, v1) == (
            message,
            core.ERROR_CODES[status] if v1 else None,
        )

    def test_every_error_template_has_one_home(self):
        """404/405/501 are derived: no endpoint handler spells them."""
        import inspect

        source = inspect.getsource(core)
        for template in (
            "unknown path {}",
            "{} only accepts {}",
            "{} does not accept {}",
            "unsupported method {}",
        ):
            assert source.count('"{}"'.format(template)) == 1, template


# ----------------------------------------------------------------------
# Validation that used to live twice
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("header", ["12abc", "-5", "1e3", " "])
    @pytest.mark.parametrize("v1", [False, True])
    def test_invalid_content_length_is_400_and_closes(self, state, header, v1):
        response = drive(
            state, "POST", "/v1/query" if v1 else "/query", content_length=header
        )
        assert (response.status, response.close) == (400, True)
        message, code = error_of(response, v1)
        assert message == "invalid Content-Length header {!r}".format(header)
        assert code == ("bad_request" if v1 else None)

    @pytest.mark.parametrize("v1", [False, True])
    def test_oversized_body_is_413_and_closes(self, state, v1):
        """The body is never asked for, let alone read."""
        too_big = str(core.MAX_BODY_BYTES + 1)
        response = drive(
            state, "POST", "/v1/query" if v1 else "/query", content_length=too_big
        )
        assert (response.status, response.close) == (413, True)
        message, code = error_of(response, v1)
        assert message == "request body exceeds {} bytes".format(
            core.MAX_BODY_BYTES
        )
        assert code == ("payload_too_large" if v1 else None)

    def test_largest_allowed_length_is_asked_for(self, state):
        request = core.Request("POST", "/query", str(core.MAX_BODY_BYTES))
        steps = core.handle(state, request)
        step = next(steps)
        assert isinstance(step, core.Body)
        assert step.length == core.MAX_BODY_BYTES
        steps.close()

    def test_json_and_payload_checks(self, state):
        for body, fragment in (
            (b"", "request body must be a JSON document"),
            (b"{not json", "invalid JSON body"),
            (b'{"query": 7}', "POST /query expects"),
        ):
            response = drive(state, "POST", "/query", body)
            assert response.status == 400 and not response.close
            assert fragment in error_of(response, False)[0]
        response = drive(state, "POST", "/batch", b'{"queries": "x"}')
        assert "POST /batch expects" in error_of(response, False)[0]
        response = drive(state, "GET", "/trace")
        assert "GET /trace expects" in error_of(response, False)[0]

    def test_changefeed_resolves_hub_then_subscription_then_cursor(self, state):
        subscribed = drive(state, "POST", "/v1/subscribe", b'{"view": "V"}')
        assert subscribed.status == 200
        sub_id = json.loads(subscribed.body)["subscription"]
        feed = "/v1/changefeed/" + sub_id
        # No hub at all outranks everything else.
        with ServerState(small_db()) as bare:
            response = drive(bare, "GET", feed + "?cursor=abc")
            assert response.status == 400
            assert "maintained views" in error_of(response, True)[0]
        # An unknown subscription outranks a bad cursor.
        response = drive(state, "GET", "/v1/changefeed/sub-none?cursor=abc")
        assert response.status == 404
        assert error_of(response, True)[1] == "unknown_subscription"
        # Then the cursor, then the wait, one message template.
        response = drive(state, "GET", feed + "?cursor=abc")
        assert response.status == 400
        assert error_of(response, True)[0] == (
            "query parameter 'cursor' must be a number, got 'abc'"
        )
        response = drive(state, "GET", feed + "?wait=soon")
        assert error_of(response, True)[0] == (
            "query parameter 'wait' must be a number, got 'soon'"
        )
        # Resolved: the step carries what either transport needs.
        request = core.Request("GET", feed + "?cursor=3&wait=0")
        steps = core.handle(state, request)
        step = next(steps)
        assert isinstance(step, core.Feed)
        assert (step.subscription.id, step.cursor, step.wait) == (sub_id, 3, 0.0)
        steps.close()
        assert drive(state, "DELETE", feed).status == 200

    def test_batch_records_its_parse_spans(self, state):
        """``run_queries`` used to parse outside any span."""
        with tracing("batch") as tracer:
            state.run_queries([JOIN, UNION])
        assert tree_stage_names(tracer.tree()).count("parse") == 2


# ----------------------------------------------------------------------
# Steps: what waits, what never does, and failures thrown in
# ----------------------------------------------------------------------
def steps_of(state, method, target, body=b""):
    """The steps one request takes, each taken the blocking way."""
    request = core.Request(method, target, str(len(body)))
    taken = []

    def take(step):
        taken.append(step)
        return body if isinstance(step, core.Body) else perform(step)

    response = resolve(core.handle(state, request), take)
    return response, taken


class TestSteps:
    def test_a_miss_calls_once_and_a_hit_never_waits(self):
        body = json.dumps({"query": JOIN}).encode()
        with ServerState(small_db()) as state:
            cold, taken = steps_of(state, "POST", "/query", body)
            assert cold.status == 200
            assert [type(step) for step in taken[:1]] == [core.Body]
            assert len(taken) == 2 and callable(taken[1])  # the engine call
            warm, taken = steps_of(state, "POST", "/query", body)
            assert warm.body == cold.body
            assert len(taken) == 1  # the body, then nothing to wait for
            batch = json.dumps({"queries": [JOIN, JOIN]}).encode()
            _response, taken = steps_of(state, "POST", "/batch", batch)
            assert len(taken) == 1  # all hits: no engine call either

    def test_stats_and_metrics_never_wait(self, state):
        for path in ("/stats", "/v1/stats", "/metrics", "/v1/metrics"):
            response, taken = steps_of(state, "GET", path)
            assert response.status == 200 and taken == []

    def test_body_timeout_thrown_in_is_a_408_that_closes(self, state):
        request = core.Request("POST", "/v1/query", "100")
        steps = core.handle(state, request)
        assert isinstance(next(steps), core.Body)
        with pytest.raises(StopIteration) as done:
            steps.throw(core.BodyTimeout())
        response = done.value.value
        assert (response.status, response.close) == (408, True)
        assert error_of(response, True) == (
            "timed out reading the request body",
            "timeout",
        )

    def test_a_shed_leader_fails_its_whole_flight_and_caches_nothing(self):
        """The transport refuses the leader's engine call: the leader
        and every waiter of its flight answer the 503, nothing is
        cached, and the key is not poisoned."""
        body = json.dumps({"query": JOIN}).encode()

        def start():
            steps = core.handle(state, core.Request("POST", "/query", str(len(body))))
            assert isinstance(next(steps), core.Body)
            return steps, steps.send(body)

        with ServerState(small_db()) as state:
            leader, call = start()
            assert callable(call) and not isinstance(call, Future)
            waiter, ticket = start()
            assert isinstance(ticket, Future) and not ticket.done()
            with pytest.raises(StopIteration) as done:
                leader.throw(core.Overloaded())
            shed = done.value.value
            assert shed.status == 503 and not shed.close
            assert shed.headers["Retry-After"] == "1"
            assert isinstance(ticket.exception(1), core.Overloaded)
            with pytest.raises(StopIteration) as done:
                waiter.throw(ticket.exception())
            assert done.value.value.status == 503
            stats = state.cache.stats()
            assert (stats["size"], stats["inflight"]) == (0, 0)
            assert drive(state, "POST", "/query", body).status == 200

    def test_observed_and_logged_before_the_response_is_returned(
        self, state, caplog
    ):
        counter = state.metrics.get("repro_http_requests_total")
        before = counter.series().get(("/stats", "GET", "200"), 0)
        steps = core.handle(state, core.Request("GET", "/v1/stats?x=1"))
        with caplog.at_level(logging.INFO, logger="repro.server"):
            with pytest.raises(StopIteration):
                next(steps)
        assert counter.series()[("/stats", "GET", "200")] == before + 1
        assert any(
            record.getMessage().startswith("GET /v1/stats -> 200")
            for record in caplog.records
        )


# ----------------------------------------------------------------------
# The requests the two front ends used to answer differently
# ----------------------------------------------------------------------
def exchange(address, payload):
    """Send raw request bytes; ``(status, headers, body, alive)``.

    ``alive`` is whether the same connection then serves a ``GET
    /v1/stats`` — the observable meaning of "the socket was kept".
    """

    def read_response(sock):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                return None
            data += chunk
        head, _sep, rest = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, _colon, value in (line.partition(":") for line in lines[1:])
        }
        length = int(headers["content-length"])
        while len(rest) < length:
            chunk = sock.recv(65536)
            if not chunk:
                return None
            rest += chunk
        return int(lines[0].split()[1]), headers, rest[:length]

    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(payload)
        status, headers, body = read_response(sock)
        try:
            sock.sendall(b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n")
            follow_up = read_response(sock)
        except OSError:
            follow_up = None
        return status, headers, body, follow_up is not None and follow_up[0] == 200


class TestTransportsAgree:
    @pytest.fixture(scope="class")
    def both(self):
        program = parse_program(PROGRAM)
        with serve(small_db(), program=program, server_mode="threaded") as threaded:
            with serve(small_db(), program=program, server_mode="async") as aio:
                yield threaded, aio

    def on_both(self, both, payload):
        outcomes = []
        for server, _client in both:
            status, headers, body, alive = exchange(
                server.server_address[:2], payload
            )
            assert headers["content-type"] == "application/json"
            outcomes.append((status, body, alive))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @pytest.mark.parametrize("method", STRAY_METHODS)
    def test_stray_methods_get_the_cores_answer_counted(self, both, method):
        head = "{} {} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"
        status, body, alive = self.on_both(
            both, head.format(method, "/v1/query").encode()
        )
        assert (status, alive) == (405, True)
        assert json.loads(body)["error"] == {
            "code": "method_not_allowed",
            "message": "/query does not accept {}".format(method),
            "detail": None,
        }
        status, body, alive = self.on_both(
            both, head.format(method, "/nope").encode()
        )
        assert (status, alive) == (501, True)
        assert json.loads(body) == {
            "error": "unsupported method {}".format(method)
        }
        for server, _client in both:
            series = server.state.metrics.get("repro_http_requests_total").series()
            assert series[("/query", method, "405")] >= 1
            assert series[("other", method, "501")] >= 1

    def test_negative_content_length_is_rejected_and_closed(self, both):
        status, body, alive = self.on_both(
            both,
            b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n",
        )
        assert (status, alive) == (400, False)
        assert json.loads(body) == {
            "error": "invalid Content-Length header '-5'"
        }

    @pytest.mark.parametrize("mount", ["", "/v1"])
    def test_oversized_body_is_413_and_closed(self, both, mount):
        status, body, alive = self.on_both(
            both,
            "POST {}/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n".format(
                mount, core.MAX_BODY_BYTES + 1
            ).encode(),
        )
        assert (status, alive) == (413, False)
        assert "exceeds" in json.dumps(json.loads(body))
        if mount:
            assert json.loads(body)["error"]["code"] == "payload_too_large"

    def test_bad_changefeed_cursor_is_one_answer(self, both):
        sub_ids = set()
        for _server, client in both:
            status, sub = client.json("POST", "/v1/subscribe", {"view": "V"})
            assert status == 200
            sub_ids.add(sub["subscription"])
        (sub_id,) = sub_ids  # fresh servers number alike
        status, body, alive = self.on_both(
            both,
            "GET /v1/changefeed/{}?cursor=abc HTTP/1.1\r\nHost: t\r\n\r\n".format(
                sub_id
            ).encode(),
        )
        assert (status, alive) == (400, True)
        assert json.loads(body)["error"]["message"] == (
            "query parameter 'cursor' must be a number, got 'abc'"
        )
        # Subscription before cursor, on both.
        status, body, _alive = self.on_both(
            both,
            b"GET /v1/changefeed/sub-none?cursor=abc HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert status == 404
        assert json.loads(body)["error"]["code"] == "unknown_subscription"
