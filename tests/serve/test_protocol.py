"""Protocol and JSONL-transport tests, including the golden session: a
scripted request batch whose responses are pinned field by field."""

import io
import json
import sys

from repro.serve import PROTOCOL_VERSION, handle_request, serve_jsonl
from repro.serve import session as session_module

from .conftest import SOURCE_B_GROWN


def run_jsonl(session, requests):
    """Feed a request batch through the line protocol; returns the parsed
    response records (greeting excluded)."""
    lines = "\n".join(
        r if isinstance(r, str) else json.dumps(r) for r in requests
    )
    out = io.StringIO()
    serve_jsonl(session, io.StringIO(lines + "\n"), out)
    records = [json.loads(line) for line in out.getvalue().splitlines()]
    assert records[0]["kind"] == "serve.hello"
    return records[0], records[1:]


def scrub(record):
    """Drop the wall-clock fields so responses compare deterministically."""
    record = dict(record)
    record.pop("wall_ms", None)
    if isinstance(record.get("result"), dict):
        record["result"] = {k: v for k, v in record["result"].items()
                            if k != "seconds"}
    return record


class TestGoldenSession:
    def test_scripted_batch(self, session):
        hello, responses = run_jsonl(session, [
            {"op": "ping", "id": 1},
            {"op": "points-to", "params": {"name": "mine"}, "id": 2},
            {"op": "points-to", "params": {"name": "mine"}, "id": 3},
            {"op": "alias", "params": {"a": "mine", "b": "gp"}, "id": 4},
            {"op": "update", "params": {"file": "b.c",
                                        "text": SOURCE_B_GROWN}, "id": 5},
            {"op": "points-to", "params": {"name": "extra"}, "id": 6},
            {"op": "shutdown", "id": 7},
        ])
        assert hello["protocol"] == PROTOCOL_VERSION
        assert hello["solver"] == "pretransitive"
        expected = [
            {"id": 1, "ok": True, "op": "ping", "trace": "1",
             "generation": 1, "cache_hit": False,
             "result": {"pong": True, "solver": "pretransitive",
                        "generation": 1}},
            {"id": 2, "ok": True, "op": "points-to", "trace": "2",
             "generation": 1, "cache_hit": False,
             "result": {"name": "mine", "resolved": ["mine"],
                        "points_to": {"mine": ["shared"]}}},
            {"id": 3, "ok": True, "op": "points-to", "trace": "3",
             "generation": 1, "cache_hit": True,
             "result": {"name": "mine", "resolved": ["mine"],
                        "points_to": {"mine": ["shared"]}}},
            {"id": 4, "ok": True, "op": "alias", "trace": "4",
             "generation": 1, "cache_hit": False,
             "result": {"a": "mine", "b": "gp", "resolved_a": ["mine"],
                        "resolved_b": ["gp"], "may_alias": True,
                        "witness": ["shared"]}},
            {"id": 5, "ok": True, "op": "update", "trace": "5",
             "generation": 2, "cache_hit": False,
             "result": {"generation": 2, "compiled": 1, "reused": 1,
                        "certified": True}},
            {"id": 6, "ok": True, "op": "points-to", "trace": "6",
             "generation": 2, "cache_hit": False,
             "result": {"name": "extra", "resolved": ["extra"],
                        "points_to": {"extra": ["shared"]}}},
            {"id": 7, "ok": True, "op": "shutdown", "generation": 2,
             "result": {"stopping": True}},
        ]
        assert [scrub(r) for r in responses] == expected

    def test_shutdown_stops_midway(self, session):
        _, responses = run_jsonl(session, [
            {"op": "ping", "id": 1},
            {"op": "shutdown", "id": 2},
            {"op": "ping", "id": 3},  # never reached
        ])
        assert [r.get("id") for r in responses] == [1, 2]

    def test_eof_without_shutdown(self, session):
        _, responses = run_jsonl(session, [{"op": "ping", "id": 1}])
        assert len(responses) == 1

    def test_bad_lines_get_error_responses(self, session):
        deep = "[" * 600 + "]" * 600
        _, responses = run_jsonl(session, [
            "this is not json",
            "[1, 2, 3]",
            "{}",
            {"op": 42},
            "",  # blank lines are skipped, not answered
            # An integer over Python's int-string limit, nesting deeper
            # than the decoder goes, and params too deep for the query
            # cache's key: none ends the daemon.
            '{"op":"ping","id":' + "1" * 5000 + "}",
            "[" * 100000 + "]" * 100000,
            '{"op":"points-to","params":{"name":' + deep + '},"id":2}',
            {"op": "ping", "id": 9},
        ])
        # Without an int-string limit the long id is just an id.
        limited = getattr(sys, "get_int_max_str_digits", lambda: 0)() != 0
        assert [r["ok"] for r in responses] == [False, False, False,
                                                False, not limited, False,
                                                False, True]
        assert "invalid JSON" in responses[0]["error"]
        assert "JSON object" in responses[1]["error"]
        assert "missing op" in responses[2]["error"]
        assert "missing op" in responses[3]["error"]
        if limited:
            assert "invalid JSON" in responses[4]["error"]
        assert "invalid JSON" in responses[5]["error"]
        assert responses[6]["id"] == 2
        assert "nest too deeply" in responses[6]["error"]
        assert [r.get("generation") for r in responses[6:]] == [1, 1]
        assert responses[-1]["id"] == 9


class TestHandleRequest:
    def test_id_is_echoed_verbatim(self, session):
        response, stop = handle_request(
            session, {"op": "ping", "id": "client-7"}
        )
        assert response["id"] == "client-7"
        assert response["trace"] == "client-7"  # the id is the trace id
        assert not stop

    def test_id_is_optional(self, session):
        response, stop = handle_request(session, {"op": "ping"})
        assert "id" not in response
        # No id: the session generates a per-session trace id instead.
        assert response["trace"].startswith("t")

    def test_shutdown_signals_stop(self, session):
        response, stop = handle_request(session, {"op": "shutdown"})
        assert stop and response["ok"]

    def test_non_dict_request(self, session):
        response, stop = handle_request(session, "ping")
        assert not response["ok"] and not stop


class TestOversizeUpdate:
    def test_oversize_text_leaves_the_generation(self, session, monkeypatch):
        """An ``update`` whose text is over the byte cap answers ok:false
        and changes nothing: the next read answers from the generation
        before it.  The text is under the cap in characters and over it
        in UTF-8 bytes."""
        monkeypatch.setattr(session_module, "MAX_BODY_BYTES", 1000)
        text = SOURCE_B_GROWN + "/*" + "\u00e9" * 600 + "*/"
        assert len(text) < 1000 < len(text.encode("utf-8"))
        _hello, responses = run_jsonl(session, [
            {"op": "points-to", "params": {"name": "mine"}, "id": 1},
            {"op": "update", "params": {"file": "b.c", "text": text},
             "id": 2},
            {"op": "points-to", "params": {"name": "extra"}, "id": 3},
        ])
        before, update, after = responses
        assert update["ok"] is False
        assert "1000-byte limit" in update["error"]
        assert after["ok"] and after["generation"] == before["generation"]
        assert after["result"]["resolved"] == []


class TestUnencodableUpdate:
    def test_lone_surrogate_is_a_client_error(self, session):
        """JSON can carry a lone surrogate, which no source file holds:
        an update with one in its file or text answers ok:false (it used
        to escape ``handle_request`` as a UnicodeEncodeError)."""
        for params in ({"file": "b.c", "text": "int x; /* \ud800 */"},
                       {"file": "\udfff.c", "text": "int x;"},
                       {"file": "defs.h", "text": "\ud800", "kind": "header"}):
            response, stop = handle_request(
                session, {"op": "update", "params": params})
            assert not stop and response["ok"] is False
            assert "lone surrogates" in response["error"]
            assert response["generation"] == 1
        assert handle_request(session, {"op": "ping"})[0]["ok"]
