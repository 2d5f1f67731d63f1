"""HTTP-transport tests: the same protocol behind POST /query."""

import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import http as http_module
from repro.serve import make_http_server
from repro.serve.http import MAX_BODY_BYTES

from .conftest import SOURCE_B_GROWN


@pytest.fixture
def server(session):
    server = make_http_server(session, port=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", server, thread
    server.shutdown()
    server.server_close()


def post(base, payload, path="/query"):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def raw_post(base, headers, body=b""):
    """POST /query over a bare socket with exactly these header lines;
    returns (status, decoded JSON body) or None if no answer came back
    before the socket timeout or the server hung up."""
    host, port = base.rsplit("/", 1)[1].split(":")
    head = "".join(f"{line}\r\n" for line in
                   ["POST /query HTTP/1.1", f"Host: {host}", *headers])
    with socket.create_connection((host, int(port)), timeout=2) as sock:
        sock.sendall(head.encode() + b"\r\n" + body)
        data = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
                head_end = data.find(b"\r\n\r\n")
                if head_end >= 0:
                    header_block = data[:head_end].decode("latin-1")
                    length = int(header_block.lower().split(
                        "content-length:")[1].split("\r\n")[0])
                    if len(data) >= head_end + 4 + length:
                        break
        except (socket.timeout, ConnectionResetError):
            return None
    if not data:
        return None
    head_end = data.index(b"\r\n\r\n")
    status = int(data.split(b" ", 2)[1])
    return status, json.loads(data[head_end + 4:])


def get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestHttp:
    def test_query_round_trip(self, server):
        base, _, _ = server
        status, body = post(base, {"op": "points-to",
                                   "params": {"name": "mine"}, "id": 1})
        assert status == 200
        assert body["ok"] and body["id"] == 1
        assert body["result"]["points_to"] == {"mine": ["shared"]}

    def test_update_then_query(self, server):
        base, _, _ = server
        status, body = post(base, {"op": "update",
                                   "params": {"file": "b.c",
                                              "text": SOURCE_B_GROWN}})
        assert status == 200 and body["result"]["certified"] is True
        _, body = post(base, {"op": "points-to",
                              "params": {"name": "extra"}})
        assert body["result"]["points_to"] == {"extra": ["shared"]}

    def test_client_error_is_400(self, server):
        base, _, _ = server
        status, body = post(base, {"op": "frobnicate"})
        assert status == 400 and not body["ok"]

    def test_invalid_json_is_400(self, server):
        """Malformed JSON, and bodies that are not text at all, answer
        400 and leave the daemon serving."""
        base, _, _ = server
        bodies = [b"{not json", b"\x80\x81{}", b"\xff\xfe\x00",
                  b"[" * 100000 + b"]" * 100000]
        if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 0:
            # An integer over the int-string limit fails to decode.
            bodies.append(b'{"op":"ping","id":' + b"1" * 5000 + b"}")
        for data in bodies:
            request = urllib.request.Request(base + "/query", data=data)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            body = json.loads(excinfo.value.read())
            excinfo.value.close()
            assert excinfo.value.code == 400, data[:20]
            assert body["error"].startswith("invalid JSON"), data[:20]
        status, body = post(base, {"op": "ping"})
        assert status == 200 and body["ok"]

    def test_healthz_and_stats(self, server):
        base, _, _ = server
        status, body = get(base, "/healthz")
        assert status == 200 and body["kind"] == "serve.health"
        assert body["status"] == "ok"
        assert body["generation"] == 1
        assert body["uptime_s"] >= 0.0
        assert body["last_update"]["generation"] == 1
        assert body["last_update"]["certified"] is True
        assert "mode" not in body["last_update"]
        assert body["last_update"]["age_s"] >= 0.0
        status, body = get(base, "/stats")
        assert status == 200
        assert body["result"]["mode"] == "workspace"

    def test_metrics_scrape(self, server):
        base, _, _ = server
        post(base, {"op": "points-to", "params": {"name": "mine"}})
        request = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            content_type = response.headers["Content-Type"]
            text = response.read().decode("utf-8")
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        # Well-formed exposition: every line is a comment or name{...} value.
        for line in text.splitlines():
            assert line.startswith("#") or " " in line, line
        assert "serve_queries_total" in text
        assert 'serve_request_seconds_bucket{le="+Inf",op="points-to"}' \
            in text
        assert "serve_request_seconds_count{op=" in text

    def test_unknown_path_is_404(self, server):
        base, _, _ = server
        assert get(base, "/nope")[0] == 404
        assert post(base, {"op": "ping"}, path="/nope")[0] == 404

    def test_shutdown_op_stops_the_server(self, server):
        base, server_obj, thread = server
        status, body = post(base, {"op": "shutdown"})
        assert status == 200 and body["result"]["stopping"]
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_concurrent_queries(self, server):
        base, _, _ = server
        results = []

        def worker(name):
            results.append(post(base, {"op": "points-to",
                                       "params": {"name": name}}))

        threads = [threading.Thread(target=worker, args=("mine",))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert len(results) == 8
        assert all(status == 200 and body["ok"]
                   for status, body in results)


class TestContentLength:
    """POST /query checks Content-Length before it reads a byte of the
    body: 400 for missing, non-integer or negative, 413 above the cap."""

    @pytest.mark.parametrize("value", [
        "-1", "-10000000000",
        pytest.param("-" + "1" * 5000, id="-5000-digits")])
    def test_negative_length_is_400(self, server, value):
        base, _, _ = server
        reply = raw_post(base, [f"Content-Length: {value}"])
        assert reply is not None, "no answer: the server blocked reading"
        status, body = reply
        assert status == 400 and not body["ok"]
        assert "Content-Length" in body["error"]

    @pytest.mark.parametrize("value", [
        "abc", "12x", "1.5", "1_0", "",
        pytest.param("0" * 60000 + "x", id="zeros-then-junk")])
    def test_non_integer_length_is_400(self, server, value):
        base, _, _ = server
        reply = raw_post(base, [f"Content-Length: {value}"],
                         body=b'{"op": "ping"}')
        assert reply is not None
        status, body = reply
        assert status == 400 and not body["ok"]
        assert "Content-Length" in body["error"]

    def test_missing_length_is_400(self, server):
        base, _, _ = server
        reply = raw_post(base, [])
        assert reply is not None
        status, body = reply
        assert status == 400 and "missing Content-Length" in body["error"]

    @pytest.mark.parametrize("length", [
        MAX_BODY_BYTES + 1, 10000000000,
        pytest.param("1" + "0" * 5000, id="5001-digits")])
    def test_oversized_length_is_413_unread(self, server, length):
        base, _, _ = server
        reply = raw_post(base, [f"Content-Length: {length}"])
        assert reply is not None, "no answer: the server tried to read"
        status, body = reply
        assert status == 413 and not body["ok"]
        assert str(MAX_BODY_BYTES) in body["error"]

    def test_leading_zeros_do_not_count(self, server):
        base, _, _ = server
        payload = b'{"op": "ping"}'
        status, body = raw_post(
            base, [f"Content-Length: {'0' * 5000}{len(payload)}"],
            body=payload)
        assert status == 200 and body["ok"]

    def test_daemon_keeps_serving_after_bad_lengths(self, server):
        base, _, _ = server
        raw_post(base, ["Content-Length: -1"])
        raw_post(base, [f"Content-Length: {MAX_BODY_BYTES + 1}"])
        payload = json.dumps({"op": "points-to",
                              "params": {"name": "mine"}}).encode()
        status, body = raw_post(
            base, [f"Content-Length: {len(payload)}"], body=payload
        )
        assert status == 200
        assert body["result"]["points_to"] == {"mine": ["shared"]}


class TestStalledClient:
    def test_half_request_line_frees_its_handler(self, server, monkeypatch):
        """A client that sends half a request line and stalls holds its
        handler thread only until the request timeout."""
        monkeypatch.setattr(http_module, "REQUEST_TIMEOUT_S", 0.2)
        base = server[0]
        host, port = base.rsplit("/", 1)[1].split(":")
        before = set(threading.enumerate())
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"POST /que")
            handlers = []
            for _ in range(100):
                handlers = [t for t in threading.enumerate()
                            if t not in before
                            and "process_request" in t.name]
                if handlers:
                    break
                time.sleep(0.05)
            assert len(handlers) == 1
            handlers[0].join(timeout=5)
            assert not handlers[0].is_alive()
            assert sock.recv(1) == b""  # the daemon hung up
        status, response = post(base, {"op": "ping"})
        assert status == 200 and response["ok"]
