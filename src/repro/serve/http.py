"""The HTTP+JSON transport: the same protocol behind ``POST /query``.

Stdlib-only (:class:`http.server.ThreadingHTTPServer`); the session's own
lock serialises request handling, so concurrent HTTP clients are safe.

Routes:

* ``POST /query`` — body is one protocol request object; response is the
  protocol envelope.  A ``shutdown`` op answers, then stops the server.
* ``GET /stats``   — shorthand for ``{"op": "stats"}``.
* ``GET /healthz`` — liveness + freshness: status, generation, uptime,
  and the last (re)solve's cost/age, status 200.
* ``GET /metrics`` — the whole process :class:`MetricsRegistry`
  (counters, gauges, latency histograms) as Prometheus text exposition;
  any off-the-shelf scraper can poll it.

Client mistakes are HTTP 400 with a protocol-shaped error body; unknown
paths are 404.  A ``POST`` body is read only after its ``Content-Length``
checks out: a missing, non-integer or negative length is a 400 and one
above :data:`MAX_BODY_BYTES` a 413, both answered without reading the
body (and the connection is closed, since its unread body cannot be
told from the next request).  A connection that sends nothing for
:data:`REQUEST_TIMEOUT_S` — a client stalled mid-request, or an idle
keep-alive — is closed, which frees its handler thread.  Per-request
access logging is off (the event ledger is the daemon's log).
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..engine.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from ..engine.prom import render_prometheus
from .protocol import handle_request
from .session import MAX_BODY_BYTES, ServeSession

#: Seconds a connection may go without sending a byte before the daemon
#: closes it.
REQUEST_TIMEOUT_S = 30.0

_DECIMAL = re.compile(r"-?[0-9]+")
#: No length with more significant digits than this fits the cap.
_MAX_DIGITS = len(str(MAX_BODY_BYTES))


class _ServeHandler(BaseHTTPRequestHandler):
    server_version = "repro-cla-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def timeout(self) -> float:  # read by StreamRequestHandler.setup
        return REQUEST_TIMEOUT_S

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    @property
    def session(self) -> ServeSession:
        return self.server.session  # type: ignore[attr-defined]

    def _reply(self, status: int, payload: dict) -> None:
        self._reply_raw(
            status,
            json.dumps(payload, sort_keys=True).encode(),
            "application/json",
        )

    def _reply_raw(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802
        if self.path == "/healthz":
            self._reply(200, self.session.health())
        elif self.path == "/metrics":
            self.session.flush_telemetry()
            self._reply_raw(
                200, render_prometheus().encode(), PROM_CONTENT_TYPE
            )
        elif self.path == "/stats":
            response, _stop = handle_request(self.session, {"op": "stats"})
            self._reply(200, response)
        else:
            self._reply(404, {"ok": False,
                              "error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        if self.path != "/query":
            self._reply(404, {"ok": False,
                              "error": f"unknown path {self.path!r}"})
            return
        length = self._body_length()
        if length is None:
            return
        try:
            request = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError, a body that is not text in
            # any encoding json.loads detects (UnicodeDecodeError) and an
            # integer literal over Python's int-string limit;
            # RecursionError, nesting deeper than the decoder goes.
            self._reply(400, {"ok": False, "error": f"invalid JSON: {exc}"})
            return
        response, stop = handle_request(self.session, request)
        self._reply(200 if response.get("ok") else 400, response)
        if stop:
            # shutdown() joins the serve loop; must come from another
            # thread or this handler deadlocks on itself.
            threading.Thread(target=self.server.shutdown,
                             daemon=True).start()

    def _body_length(self) -> int | None:
        """The request's ``Content-Length``, or None once a bad one has
        been answered (400 missing/non-integer/negative, 413 too large)."""
        value = self.headers.get("Content-Length")
        text = (value or "").strip()
        # The significant digits decide: counting them first keeps int()
        # off a value past Python's int-string limit, where it raises.
        digits = text.lstrip("-").lstrip("0") or "0"
        if value is None:
            status, error = 400, "missing Content-Length"
        elif not _DECIMAL.fullmatch(text):
            status, error = 400, f"non-integer Content-Length {value!r}"
        elif text.startswith("-") and digits != "0":
            status, error = 400, f"negative Content-Length {value!r}"
        elif len(digits) > _MAX_DIGITS or int(digits) > MAX_BODY_BYTES:
            status, error = 413, (f"Content-Length {digits} exceeds "
                                  f"the {MAX_BODY_BYTES}-byte limit")
        else:
            return int(digits)
        self.close_connection = True
        self._reply(status, {"ok": False, "error": error})
        return None


def make_http_server(
    session: ServeSession, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """A bound (not yet serving) server; ``port=0`` picks a free port
    (``server.server_address`` has the real one)."""
    server = ThreadingHTTPServer((host, port), _ServeHandler)
    server.daemon_threads = True
    server.session = session  # type: ignore[attr-defined]
    return server


def serve_http(
    session: ServeSession, host: str = "127.0.0.1", port: int = 8077
) -> None:
    """Serve until a ``shutdown`` request (or KeyboardInterrupt)."""
    server = make_http_server(session, host, port)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
