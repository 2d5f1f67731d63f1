"""Transport-independent request dispatch for the serve daemon.

Both front ends (:mod:`repro.serve.jsonl`, :mod:`repro.serve.http`) parse
their framing, then hand a plain dict to :func:`handle_request`.

Request::

    {"op": "points-to", "params": {"name": "p"}, "id": 7}

``op`` is required; ``params`` defaults to ``{}``; ``id``, if present, is
echoed verbatim in the response (clients may pipeline requests) and
doubles as the request's trace id — requests without an ``id`` get a
generated ``t<N>`` trace id instead.

Response envelope (from :meth:`~repro.serve.session.ServeSession.request`,
plus the echoed ``id``)::

    {"id": 7, "ok": true, "op": "points-to", "trace": "7",
     "generation": 1, "cache_hit": false, "wall_ms": 0.42,
     "result": {...}}

Failures carry ``"ok": false`` and an ``"error"`` string instead of
``result``.  The one op handled here rather than in the session is
``shutdown`` — stopping is a transport concern, signalled to the caller
through the second element of the returned pair.
"""

from __future__ import annotations

from typing import Any

from .session import KNOWN_OPS, ServeSession

#: Bumped when the envelope or an op's payload changes incompatibly.
PROTOCOL_VERSION = 1


def _error(request_id: Any, message: str) -> dict:
    response: dict[str, Any] = {"ok": False, "error": message}
    if request_id is not None:
        response["id"] = request_id
    return response


def handle_request(
    session: ServeSession, request: Any
) -> tuple[dict, bool]:
    """Serve one decoded request; returns ``(response, stop)``.

    Never raises for client mistakes — malformed requests become error
    responses so one bad line cannot kill a pipelined batch.
    """
    if not isinstance(request, dict):
        return _error(None, "request must be a JSON object"), False
    request_id = request.get("id")
    op = request.get("op")
    if not isinstance(op, str) or not op:
        return _error(request_id, "missing op"), False
    if op == "shutdown":
        response = {"ok": True, "op": "shutdown",
                    "generation": session.generation,
                    "result": {"stopping": True}}
        if request_id is not None:
            response["id"] = request_id
        return response, True
    trace = str(request_id) if request_id is not None else None
    response = session.request(op, request.get("params"), trace=trace)
    if request_id is not None:
        response["id"] = request_id
    return response, False


def hello(session: ServeSession) -> dict:
    """The greeting record both transports announce themselves with."""
    return {
        "kind": "serve.hello",
        "protocol": PROTOCOL_VERSION,
        "solver": session.solver,
        "generation": session.generation,
        "ops": sorted((*KNOWN_OPS, "shutdown")),
    }
