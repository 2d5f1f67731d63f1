"""The stdin/stdout JSONL transport: one request per line, one response
per line, in order.

The default transport of ``repro-cla serve`` — an editor plugin or test
driver owns the daemon as a child process and speaks newline-delimited
JSON over its pipes.  The first line out is the ``serve.hello`` greeting
(suppress with ``hello=False``); a ``shutdown`` request (or EOF) ends the
loop.  Responses are flushed per line so a pipelined client never
deadlocks on buffering.
"""

from __future__ import annotations

import json
import sys
from typing import IO

from .protocol import handle_request, hello
from .session import ServeSession


def serve_jsonl(
    session: ServeSession,
    in_stream: IO[str] | None = None,
    out_stream: IO[str] | None = None,
    greet: bool = True,
) -> int:
    """Serve requests line by line until EOF or ``shutdown``; returns the
    number of requests answered.  Undecodable lines get an error response
    (the daemon survives them); blank lines are ignored."""
    in_stream = sys.stdin if in_stream is None else in_stream
    out_stream = sys.stdout if out_stream is None else out_stream

    def write(record: dict) -> None:
        out_stream.write(json.dumps(record, sort_keys=True) + "\n")
        out_stream.flush()

    if greet:
        write(hello(session))
    answered = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and an integer literal
            # over Python's int-string limit; RecursionError, nesting
            # deeper than the decoder goes.
            write({"ok": False, "error": f"invalid JSON: {exc}"})
            answered += 1
            continue
        response, stop = handle_request(session, request)
        write(response)
        answered += 1
        if stop:
            break
    return answered
