"""The serve subsystem: warm fixpoints behind a query API (ROADMAP item 1).

The paper's motivating application was a *deployed interactive tool* at
Lucent: a precomputed database answering alias queries on demand.  This
package is that shape for the reproduction — a daemon that solves a linked
database (or a :class:`~repro.driver.incremental.Workspace`) to fixpoint
once, holds the interned universe and points-to bitmasks warm in memory,
and answers queries over two front ends:

* :mod:`repro.serve.jsonl` — a stdin/stdout JSONL protocol (one request
  object per line, one response per line);
* :mod:`repro.serve.http` — the same protocol over HTTP+JSON
  (``POST /query``), via a threading server.

Both share :mod:`repro.serve.protocol` (request dispatch) and
:class:`repro.serve.session.ServeSession` (the warm state: store, solved
result, bounded LRU query cache, per-query latency counters, incremental
rebuild and whole re-solve on update).  See docs/SERVING.md for the protocol reference.
"""

from .cache import QueryCache
from .http import make_http_server
from .jsonl import serve_jsonl
from .protocol import PROTOCOL_VERSION, handle_request
from .session import CertificationError, ServeError, ServeSession
from .telemetry import ResourceTicker, TraceRing

__all__ = [
    "CertificationError",
    "PROTOCOL_VERSION",
    "QueryCache",
    "ResourceTicker",
    "ServeError",
    "ServeSession",
    "TraceRing",
    "handle_request",
    "make_http_server",
    "serve_jsonl",
]
