"""Property test of the request protocol: no request, however malformed,
gets a malformed answer, moves a failed generation or stops the daemon.

Requests are arbitrary JSON values: every op the session serves
(``KNOWN_OPS``, so no ``shutdown``) and unknown ones, arbitrary ids, and
params that mix the keys the ops read, values from the served program and
any other JSON, strings with lone surrogates included (JSON can carry
them).
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.driver.incremental import Workspace
from repro.serve import ServeSession, handle_request
from repro.serve.session import KNOWN_OPS

from .conftest import HEADER, SOURCE_A, SOURCE_B, SOURCE_B_GROWN

text = st.text(st.characters(exclude_categories=()), max_size=12)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(text, inner, max_size=3),
    max_leaves=8,
)

names = st.sampled_from(["mine", "gp", "shared"]) | text

#: Edits that build, that do not, and that no source file can hold.
edits = st.sampled_from([
    SOURCE_B_GROWN, SOURCE_B, "int broken(", '#include "b.c"\n',
    "int \ud800;",
]) | text

#: Per op, (required, optional) params shaped like the ones it reads.
SHAPED = {
    "points-to": ({"name": names}, {}),
    "alias": ({"a": names, "b": names}, {}),
    "chain": ({"target": names}, {
        "limit": st.integers(-1, 3),
        "min_strength": st.sampled_from(["weak", "strong", "none"]),
        "non_targets": st.lists(names, max_size=2),
    }),
    "update": ({
        "file": st.sampled_from(["a.c", "b.c", "c.c", "defs.h"]) | text,
        "text": edits,
    }, {"kind": st.sampled_from(["source", "header"])}),
    "traces": ({}, {"limit": st.integers(-1, 3)}),
}

SERVED = list(KNOWN_OPS)
#: Updates are the requests that change state: draw them more often.
WEIGHTED = SERVED + ["update"] * 3


@st.composite
def requests(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)  # not even an object, mostly
    # Three in four requests name an op the daemon serves.
    op = draw(st.sampled_from(WEIGHTED) if draw(st.integers(0, 3))
              else json_values)
    request = {"op": op}
    shape = SHAPED.get(op) if isinstance(op, str) else None
    if shape is not None and draw(st.integers(0, 3)):
        required, optional = shape
        params = draw(st.fixed_dictionaries(required, optional=optional))
        if draw(st.booleans()):  # one key, known or not, holds any JSON
            key = draw(st.sampled_from([*required, *optional, "x"]) | text)
            params[key] = draw(json_values)
        request["params"] = params
    elif draw(st.booleans()):
        request["params"] = draw(
            json_values | st.dictionaries(text, json_values, max_size=3))
    if draw(st.booleans()):
        request["id"] = draw(json_values)
    return request


def new_session() -> ServeSession:
    workspace = Workspace()
    workspace.add_header("defs.h", HEADER)
    workspace.add_source("a.c", SOURCE_A)
    workspace.add_source("b.c", SOURCE_B)
    return ServeSession(workspace=workspace)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batch=st.lists(requests(), min_size=1, max_size=6))
def test_every_request_gets_a_well_formed_answer(batch):
    session = new_session()
    try:
        for request in batch:
            generation = session.generation
            response, stop = handle_request(session, request)
            assert not stop
            assert isinstance(response, dict)
            json.dumps(response)
            assert isinstance(response["ok"], bool)
            assert ("result" in response) != ("error" in response)
            assert response["ok"] == ("result" in response)
            if not response["ok"]:
                assert session.generation == generation
        pong, _stop = handle_request(session, {"op": "ping", "id": 1})
        assert pong["ok"] and pong["id"] == 1
    finally:
        session.close()
        session.workspace.close()
