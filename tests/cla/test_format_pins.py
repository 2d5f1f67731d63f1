"""Pin the bytes of every object file and linked database in the corpus.

A change to the reader, or to the frontend behind it, must not move the
on-disk format by accident, and every route to a linked database must
write the same bytes.  The pins in ``format_pins.json`` are sha256
digests of each file of ``corpus.py``'s cases; after a deliberate format
or compiler change, regenerate them with ``python tests/cla/corpus.py``
(see that module) and say why in the change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cla.store import MemoryStore
from repro.cla.transform import transform_file
from repro.cla.writer import ObjectFileWriter
from repro.driver.incremental import Workspace

from .corpus import CASES, case_sources, pins

PINS = json.loads((Path(__file__).parent / "format_pins.json").read_text())


def test_format_pins(cla_corpus):
    assert pins(cla_corpus) == PINS


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_every_route_links_the_same(cla_corpus, tmp_path, case):
    """The pinned ``program.cla`` is linked from object files on disk.
    Every other route to a linked database merges through the same
    store, so each writes the same bytes: in-memory units, a
    ``transform_file`` with no transform, and units written through the
    transform input."""
    sources, headers = case_sources(case)
    session = Workspace()
    for name, text in headers.items():
        session.add_header(name, text)
    for name, text in sources.items():
        session.add_source(name, text)
    routes = {
        "units": tmp_path / "units.cla",
        "transform_file": tmp_path / "transformed.cla",
        "transform_input": tmp_path / "input.cla",
    }
    session.pipeline.write_executable(session.store(), str(routes["units"]))
    transform_file(cla_corpus[case][-1], str(routes["transform_file"]), [])
    ObjectFileWriter(MemoryStore(session.store().to_unit()), linked=True) \
        .write(str(routes["transform_input"]))
    expected = PINS[f"{case}/program.cla"]
    assert {route: sha256(path) for route, path in routes.items()} == \
        dict.fromkeys(routes, expected)
