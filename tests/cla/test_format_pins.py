"""Pin the bytes of every object file and linked database in the corpus.

A change to the reader, or to the frontend behind it, must not move the
on-disk format by accident.  The pins in ``format_pins.json`` are sha256
digests of each file of ``corpus.py``'s cases; after a deliberate format
or compiler change, regenerate them with ``python tests/cla/corpus.py``
(see that module) and say why in the change.
"""

import json
from pathlib import Path

from .corpus import pins

PINS = json.loads((Path(__file__).parent / "format_pins.json").read_text())


def test_format_pins(cla_corpus):
    assert pins(cla_corpus) == PINS
