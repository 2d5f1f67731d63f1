"""Pin what the C frontend produces, token by token and row by row.

Each case of ``tests/cla/corpus.py`` (every ``repro.synth`` profile at
scale 0.01, seed 0, and the paper's Figure 1, 3 and 4 programs) gets two
sha256 digests:

- ``tokens``: every source file's preprocessed token stream, one entry
  per token: kind, value, filename, line, column, ``spaced``,
  ``at_line_start`` and the sorted ``no_expand`` set;
- ``lowered``: every row, object and record ``compile_source`` lowers
  those files to, each with its full ``Location`` (column included).

Object files keep only a location's line, so the format pins cannot see
a column or spacing slip; these can.  A change to the frontend's speed
must reproduce both digests exactly.  After a deliberate change to what
the frontend produces, regenerate ``frontend_pins.json`` with::

    PYTHONPATH=src python -m tests.cfront.test_frontend_pins > tests/cfront/frontend_pins.json

and say why in the change.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

import pytest

from repro.cfront import Preprocessor, SourceFile
from repro.cfront.source import Location
from repro.engine.pipeline import CompileOptions, compile_source

from ..cla.corpus import CASES, case_sources

PINS_PATH = Path(__file__).parent / "frontend_pins.json"


def _sha256(items) -> str:
    return hashlib.sha256(
        json.dumps(items, separators=(",", ":")).encode()).hexdigest()


def _plain(value):
    """``value`` as JSON: locations in full, enums by name, records by
    field."""
    if isinstance(value, Location):
        return [value.filename, value.line, value.column]
    if isinstance(value, enum.Enum):
        return value.name
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def _options(headers: dict[str, str]) -> CompileOptions:
    options = CompileOptions()
    options.virtual_files.update(headers)
    return options


def token_stream(sources: dict[str, str], headers: dict[str, str]) -> list:
    options = _options(headers)
    out = []
    for filename, text in sorted(sources.items()):
        tokens = Preprocessor(
            resolver=options.resolver(), predefined=options.predefined,
        ).preprocess(SourceFile(filename, text))
        out.append([filename, [
            [t.kind.name, t.value, t.location.filename, t.location.line,
             t.location.column, t.spaced, t.at_line_start,
             sorted(t.no_expand)]
            for t in tokens
        ]])
    return out


def lowered(sources: dict[str, str], headers: dict[str, str]) -> list:
    options = _options(headers)
    out = []
    for filename, text in sorted(sources.items()):
        unit = compile_source(text, filename=filename, options=options)
        out.append([filename, {
            "objects": _plain(list(unit.objects.values())),
            "assignments": _plain(unit.assignments),
            "function_records": _plain(list(unit.function_records.values())),
            "indirect_calls": _plain(list(unit.indirect_calls.values())),
            "call_sites": _plain(unit.call_sites),
            "source_lines": unit.source_lines,
        }])
    return out


def fingerprint(case: str) -> dict[str, str]:
    sources, headers = case_sources(case)
    return {
        "tokens": _sha256(token_stream(sources, headers)),
        "lowered": _sha256(lowered(sources, headers)),
    }


def pins() -> dict[str, dict[str, str]]:
    # Read on use, so the regeneration command above may truncate the
    # file before this module runs.
    return json.loads(PINS_PATH.read_text())


def test_pins_cover_every_case():
    assert sorted(pins()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_frontend_pin(case):
    assert fingerprint(case) == pins()[case]


if __name__ == "__main__":
    print(json.dumps({case: fingerprint(case) for case in CASES},
                     indent=1, sort_keys=True))
