"""The table-driven store against the per-row reference decoder.

Both read the same real files (see ``corpus.py``): every synth profile's
object files and linked database, and the Figure 1/3/4 programs.  They
must return equal statics, objects, call sites and blocks (rows,
function records and indirect-call records), the same ``find_targets``
names in the same order, and ``None`` for absent names.  The same corpus
pins what an open + solve decodes (each object at most once, no row
location), and that rows and objects read in full, locations included,
after their store is closed.
"""

import dataclasses
from collections import Counter

import pytest

from repro.cfront.source import Location
from repro.cla import reader as reader_module
from repro.cla.linker import absorb_object_files
from repro.cla.reader import DatabaseStore
from repro.cla.store import simple_name_of
from repro.engine.pipeline import Pipeline
from repro.solvers import PreTransitiveSolver

from .corpus import CASES
from .reference_reader import ReferenceReader

ABSENT = ["", "no_such_object", "a.c::f::missing", "S.nope", "$ret"]


def assert_same_decode(path: str) -> None:
    with DatabaseStore.open(path) as new, ReferenceReader(path) as ref:
        assert new.fetch_statics() == ref.static_assignments()
        assert [_fields(o) for o in new.objects()] == \
            [_fields(o) for o in ref.objects()]
        assert new.call_sites() == ref.call_sites()
        assert new.object_count() == ref.object_count()
        assert new.stats.in_file == ref.assignment_count()
        assert list(new.block_names()) == ref.block_names()
        for name in ref.block_names():
            assert new.fetch_block(name) == ref.load_block(name), name
        simple_names = set()
        for obj in ref.objects():
            assert _fields(new.get_object(obj.name)) == _fields(obj)
            simple_names.add(simple_name_of(obj.name))
        for simple in sorted(simple_names):
            assert new.find_targets(simple) == ref.find_targets(simple)
        for name in ABSENT:
            assert new.get_object(name) is None
            assert new.fetch_block(name) is None
            assert new.find_targets(name) == ref.find_targets(name) == []


@pytest.mark.parametrize("case", CASES)
def test_reader_matches_reference(cla_corpus, case):
    paths = cla_corpus[case]
    assert paths[-1].endswith("program.cla") and len(paths) >= 2
    for path in paths:
        assert_same_decode(path)


class TestFreshDecode:
    """The raw reads share only immutable values between calls: every
    call returns new rows, objects and records."""

    def test_blocks_are_fresh(self, cla_corpus):
        database = cla_corpus["nethack"][-1]
        with DatabaseStore.open(database) as reader:
            for name in reader.block_names():
                first, second = reader.fetch_block(name), reader.fetch_block(name)
                assert first == second
                assert first is not second
                for a, b in zip(first.assignments, second.assignments):
                    assert a is not b
                if first.function_record is not None:
                    assert first.function_record.args \
                        is not second.function_record.args

    def test_mutating_a_row_does_not_leak(self, cla_corpus):
        database = cla_corpus["gcc"][-1]
        with DatabaseStore.open(database) as reader:
            name = next(n for n in reader.block_names()
                        if reader.fetch_block(n).assignments)
            reader.fetch_block(name).assignments[0].dst = "mutated"
            assert reader.fetch_block(name).assignments[0].dst != "mutated"
            statics = reader.fetch_statics()
            statics[0].src = "mutated"
            assert reader.fetch_statics()[0].src != "mutated"
            simple = simple_name_of(next(reader.objects()).name)
            reader.find_targets(simple).append("mutated")
            assert "mutated" not in reader.find_targets(simple)


class TestDatabaseStoreObjects:
    def test_object_names_decode_nothing(self, cla_corpus, monkeypatch):
        """``object_names()`` and ``object_flags()`` read the ``global``
        table; neither decodes an object."""
        with DatabaseStore.open(cla_corpus["emacs"][-1]) as store:

            def no_decode(entry):
                raise AssertionError(f"decoded {entry}")

            monkeypatch.setattr(store, "_object", no_decode)
            names = list(store.object_names())
            flags = store.object_flags()
            assert flags.functions and flags.non_pointers
        with ReferenceReader(cla_corpus["emacs"][-1]) as ref:
            assert names == [o.name for o in ref.objects()]

    def test_get_object_decodes_once(self, cla_corpus, monkeypatch):
        """``get_object`` decodes an entry the first time it is asked
        for, and a second call returns the same object."""
        with DatabaseStore.open(cla_corpus["emacs"][-1]) as store:
            names = list(store.object_names())[:50]
            first = {name: store.get_object(name) for name in names}

            def no_decode(entry):
                raise AssertionError(f"decoded {entry} twice")

            monkeypatch.setattr(store, "_object", no_decode)
            for name in names:
                assert store.get_object(name) is first[name]
                assert first[name].name == name

    def test_object_names_keep_earlier_objects(self, cla_corpus):
        with DatabaseStore.open(cla_corpus["emacs"][-1]) as store:
            name = next(store.objects()).name
            first = store.get_object(name)
            list(store.object_names())
            assert store.get_object(name) is first


def _fields(obj) -> dict:
    """Every field of a program object: ``ProgramObject.__eq__`` compares
    names only."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


@pytest.mark.parametrize("case", CASES)
def test_solve_decodes_only_what_it_reads(cla_corpus, case, monkeypatch):
    """Open + pre-transitive solve decodes each ``global`` entry at most
    once, and builds a :class:`Location` only for the function and
    indirect-call records of the blocks it loads: none for a row, none
    for an object."""
    decoded = Counter()
    built = []
    decode_object = DatabaseStore._object

    def counting_decode(self, entry):
        obj = decode_object(self, entry)
        decoded[obj.name] += 1
        return obj

    def counting_location(filename, line):
        built.append((filename, line))
        return Location(filename, line)

    monkeypatch.setattr(DatabaseStore, "_object", counting_decode)
    monkeypatch.setattr(reader_module, "Location", counting_location)
    with DatabaseStore.open(cla_corpus[case][-1]) as store:
        result = PreTransitiveSolver(store).solve()
        for obj in result.objects.values():
            obj.kind
        records = set()
        for name in store.block_names():
            block = store.fetch_block(name)
            for record in (block.function_record, block.indirect_record):
                if record is not None:
                    records.add((record.location.filename,
                                 record.location.line))
    assert decoded and max(decoded.values()) == 1
    assert set(decoded) == set(result.objects)
    assert len(built) == len(set(built))
    assert set(built) <= records


class TestAfterClose:
    """What a closed store handed out still reads in full: a location is
    built from the decoded string table, never from the map."""

    @pytest.mark.parametrize("case", ["emacs", "figure4"])
    def test_analyze_result_after_close(self, cla_corpus, case):
        database = cla_corpus[case][-1]
        pipeline = Pipeline()
        with pipeline.open_database(database) as store:
            result = pipeline.analyze(store)
        with DatabaseStore.open(database) as store:
            open_result = PreTransitiveSolver(store).solve()
            counts = (open_result.pointer_variables(),
                      open_result.points_to_relations())
        assert (result.pointer_variables(),
                result.points_to_relations()) == counts
        assert result.objects.keys() == open_result.objects.keys()
        with ReferenceReader(database) as ref:
            for name, obj in result.objects.items():
                assert _fields(obj) == _fields(ref.find_object(name)), name

    @pytest.mark.parametrize("case", ["gcc", "figure1"])
    def test_unit_read_back(self, cla_corpus, case):
        for path in (cla_corpus[case][0], cla_corpus[case][-1]):
            unit = absorb_object_files([path]).to_unit()
            with ReferenceReader(path) as ref:
                rows = ref.static_assignments()
                for name in ref.block_names():
                    rows.extend(ref.load_block(name).assignments)
                objects = {obj.name: _fields(obj) for obj in ref.objects()}
            assert unit.assignments == rows
            assert [a.location for a in unit.assignments] == \
                [a.location for a in rows]
            assert {name: _fields(obj)
                    for name, obj in unit.objects.items()} == objects
