"""The table-driven reader against the per-row reference decoder.

Both read the same real files (see ``corpus.py``): every synth profile's
object files and linked database, and the Figure 1/3/4 programs.  They
must return equal statics, objects, call sites and blocks (rows,
function records and indirect-call records), the same ``find_targets``
names in the same order, and ``None`` for absent names.
"""

import pytest

from repro.cla.reader import DatabaseStore, ObjectFileReader
from repro.cla.store import simple_name_of

from .corpus import CASES
from .reference_reader import ReferenceReader

ABSENT = ["", "no_such_object", "a.c::f::missing", "S.nope", "$ret"]


def assert_same_decode(path: str) -> None:
    with ObjectFileReader(path) as new, ReferenceReader(path) as ref:
        assert new.static_assignments() == ref.static_assignments()
        assert list(new.objects()) == ref.objects()
        assert new.call_sites() == ref.call_sites()
        assert new.object_count() == ref.object_count()
        assert new.assignment_count() == ref.assignment_count()
        assert list(new.block_names()) == ref.block_names()
        for name in ref.block_names():
            assert new.load_block(name) == ref.load_block(name), name
        simple_names = set()
        for obj in ref.objects():
            assert new.find_object(obj.name) == obj
            simple_names.add(simple_name_of(obj.name))
        for simple in sorted(simple_names):
            assert new.find_targets(simple) == ref.find_targets(simple)
        for name in ABSENT:
            assert new.find_object(name) is None
            assert new.load_block(name) is None
            assert new.find_targets(name) == ref.find_targets(name) == []


@pytest.mark.parametrize("case", CASES)
def test_reader_matches_reference(cla_corpus, case):
    paths = cla_corpus[case]
    assert paths[-1].endswith("program.cla") and len(paths) >= 2
    for path in paths:
        assert_same_decode(path)


class TestFreshDecode:
    """The reader shares only immutable values between calls: every call
    returns new rows, objects and records."""

    def test_blocks_are_fresh(self, cla_corpus):
        database = cla_corpus["nethack"][-1]
        with ObjectFileReader(database) as reader:
            for name in reader.block_names():
                first, second = reader.load_block(name), reader.load_block(name)
                assert first == second
                assert first is not second
                assert first.obj is not second.obj
                for a, b in zip(first.assignments, second.assignments):
                    assert a is not b
                if first.function_record is not None:
                    assert first.function_record.args \
                        is not second.function_record.args

    def test_mutating_a_row_does_not_leak(self, cla_corpus):
        database = cla_corpus["gcc"][-1]
        with ObjectFileReader(database) as reader:
            name = next(n for n in reader.block_names()
                        if reader.load_block(n).assignments)
            reader.load_block(name).assignments[0].dst = "mutated"
            assert reader.load_block(name).assignments[0].dst != "mutated"
            statics = reader.static_assignments()
            statics[0].src = "mutated"
            assert reader.static_assignments()[0].src != "mutated"
            simple = simple_name_of(next(reader.objects()).name)
            reader.find_targets(simple).append("mutated")
            assert "mutated" not in reader.find_targets(simple)


class TestDatabaseStoreObjects:
    def test_object_names_fill_the_cache(self, cla_corpus, monkeypatch):
        """One pass over ``object_names()`` decodes every object; the
        ``get_object`` sweep after it (``_scan_functions``, the oracle)
        never asks the reader again."""
        with DatabaseStore.open(cla_corpus["emacs"][-1]) as store:
            names = list(store.object_names())
            assert names == [o.name for o in store.reader.objects()]

            def no_lookup(name):
                raise AssertionError(f"decoded {name} twice")

            monkeypatch.setattr(store.reader, "find_object", no_lookup)
            for name in names:
                assert store.get_object(name).name == name

    def test_object_names_keep_earlier_objects(self, cla_corpus):
        with DatabaseStore.open(cla_corpus["emacs"][-1]) as store:
            name = next(store.reader.objects()).name
            first = store.get_object(name)
            list(store.object_names())
            assert store.get_object(name) is first
