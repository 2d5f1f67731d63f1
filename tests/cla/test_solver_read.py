"""The solvers' read against the full decode, and objects on demand.

A solver reads a store through ``static_triples``/``load_triples``: each
row's ``(kind, dst, src)`` and nothing else.  On every synth profile at
scale 0.01, seed 0, and the Figure 1/3/4 programs, each compiled under
all three struct models, every store (a ``DatabaseStore``, a
``MemoryStore`` of the same units, and a ``BlockCache`` over the database
with no budget and with a statics-only one) must hand out exactly the
``(a.kind, a.dst, a.src)`` of the rows its ``fetch_statics`` and
``fetch_block`` decode, block by block and in order, and count them as
``static_assignments`` and ``load_block`` do.  A corrupt row raises the
same error through both decoders.

A solve decodes no object: ``result.objects`` asks the store for one
only when it is read, and reads as the eager decode did, also after the
store is closed.  Table 3's counts read only the ``temps`` set.
"""

import dataclasses

import pytest

from repro.cla import objfile as F
from repro.cla.cache import BlockCache
from repro.cla.objfile import ClaFormatError
from repro.cla.reader import DatabaseStore
from repro.cla.store import MemoryStore
from repro.cla.writer import ObjectFileWriter, write_unit
from repro.engine.pipeline import CompileOptions, compile_source
from repro.ir.lower import UnitIR
from repro.ir.objects import ObjectKind
from repro.ir.primitives import PrimitiveAssignment, PrimitiveKind
from repro.solvers import SOLVERS, PreTransitiveSolver

from .corpus import CASES, case_sources
from .reference_reader import ReferenceReader

MODELS = ["field_based", "field_independent", "offset_based"]
STORES = ["database", "memory", "cached", "cached-statics"]
ABSENT = ["", "no_such_object", "$ret"]


@pytest.fixture(scope="module")
def build(tmp_path_factory):
    """``build(case, model)`` -> (units, linked database path), compiled
    once per module."""
    built = {}

    def get(case: str, model: str):
        if (case, model) not in built:
            sources, headers = case_sources(case)
            options = CompileOptions(struct_model=model)
            options.virtual_files.update(headers)
            units = [compile_source(text, filename=name, options=options)
                     for name, text in sorted(sources.items())]
            path = str(tmp_path_factory.mktemp(f"{case}-{model}")
                       / "program.cla")
            ObjectFileWriter(MemoryStore(units), linked=True).write(path)
            built[case, model] = units, path
        return built[case, model]

    return get


def open_store(kind: str, units, path: str):
    if kind == "memory":
        return MemoryStore(units)
    database = DatabaseStore.open(path)
    if kind == "database":
        return database
    if kind == "cached":
        return BlockCache(database)
    return BlockCache(database, len(database.fetch_statics()))


def triples(rows) -> list:
    return [(a.kind, a.dst, a.src) for a in rows]


@pytest.mark.parametrize("store_kind", STORES)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("case", CASES)
def test_triples_are_the_decoded_rows(build, case, model, store_kind):
    store = open_store(store_kind, *build(case, model))
    try:
        assert list(store.static_triples()) == triples(store.fetch_statics())
        for name in store.block_names():
            assert list(store.load_triples(name)) == \
                triples(store.fetch_block(name).assignments), name
        for name in ABSENT:
            assert list(store.load_triples(name)) == []
    finally:
        store.close()


def _stats(store) -> tuple:
    return dataclasses.astuple(store.stats)


@pytest.mark.parametrize("store_kind", STORES)
@pytest.mark.parametrize("case", ["gcc", "emacs", "figure4"])
def test_triple_reads_count_as_row_reads(build, case, store_kind):
    """The same requests, once through the triple reads and once through
    ``static_assignments``/``load_block``, move every ``LoadStats`` field
    alike after each request: first loads, repeats (hits, or reloads
    where the store re-parses), absent names, a second solve's restart,
    and a block read through one form and then the other."""
    units, path = build(case, "field_based")
    by_rows = open_store(store_kind, units, path)
    by_triples = open_store(store_kind, units, path)
    try:
        names = list(by_rows.block_names())
        assert names
        requests = ([None] + names + ABSENT + names[::-1] + [None])
        for restart in (False, True):
            if restart:
                by_rows.restart_counts()
                by_triples.restart_counts()
            for name in requests:
                if name is None:
                    by_rows.static_assignments()
                    by_triples.static_triples()
                else:
                    by_rows.load_block(name)
                    by_triples.load_triples(name)
                assert _stats(by_triples) == _stats(by_rows), name
        by_rows.restart_counts()
        by_triples.restart_counts()
        for name in names[:5]:
            by_rows.load_block(name)
            by_rows.load_block(name)
            by_triples.load_triples(name)
            by_triples.load_block(name)
            assert _stats(by_triples) == _stats(by_rows), name
    finally:
        by_rows.close()
        by_triples.close()


class TestCorruptRows:
    """A corrupt row raises the same :class:`ClaFormatError` through the
    solvers' read as through the full decode: every kind and strength
    byte and every string ref (dst, src, op, file) is checked, in row
    order, by both."""

    #: row field -> its byte offset in a 24-byte assignment record
    FIELDS = {"kind": 0, "strength": 1, "dst": 4, "src": 8, "op": 12,
              "file": 16}

    def database(self, tmp_path, patches) -> str:
        """Two static rows (``p = &x``, ``r = &y``) and one block (``p``:
        ``q = p``); ``patches`` are (section, row, field, value)."""
        path = str(tmp_path / "db.cla")
        write_unit(UnitIR(filename="c.c", assignments=[
            PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="p", src="x"),
            PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="r", src="y"),
            PrimitiveAssignment(kind=PrimitiveKind.COPY, dst="q", src="p"),
        ]), path)
        with DatabaseStore.open(path) as store:
            starts = {
                "static": store.sections[F.SEC_STATIC][0] + F.COUNT.size,
                "block": store.sections[F.SEC_DYNAMIC][0]
                + F.BLOCK_HEADER.size,
            }
        with open(path, "rb") as f:
            data = bytearray(f.read())
        for section, row, field, value in patches:
            at = (starts[section] + row * F.ASSIGNMENT_ENTRY.size
                  + self.FIELDS[field])
            width = 1 if field in ("kind", "strength") else 4
            data[at:at + width] = value.to_bytes(width, "little")
        with open(path, "wb") as f:
            f.write(data)
        return path

    @staticmethod
    def message(read) -> str:
        with pytest.raises(ClaFormatError) as excinfo:
            read()
        return str(excinfo.value)

    def reads(self, path: str, section: str):
        """The full decode and the solvers' read of one section, each on
        a store of its own."""
        full, solver = DatabaseStore.open(path), DatabaseStore.open(path)
        if section == "static":
            return (full, full.fetch_statics), (solver, solver.static_triples)
        return ((full, lambda: full.fetch_block("p")),
                (solver, lambda: solver.load_triples("p")))

    # Each TestCorruptRecords case that corrupts a row, then every other
    # checked field, in each section.
    @pytest.mark.parametrize("section", ["static", "block"])
    @pytest.mark.parametrize("field,value,fragment", [
        ("dst", 1_000_000, "string ref 1000000 does not start a string"),
        ("dst", 2, "string ref 2 does not start a string"),
        ("file", 1_000_000, "string ref 1000000 does not start a string"),
        ("kind", 99, "bad assignment kind or strength 99"),
        ("strength", 77, "bad assignment kind or strength 77"),
        ("src", 1_000_001, "string ref 1000001 does not start a string"),
        ("op", 1_000_002, "string ref 1000002 does not start a string"),
    ])
    def test_one_bad_field(self, tmp_path, section, field, value, fragment):
        path = self.database(tmp_path, [(section, 0, field, value)])
        (full, decode), (solver, read) = self.reads(path, section)
        try:
            message = self.message(decode)
            assert path in message and fragment in message
            assert self.message(read) == message
        finally:
            full.close()
            solver.close()

    @pytest.mark.parametrize("first,second", [
        ("op", "dst"), ("file", "kind"), ("strength", "src"),
    ])
    def test_first_bad_field_in_row_order(self, tmp_path, first, second):
        """Two corrupt rows: both decoders name the first row's field."""
        values = {"kind": 99, "strength": 77}
        path = self.database(tmp_path, [
            ("static", 0, first, values.get(first, 1_000_000)),
            ("static", 1, second, values.get(second, 1_000_001)),
        ])
        (full, decode), (solver, read) = self.reads(path, "static")
        try:
            message = self.message(decode)
            assert self.message(read) == message
            assert ("1000000" if first not in values
                    else str(values[first])) in message
        finally:
            full.close()
            solver.close()

    def test_assignment_count_past_dynamic_section(self, tmp_path):
        path = self.database(tmp_path, [])
        with DatabaseStore.open(path) as store:
            dynamic = store.sections[F.SEC_DYNAMIC][0]
        with open(path, "r+b") as f:
            f.seek(dynamic + 4)  # n_assignments of the only block header
            f.write((1_000_000).to_bytes(4, "little"))
        with DatabaseStore.open(path) as store:
            message = self.message(lambda: store.fetch_block("p"))
            assert "block 'p': assignments past the end" in message
            assert self.message(lambda: store.load_triples("p")) == message


# -- objects on demand ---------------------------------------------------------


def _fields(obj) -> dict:
    """Every field of a program object: ``ProgramObject.__eq__`` compares
    names only."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("case", CASES)
def test_solve_decodes_no_object(cla_corpus, case, solver, monkeypatch):
    """Open + solve + Table 3's two counts decode no ``global`` entry."""
    decoded = []

    def counting_decode(self, entry):
        decoded.append(entry)
        return decode(self, entry)

    decode = DatabaseStore._object
    monkeypatch.setattr(DatabaseStore, "_object", counting_decode)
    with DatabaseStore.open(cla_corpus[case][-1]) as store:
        result = SOLVERS[solver](store).solve()
        result.pointer_variables()
        result.points_to_relations()
    assert decoded == []


def _eager(all_objects: dict, result) -> dict:
    """What ``result.objects`` held when ``_finalize`` decoded it: each
    name of the result the store knows, in the result's order."""
    return {name: _fields(all_objects[name]) for name in result.pts
            if name in all_objects}


def _table3(eager: dict, result) -> tuple[int, int]:
    """Table 3's two counts as they were computed from the eager objects."""
    temps = {name for name, fields in eager.items()
             if fields["kind"] is ObjectKind.TEMP}
    sizes = [len(result.pts[name]) for name in result.pts
             if name not in temps]
    return sum(1 for size in sizes if size), sum(sizes)


@pytest.mark.parametrize("read_before_close", [True, False],
                         ids=["open", "closed"])
@pytest.mark.parametrize("store_kind", STORES)
@pytest.mark.parametrize("case", CASES)
def test_objects_read_as_the_eager_decode(build, case, store_kind,
                                          read_before_close):
    """``result.objects`` holds the eager decode's keys, order and every
    field, read first while the store is open or only once it is
    closed; ``temps`` is the store's TEMP objects, and Table 3's counts
    are those the eager objects gave (Figure 3's program holds a
    temporary with a non-empty points-to set)."""
    units, path = build(case, "field_based")
    if store_kind == "memory":
        all_objects = MemoryStore(units).objects
    else:
        with ReferenceReader(path) as ref:
            all_objects = {obj.name: obj for obj in ref.objects()}

    store = open_store(store_kind, units, path)
    result = PreTransitiveSolver(store).solve()
    if read_before_close:
        _check_objects(result, all_objects)
    store.close()
    eager = _check_objects(result, all_objects)
    assert (result.pointer_variables(), result.points_to_relations()) \
        == _table3(eager, result)


def _check_objects(result, all_objects: dict) -> dict:
    eager = _eager(all_objects, result)
    assert eager
    assert list(result.objects) == list(eager)
    assert len(result.objects) == len(eager)
    assert {name: _fields(obj) for name, obj in result.objects.items()} \
        == eager
    assert result.objects == {name: all_objects[name] for name in eager}
    for name in ABSENT:
        assert name not in result.objects
        assert result.objects.get(name) is None
    assert result.temps == {name for name, obj in all_objects.items()
                            if obj.kind is ObjectKind.TEMP}
    return eager
