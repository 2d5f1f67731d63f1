"""Round-trip tests for the CLA binary object-file format, including
property-based tests over randomly generated databases."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.source import Location
from repro.cla import objfile as F
from repro.cla.objfile import ClaFormatError, name_hash
from repro.cla.reader import DatabaseStore
from repro.cla.store import MemoryStore, trigger_object
from repro.cla.writer import ObjectFileWriter, write_unit
from repro.ir.lower import UnitIR
from repro.ir.objects import ObjectKind, ProgramObject
from repro.ir.primitives import (
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)
from repro.ir.strength import Strength

# -- strategies ------------------------------------------------------------

names = st.text(
    alphabet="abcxyz_$<>:.0123456789*",
    min_size=1,
    max_size=24,
).filter(lambda s: not s.isspace())

locations = st.builds(
    Location,
    filename=st.sampled_from(["a.c", "b.c", "<unknown>", "dir/longer_name.c"]),
    line=st.integers(min_value=0, max_value=1_000_000),
)

assignments = st.builds(
    PrimitiveAssignment,
    kind=st.sampled_from(list(PrimitiveKind)),
    dst=names,
    src=names,
    strength=st.sampled_from(list(Strength)),
    op=st.sampled_from(["", "+", "*", ">>", "%"]),
    location=locations,
)

objects = st.builds(
    ProgramObject,
    name=names,
    kind=st.sampled_from(list(ObjectKind)),
    type_str=st.sampled_from(["", "int", "short *", "struct S"]),
    location=locations,
    enclosing_function=st.sampled_from(["", "f", "a.c::g"]),
    is_global=st.booleans(),
    may_point=st.booleans(),
    is_funcptr=st.booleans(),
)


def unit_of(*assignments, **fields) -> UnitIR:
    """A unit holding ``assignments`` plus any other UnitIR ``fields``."""
    return UnitIR("t.c", assignments=list(assignments), **fields)


def write_and_read(tmp_path, unit):
    path = str(tmp_path / "t.o")
    write_unit(unit, path)
    return DatabaseStore.open(path)


# -- unit tests ------------------------------------------------------------


class TestHeader:
    def test_flags_round_trip(self, tmp_path):
        for model in ("field_based", "field_independent", "offset_based"):
            path = str(tmp_path / f"{model}.o")
            store = MemoryStore(unit_of(struct_model=model))
            ObjectFileWriter(store, linked=True).write(path)
            with DatabaseStore.open(path) as r:
                assert r.struct_model == model
                assert r.linked

    def test_source_lines_round_trip(self, tmp_path):
        with write_and_read(tmp_path, unit_of(source_lines=12345)) as r:
            assert r.source_lines == 12345

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.o")
        with open(path, "wb") as f:
            f.write(b"NOTCLA__" + b"\x00" * 64)
        with pytest.raises(ClaFormatError):
            DatabaseStore.open(path)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.o")
        open(path, "wb").close()
        with pytest.raises(ClaFormatError):
            DatabaseStore.open(path)

    def test_all_sections_present(self, tmp_path):
        with write_and_read(tmp_path, unit_of()) as r:
            tags = {t.rstrip(b"\x00").decode() for t in r.sections}
            assert tags == {
                "strtab", "global", "static", "target", "dynamic", "dynidx",
                "calls",
            }


class TestAssignments:
    def test_static_round_trip(self, tmp_path):
        a = PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x",
            strength=Strength.DIRECT, location=Location("a.c", 7),
        )
        with write_and_read(tmp_path, unit_of(a)) as r:
            [back] = r.fetch_statics()
            assert back.kind is PrimitiveKind.ADDR
            assert (back.dst, back.src) == ("p", "x")
            assert back.location == Location("a.c", 7)

    def test_block_round_trip(self, tmp_path):
        a = PrimitiveAssignment(
            kind=PrimitiveKind.COPY, dst="x", src="y", op="+",
            strength=Strength.STRONG, location=Location("a.c", 3),
        )
        with write_and_read(tmp_path, unit_of(a)) as r:
            block = r.fetch_block("y")
            [back] = block.assignments
            assert back.op == "+"
            assert back.strength is Strength.STRONG

    def test_assignment_count(self, tmp_path):
        unit = unit_of(*(
            PrimitiveAssignment(kind=PrimitiveKind.COPY, dst=f"d{i}", src="s")
            for i in range(5)
        ), PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="p", src="x"))
        with write_and_read(tmp_path, unit) as r:
            assert r.stats.in_file == 6

    def test_missing_block_is_none(self, tmp_path):
        with write_and_read(tmp_path, unit_of()) as r:
            assert r.fetch_block("ghost") is None


class TestRecords:
    def test_function_record_round_trip(self, tmp_path):
        unit = unit_of(function_records={"f": FunctionRecord(
            function="f", args=["f$arg1", "f$arg2"], ret="f$ret",
            variadic=True, location=Location("a.c", 1),
        )})
        with write_and_read(tmp_path, unit) as r:
            record = r.fetch_block("f").function_record
            assert record.args == ["f$arg1", "f$arg2"]
            assert record.ret == "f$ret"
            assert record.variadic

    def test_indirect_record_round_trip(self, tmp_path):
        unit = unit_of(indirect_calls={"fp": IndirectCallRecord(
            pointer="fp", args=["<fp>$arg1"], ret="<fp>$ret",
            location=Location("b.c", 9),
        )})
        with write_and_read(tmp_path, unit) as r:
            record = r.fetch_block("fp").indirect_record
            assert record.args == ["<fp>$arg1"]
            assert record.ret == "<fp>$ret"

    def test_both_records_one_block(self, tmp_path):
        unit = unit_of(
            function_records={"f": FunctionRecord(
                function="f", args=[], ret="f$ret")},
            indirect_calls={"f": IndirectCallRecord(
                pointer="f", args=[], ret="<f>$ret")},
        )
        with write_and_read(tmp_path, unit) as r:
            block = r.fetch_block("f")
            assert block.function_record is not None
            assert block.indirect_record is not None


class TestObjects:
    def test_object_metadata_round_trip(self, tmp_path):
        obj = ProgramObject(
            name="a.c::f::x", kind=ObjectKind.VARIABLE, type_str="short *",
            location=Location("a.c", 4), enclosing_function="f",
            is_global=False, may_point=True, is_funcptr=False,
        )
        with write_and_read(tmp_path, unit_of(objects={obj.name: obj})) as r:
            back = r.get_object("a.c::f::x")
            assert back == obj
            assert back.type_str == "short *"
            assert back.enclosing_function == "f"
            assert not back.is_global

    def test_find_object_binary_search(self, tmp_path):
        unit = unit_of(objects={
            name: ProgramObject(name=name, kind=ObjectKind.VARIABLE)
            for name in ["zeta", "alpha", "mid", "beta", "omega"]
        })
        with write_and_read(tmp_path, unit) as r:
            for name in ["alpha", "beta", "mid", "omega", "zeta"]:
                assert r.get_object(name).name == name
            assert r.get_object("nope") is None

    def test_targets_lookup(self, tmp_path):
        unit = unit_of(objects={
            name: ProgramObject(name=name, kind=ObjectKind.VARIABLE)
            for name in ["a.c::f::v", "b.c::g::v", "w"]
        })
        with write_and_read(tmp_path, unit) as r:
            assert sorted(r.find_targets("v")) == ["a.c::f::v", "b.c::g::v"]
            assert r.find_targets("w") == ["w"]
            assert r.find_targets("zzz") == []


class TestDatabaseStore:
    def _database(self, tmp_path) -> str:
        path = str(tmp_path / "db.o")
        write_unit(unit_of(
            PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="p", src="x"),
            PrimitiveAssignment(kind=PrimitiveKind.COPY, dst="q", src="p"),
        ), path)
        return path

    def test_load_accounting(self, tmp_path):
        store = DatabaseStore.open(self._database(tmp_path))
        assert store.stats.in_file == 2
        store.static_assignments()
        assert store.stats.loaded == 1
        store.load_block("p")
        assert store.stats.loaded == 2
        assert store.stats.in_core == 2
        # Re-reading is real I/O (the store keeps nothing) but counts as
        # a reload, never as new coverage or residency — otherwise
        # in_core could exceed in_file.
        store.load_block("p")
        assert store.stats.loaded == 2
        assert store.stats.in_core == 2
        assert store.stats.reloads == 1
        assert store.stats.blocks_reloaded == 1
        store.load_block("p")
        assert store.stats.reloads == 2
        assert store.stats.in_core <= store.stats.loaded <= store.stats.in_file
        store.close()

    def test_static_assignments_memoized(self, tmp_path):
        store = DatabaseStore.open(self._database(tmp_path))
        first = store.static_assignments()
        assert store.static_assignments() is first
        # The raw read parses fresh rows, equal to the counted ones.
        assert store.fetch_statics() == first
        # Counted once, no matter how often the section is consulted.
        assert store.stats.loaded == 1
        store.close()

    def test_fetch_block_uncounted(self, tmp_path):
        store = DatabaseStore.open(self._database(tmp_path))
        block = store.fetch_block("p")
        assert block is not None
        assert store.stats.loaded == 0
        assert store.stats.in_core == 0
        store.close()

    def test_close_idempotent(self, tmp_path):
        store = DatabaseStore.open(self._database(tmp_path))
        assert not store.closed
        store.close()
        assert store.closed
        store.close()  # second close is a no-op, not a crash

    def test_context_manager_closes(self, tmp_path):
        with DatabaseStore.open(self._database(tmp_path)) as store:
            pass
        assert store.closed


class TestEnumWidthGuard:
    """serialize() refuses enums that no longer fit the one-byte entry
    slots, instead of silently truncating through struct packing."""

    def test_normal_enums_serialize(self):
        w = ObjectFileWriter(MemoryStore(unit_of(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x"))))
        assert w.serialize()  # both enums fit a byte today

    def test_wide_member_rejected(self, monkeypatch):
        import enum

        import repro.cla.writer as writer_mod

        class WidePrimitiveKind(enum.IntEnum):
            COPY = 0
            OVERFLOW = 256  # one past the byte slot

        monkeypatch.setattr(writer_mod, "PrimitiveKind", WidePrimitiveKind)
        w = ObjectFileWriter(MemoryStore())
        with pytest.raises(ClaFormatError) as excinfo:
            w.serialize()
        message = str(excinfo.value)
        assert "WidePrimitiveKind.OVERFLOW" in message
        assert "one-byte" in message

    def test_negative_member_rejected(self, monkeypatch):
        import enum

        import repro.cla.writer as writer_mod

        class SignedObjectKind(enum.IntEnum):
            BOGUS = -1

        monkeypatch.setattr(writer_mod, "ObjectKind", SignedObjectKind)
        w = ObjectFileWriter(MemoryStore())
        with pytest.raises(ClaFormatError):
            w.serialize()


def test_name_hash_stable():
    assert name_hash("x") == name_hash("x")
    assert name_hash("x") != name_hash("y")


class TestCorruptDatabases:
    """Malformed files raise ClaFormatError with the path in the message —
    never a bare struct.error from a short or garbage read."""

    def valid_bytes(self, tmp_path) -> bytes:
        path = str(tmp_path / "valid.o")
        write_unit(unit_of(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x")), path)
        with open(path, "rb") as f:
            return f.read()

    def expect_format_error(self, path: str, fragment: str):
        with pytest.raises(ClaFormatError) as excinfo:
            DatabaseStore.open(path)
        message = str(excinfo.value)
        assert path in message
        assert fragment in message

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "short.o")
        with open(path, "wb") as f:
            f.write(self.valid_bytes(tmp_path)[:7])
        self.expect_format_error(path, "truncated header")

    def test_truncated_section_table(self, tmp_path):
        data = self.valid_bytes(tmp_path)
        path = str(tmp_path / "cut.o")
        with open(path, "wb") as f:
            f.write(data[:F.HEADER.size + 4])
        self.expect_format_error(path, "truncated section table")

    def test_unsupported_version(self, tmp_path):
        data = bytearray(self.valid_bytes(tmp_path))
        data[4:6] = (99).to_bytes(2, "little")
        path = str(tmp_path / "future.o")
        with open(path, "wb") as f:
            f.write(data)
        self.expect_format_error(path, "version")

    def test_section_out_of_bounds(self, tmp_path):
        data = bytearray(self.valid_bytes(tmp_path))
        # First section entry: tag(8) offset(8) size(8) after the header;
        # blow up its size so offset + size overruns the file.
        size_at = F.HEADER.size + 16
        data[size_at:size_at + 8] = (1 << 40).to_bytes(8, "little")
        path = str(tmp_path / "oob.o")
        with open(path, "wb") as f:
            f.write(data)
        self.expect_format_error(path, "out of bounds")

    def test_random_garbage(self, tmp_path):
        path = str(tmp_path / "garbage.o")
        with open(path, "wb") as f:
            f.write(bytes(range(256)) * 2)
        self.expect_format_error(path, "bad magic")


class TestCorruptRecords:
    """Records that point past their section raise ClaFormatError naming
    the file when they are decoded — never a bare struct.error, and never
    a silently empty string."""

    def corrupt(self, tmp_path, patch) -> str:
        """A database with one static row (``p = &x``) and one block
        (``p``: ``q = p``), bytes changed by ``patch(data, sections)``."""
        path = str(tmp_path / "db.cla")
        write_unit(unit_of(
            PrimitiveAssignment(kind=PrimitiveKind.ADDR, dst="p", src="x"),
            PrimitiveAssignment(kind=PrimitiveKind.COPY, dst="q", src="p"),
        ), path)
        with DatabaseStore.open(path) as r:
            sections = dict(r.sections)
        with open(path, "rb") as f:
            data = bytearray(f.read())
        patch(data, sections)
        with open(path, "wb") as f:
            f.write(data)
        return path

    @staticmethod
    def put(data, at: int, value: int, width: int = 4) -> None:
        data[at:at + width] = value.to_bytes(width, "little")

    def expect(self, path: str, fragment: str, action) -> None:
        with pytest.raises(ClaFormatError) as excinfo:
            action()
        message = str(excinfo.value)
        assert path in message
        assert fragment in message

    # Past the end of strtab; and 2, the NUL that ends "p" (strtab
    # starts "\0p\0"), which no string starts at.
    @pytest.mark.parametrize("ref", [1_000_000, 2])
    def test_string_ref_not_a_string(self, tmp_path, ref):
        def patch(data, sections):
            static, _size = sections[F.SEC_STATIC]
            # dst ref of the first static row
            self.put(data, static + F.COUNT.size + 4, ref)

        path = self.corrupt(tmp_path, patch)
        store = DatabaseStore.open(path)
        self.expect(path, f"string ref {ref} does not start a string",
                    store.static_assignments)
        store.close()

    # The file ref of the first static row, and of the only object
    # (``p``): refs whose Location is built only when it is read.
    @pytest.mark.parametrize("section,offset", [
        (F.SEC_STATIC, 16), (F.SEC_GLOBAL, 8),
    ], ids=["row", "object"])
    def test_file_ref_checked_when_decoded(self, tmp_path, section, offset):
        def patch(data, sections):
            start, _size = sections[section]
            self.put(data, start + F.COUNT.size + offset, 1_000_000)

        path = self.corrupt(tmp_path, patch)
        with DatabaseStore.open(path) as store:
            decode = (store.static_assignments if section == F.SEC_STATIC
                      else lambda: store.get_object("p"))
            self.expect(path, "string ref 1000000 does not start a string",
                        decode)

    def test_block_offset_past_dynamic_section(self, tmp_path, capsys):
        def patch(data, sections):
            dynidx, _size = sections[F.SEC_DYNIDX]
            # block offset (u64) of the first index entry
            self.put(data, dynidx + F.COUNT.size + 8, 1_000_000_000, 8)

        path = self.corrupt(tmp_path, patch)
        self.expect(path, "out of bounds", lambda: DatabaseStore.open(path))
        from repro.driver.cli import main

        assert main(["analyze", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: block 'p' out of bounds")
        assert "Traceback" not in err and "struct" not in err

    def test_assignment_count_past_dynamic_section(self, tmp_path):
        def patch(data, sections):
            dynamic, _size = sections[F.SEC_DYNAMIC]
            # n_assignments of the only block header
            self.put(data, dynamic + 4, 1_000_000)

        path = self.corrupt(tmp_path, patch)
        with DatabaseStore.open(path) as r:
            self.expect(path, "block 'p': assignments past the end",
                        lambda: r.fetch_block("p"))

    def test_entry_count_past_section_end(self, tmp_path):
        def patch(data, sections):
            static, _size = sections[F.SEC_STATIC]
            self.put(data, static, 1_000_000)

        path = self.corrupt(tmp_path, patch)
        # The open counts the static section's rows, so it finds this.
        self.expect(path, "claims 1000000 entries",
                    lambda: DatabaseStore.open(path))

    def test_bad_kind_byte(self, tmp_path):
        def patch(data, sections):
            static, _size = sections[F.SEC_STATIC]
            data[static + F.COUNT.size] = 99  # kind of the first row

        path = self.corrupt(tmp_path, patch)
        with DatabaseStore.open(path) as r:
            self.expect(path, "bad assignment kind", r.fetch_statics)


# -- property-based round trip ------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(assignments, max_size=30), st.lists(objects, max_size=15))
def test_database_round_trip(tmp_path_factory, assigns, objs):
    """Any database survives write -> mmap read unchanged."""
    tmp = tmp_path_factory.mktemp("objfile")
    first: dict[str, ProgramObject] = {}
    for obj in objs:
        first.setdefault(obj.name, obj)
    path = str(tmp / "prop.o")
    write_unit(unit_of(*assigns, objects=first), path)
    with DatabaseStore.open(path) as r:
        # Every written object is findable with identical metadata.
        merged = {o.name: o for o in objs}
        for name, obj in list(merged.items())[:5]:
            back = r.get_object(name)
            assert back is not None
            assert back.kind == first[name].kind
        # Assignment multiset is preserved.
        def key(a):
            return (a.kind, a.dst, a.src, a.strength, a.op,
                    a.location.filename if not a.location.is_unknown else "",
                    a.location.line if not a.location.is_unknown else 0)

        originals = sorted(key(a) for a in assigns)
        read_back = [a for a in r.fetch_statics()]
        for block_name in r.block_names():
            read_back.extend(r.fetch_block(block_name).assignments)
        assert sorted(key(a) for a in read_back) == originals
        # Every non-static assignment landed in its trigger's block.
        for a in assigns:
            trigger = trigger_object(a)
            if trigger is not None:
                block = r.fetch_block(trigger)
                assert any(key(b) == key(a) for b in block.assignments)


# -- atomic writes ------------------------------------------------------------


class TestAtomicWrite:
    """write() must be atomic: an interrupted write can never leave a
    truncated file at the final path (the content-keyed Workspace cache
    would reuse it forever)."""

    def _writer(self, *extra) -> ObjectFileWriter:
        return ObjectFileWriter(MemoryStore(unit_of(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x"), *extra)))

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "out.o"
        self._writer().write(str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.o"]

    def test_failed_replace_preserves_existing_file(self, tmp_path,
                                                    monkeypatch):
        """A write that dies before the rename leaves the old file
        intact and cleans up its temp file."""
        import os as _os

        path = tmp_path / "out.o"
        self._writer().write(str(path))
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr("repro.cla.writer.os.replace", boom)
        w2 = self._writer(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="q", src="y"))
        with pytest.raises(OSError):
            w2.write(str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.o"]
        # and the surviving file still opens
        DatabaseStore.open(str(path)).close()
        assert _os.path.exists(path)

    def test_temp_file_in_same_directory(self, tmp_path, monkeypatch):
        """The temp file must share the target's directory: os.replace
        across filesystems is not atomic (it degrades to copy+delete)."""
        seen = {}
        real_mkstemp = __import__("tempfile").mkstemp

        def spy(*args, **kwargs):
            seen["dir"] = kwargs.get("dir")
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr("repro.cla.writer.tempfile.mkstemp", spy)
        target = tmp_path / "sub"
        target.mkdir()
        self._writer().write(str(target / "out.o"))
        assert seen["dir"] == str(target)
