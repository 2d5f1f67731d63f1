"""Tests for source locations and LOC counting."""

import pickle

from repro.cfront.source import Location, SourceFile, count_source_lines


class TestLocation:
    def test_str_with_column(self):
        assert str(Location("a.c", 3, 7)) == "a.c:3:7"

    def test_str_without_column(self):
        assert str(Location("a.c", 3)) == "a.c:3"

    def test_unknown(self):
        loc = Location.unknown()
        assert loc.is_unknown
        assert str(loc) == "<unknown>"

    def test_brief_matches_paper_style(self):
        assert Location("eg1.c", 7).brief() == "<eg1.c:7>"

    def test_equality_and_hash(self):
        a = Location("f.c", 1, 2)
        b = Location("f.c", 1, 2)
        assert a == b
        assert hash(a) == hash(b)
        assert a != Location("f.c", 1, 3)
        assert a != Location("g.c", 1, 2)
        assert Location("f.c", 1) == Location("f.c", 1, 0)
        # A value of its own kind: no tuple equals it.
        assert a != ("f.c", 1, 2)

    def test_repr_and_match_args(self):
        assert repr(Location("f.c", 1, 2)) == \
            "Location(filename='f.c', line=1, column=2)"
        assert Location.__match_args__ == ("filename", "line", "column")

    def test_unknown_is_shared(self):
        assert Location.unknown() is Location.unknown()
        assert Location.unknown().brief() == "<unknown>"

    def test_pickle_round_trip(self):
        loc = Location("f.c", 4, 9)
        back = pickle.loads(pickle.dumps(loc))
        assert back == loc and hash(back) == hash(loc)
        assert str(back) == "f.c:4:9"

    def test_dict_key(self):
        table = {Location("f.c", 1, 2): "a", Location("f.c", 2): "b"}
        assert table[Location("f.c", 1, 2)] == "a"
        assert table[Location("f.c", 2, 0)] == "b"
        assert Location("f.c", 3) not in table


class TestSourceFile:
    def test_location_at_start(self):
        sf = SourceFile("x.c", "abc\ndef\n")
        loc = sf.location_at(0)
        assert (loc.line, loc.column) == (1, 1)

    def test_location_at_second_line(self):
        sf = SourceFile("x.c", "abc\ndef\n")
        loc = sf.location_at(4)
        assert (loc.line, loc.column) == (2, 1)

    def test_location_mid_line(self):
        sf = SourceFile("x.c", "abc\ndef\n")
        loc = sf.location_at(6)
        assert (loc.line, loc.column) == (2, 3)

    def test_line_text(self):
        sf = SourceFile("x.c", "first\nsecond\nthird")
        assert sf.line_text(2) == "second"
        assert sf.line_text(3) == "third"

    def test_line_text_out_of_range(self):
        sf = SourceFile("x.c", "only\n")
        assert sf.line_text(0) == ""
        assert sf.line_text(99) == ""

    def test_empty_file(self):
        sf = SourceFile("x.c", "")
        loc = sf.location_at(0)
        assert loc.line == 1


class TestCountSourceLines:
    def test_counts_code_lines(self):
        assert count_source_lines("int x;\nint y;\n") == 2

    def test_skips_blank_lines(self):
        assert count_source_lines("int x;\n\n\nint y;\n") == 2

    def test_skips_line_comments(self):
        assert count_source_lines("// nothing\nint x;\n") == 1

    def test_skips_block_comment_lines(self):
        text = "/* a\n   b\n   c */\nint x;\n"
        assert count_source_lines(text) == 1

    def test_code_and_comment_counts_once(self):
        assert count_source_lines("int x; // decl\n") == 1

    def test_code_after_block_comment_on_same_line(self):
        assert count_source_lines("/* c */ int x;\n") == 1

    def test_block_comment_between_code(self):
        assert count_source_lines("int /* t */ x;\n") == 1

    def test_whitespace_only_lines(self):
        assert count_source_lines("   \n\t\nint x;\n") == 1

    def test_empty(self):
        assert count_source_lines("") == 0

    def test_multiline_comment_with_stars(self):
        text = "/**\n * doc\n **/\nint x;"
        assert count_source_lines(text) == 1

    def test_comment_opener_in_string_is_code(self):
        assert count_source_lines('char *s = "/*";\nint x;\nint y;\n') == 3

    def test_comment_opener_in_char_is_code(self):
        assert count_source_lines("int c = '/*';\nint x;\n") == 2

    def test_escaped_quote_keeps_literal_open(self):
        assert count_source_lines('char *s = "\\" /*";\nint x;\n') == 2

    def test_quote_inside_comment_is_not_a_literal(self):
        assert count_source_lines("/* don't */ int x;\n/* \" */\n") == 1

    def test_comment_after_literal(self):
        text = 'char *s = "a"; /* c\n   d */\nint x;\n'
        assert count_source_lines(text) == 2
