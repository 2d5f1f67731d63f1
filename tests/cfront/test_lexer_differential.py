"""Differential test: the regex-driven lexer fast path must produce
exactly the same token stream as the character-level reference scanner,
locations included."""

import pytest

from repro.cfront.lexer import Lexer
from repro.cfront.source import SourceFile
from repro.synth import BENCHMARK_ORDER, generate

from ..cla.corpus import case_sources

CORPUS = [
    "int x = 42;",
    "a+++b--- --c",
    "p->q.r[i]->s",
    "x <<= 1; y >>= 2; z ^= 3 | 4 & 5;",
    "f(1.5e-3, 0x1F, 017, 'a', '\\n', \"str\", L\"wide\", L'c')",
    "#define F(a, b) a##b\nF(x, y)",
    "/* block */ code // line\nmore",
    "a \\\n b",
    "...  ..  . ## #",
    "\"adjacent\" \"strings\"",
    "id$with$dollars _under 0xABu 42L 1e10",
]


#: Inputs for the fast path's own line tracking: newlines inside
#: comments, splices, CRLF line ends, directives after a comment.
LINE_TRACKING = {
    "multi-line block comment": "int a; /* one\ntwo\n\nthree */ int b;\n  c d\n",
    "comment spans lines then directive":
        "x /*\n*/ #define Y 1\n/* a\nb */\n#define Z 2\nZ\n",
    "splice in macro body":
        "#define M(x) \\\n  ((x) + \\\n   1)\nint y = M(2);\nint z;\n",
    "splice in string": 'char *s = "ab\\\ncd";\nint t;\n',
    "splice in identifier": "in\\\nt q;\n  r\n",
    "splice inside a comment": "/* a \\\n b */ x\n// c \\\n d\ny\n",
    "crlf": "int a;\r\nint b;\r\n#define X 1\r\n  X\r\n",
    "crlf splice": "#define M 1 + \\\r\n 2\r\nM\r\n",
    "comment then directive": "/* c */ #define X 1\nX\n/* d */#undef X\n",
    "trailing splice": "a \\\n",
    "line comment at end of file": "a // tail",
}

#: Tolerant mode: stray characters become punctuation, in the fast
#: path's fallback as in the reference scanner.
TOLERANT = {
    "stray characters": "int a @ b;\n` c\n  @@ d\n",
    "stray after comment": "/* x\n */ @ e\n",
    "stray after splice": "f \\\n @ g\n",
}


def streams(text, tolerant=False):
    ref = Lexer(SourceFile("d.c", text), tolerant=tolerant) \
        .tokens_reference()
    fast = Lexer(SourceFile("d.c", text), tolerant=tolerant).tokens()
    return ref, fast


def fields(tokens):
    return [(t.kind, t.value, t.spaced, t.at_line_start, t.location)
            for t in tokens]


def test_corpus_token_identity():
    for text in CORPUS:
        ref, fast = streams(text)
        assert len(ref) == len(fast), text
        for a, b in zip(ref, fast):
            assert a.kind == b.kind, (text, a, b)
            assert a.value == b.value, (text, a, b)
            assert a.spaced == b.spaced, (text, a, b)
            assert a.at_line_start == b.at_line_start, (text, a, b)
            assert a.location == b.location, (text, a, b)


def test_synthetic_file_token_identity():
    """Every source and header of every synth profile at scale 0.01,
    seed 0, and a larger nethack file."""
    texts = {}
    for profile in BENCHMARK_ORDER:
        sources, headers = case_sources(profile)
        for name, text in {**sources, **headers}.items():
            texts[profile, name] = text
    program = generate("nethack", scale=0.05, seed=31)
    name, text = sorted(program.files.items())[0]
    texts["nethack@0.05", name] = text
    for (case, name), text in sorted(texts.items()):
        ref = Lexer(SourceFile(name, text)).tokens_reference()
        fast = Lexer(SourceFile(name, text)).tokens()
        assert fields(ref) == fields(fast), (case, name)


@pytest.mark.parametrize("case", sorted(LINE_TRACKING))
def test_line_tracking_identity(case):
    ref, fast = streams(LINE_TRACKING[case])
    assert fields(ref) == fields(fast)


@pytest.mark.parametrize("case", sorted(TOLERANT))
def test_tolerant_identity(case):
    ref, fast = streams(TOLERANT[case], tolerant=True)
    assert fields(ref) == fields(fast)


def test_hypothesis_style_fuzz():
    import random

    rng = random.Random(4)
    atoms = ["x", "42", "0x1F", "1.5e-3", "'c'", '"s"', "+", "++", "<<=",
             "->", "...", "#", "\n", " ", "\t", "/*c*/", "//l\n", "(",
             ")", "{", "}", ";"]
    for _ in range(200):
        text = "".join(rng.choice(atoms) for _ in range(rng.randint(1, 40)))
        try:
            ref, fast = streams(text)
        except Exception as ref_error:
            # Both paths must fail identically.
            try:
                Lexer(SourceFile("d.c", text)).tokens()
            except Exception as fast_error:
                assert type(ref_error) is type(fast_error)
                continue
            raise AssertionError(
                f"reference raised but fast path did not: {text!r}"
            )
        assert [(t.kind, t.value, t.spaced, t.at_line_start, t.location)
                for t in ref] == \
            [(t.kind, t.value, t.spaced, t.at_line_start, t.location)
             for t in fast], text
