"""Table 1: classification of operations.

A specification table rather than a measurement: the bench asserts every
row of the paper's Table 1 against the implementation and times the
classification path itself (it sits on the hot loop of lowering).
"""

from conftest import fresh_store  # noqa: F401  (ensures path setup)
from repro.driver.tables import table1_rows
from repro.engine.obs import format_table
from repro.ir.strength import Strength, binary_strengths, unary_strength

PAPER_TABLE1 = {
    "+": ("Strong", "Strong"),
    "-": ("Strong", "Strong"),
    "|": ("Strong", "Strong"),
    "&": ("Strong", "Strong"),
    "^": ("Strong", "Strong"),
    "*": ("Weak", "Weak"),
    "%": ("Weak", "None"),
    ">>": ("Weak", "None"),
    "<<": ("Weak", "None"),
    "&&": ("None", "None"),
    "||": ("None", "None"),
}


def test_table1(benchmark, report):
    ops = list(PAPER_TABLE1) * 100

    def classify_all():
        return [binary_strengths(op) for op in ops]

    results = benchmark(classify_all)
    for op, (s1, s2) in zip(ops, results):
        want = PAPER_TABLE1[op]
        assert s1.name.capitalize() == want[0], op
        assert s2.name.capitalize() == want[1], op
    assert unary_strength("+") is Strength.STRONG
    assert unary_strength("-") is Strength.STRONG
    assert unary_strength("!") is Strength.NONE

    headers, rows = table1_rows()
    report.append(format_table(headers, rows,
                               title="[table1] Classification of operations"))
