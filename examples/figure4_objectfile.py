#!/usr/bin/env python3
"""Figure 4 of the paper: a source file and its CLA object file.

The paper sketches the object file for::

    int x, y, z, *p, *q;
    x = y;
    x = z;
    *p = z;
    p = q;
    q = &y;
    x = *p;

with a static section holding ``q = &y`` and a dynamic section of
per-object blocks: block z holds ``x = z`` and ``*p = z``; block p holds
``x = *p``; block q holds ``p = q``.  This script compiles the program,
writes a *real* object file, and dumps its sections to show the same
structure byte-for-byte real.

Run with::

    python examples/figure4_objectfile.py
"""

import os
import tempfile

from repro.cfront import parse_c
from repro.cla.reader import ObjectFileReader
from repro.cla.writer import write_unit
from repro.ir import lower_translation_unit

FIGURE4 = """
int x, y, z, *p, *q;
void main1(void) {
  x = y;
  x = z;
  *p = z;
  p = q;
  q = &y;
  x = *p;
}
"""


def main() -> None:
    unit = lower_translation_unit(parse_c(FIGURE4, filename="a.c"),
                                  source_text=FIGURE4)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.o")
        write_unit(unit, path)
        size = os.path.getsize(path)
        print(f"object file a.o: {size} bytes")
        with ObjectFileReader(path) as reader:
            print()
            print("header section: segment offsets and sizes")
            for tag, (offset, section_size) in reader.sections.items():
                name = tag.rstrip(b"\x00").decode()
                print(f"  {name:8s} offset={offset:<6d} size={section_size}")

            print()
            print("static section: address-of operations; always loaded")
            for a in reader.static_assignments():
                print(f"  {a}")

            print()
            print("dynamic section: per-object blocks, loaded on demand")
            for name in reader.block_names():
                block = reader.load_block(name)
                print(f"  {name} @ {reader.find_object(name).location}")
                if not block.assignments:
                    print("    (no triggered assignments)")
                for a in block.assignments:
                    print(f"    {a} @ {a.location}")

            print()
            print("target section lookups (one hash probe each):")
            for simple in ("z", "p", "main1"):
                print(f"  find_targets({simple!r}) = "
                      f"{reader.find_targets(simple)}")


if __name__ == "__main__":
    main()
