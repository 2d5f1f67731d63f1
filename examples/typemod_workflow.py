#!/usr/bin/env python3
"""The paper's motivating application (§2): consistent type modification.

Scenario straight from the paper's introduction: a legacy telephony-style
code base stores a counter in a ``short``, and the range must grow.
Changing ``seq_no`` from ``short`` to ``int`` risks silent narrowing
wherever its value flows, so we run the forward dependence analysis to
find every object whose type may need to change — including flows through
pointers and struct fields across files — then use *non-targets* to cut
the one false lead.

Run with::

    python examples/typemod_workflow.py
"""

from repro.depend import DependenceAnalysis, render_all, summarize
from repro.driver import Workspace

MSG_H = """
struct message {
    short seq;
    short ack;
    char payload[32];
};
extern short seq_no;
void record(short value);
short next_seq(void);
void transmit(struct message *m);
"""

PROTOCOL_C = """
#include "msg.h"

short seq_no;
static short last_sent;

short next_seq(void) {
    seq_no = seq_no + 1;
    return seq_no;
}

void stamp(struct message *m) {
    m->seq = next_seq();
    last_sent = m->seq;
}
"""

LOG_C = """
#include "msg.h"

short log_slots[64];
short log_cursor;

void record(short value) {
    short *slot;
    slot = &log_slots[0];
    *slot = value;
    log_cursor = log_cursor + 1;   /* counts entries, not seq values */
}
"""

MAIN_C = """
#include "msg.h"

struct message out;

void send_one(void) {
    stamp(&out);
    record(out.seq);
    transmit(&out);
}

void transmit(struct message *m) {
    short wire;
    wire = m->seq;
    (void)wire;
}
"""


def main() -> None:
    project = Workspace()
    project.add_header("msg.h", MSG_H)
    project.add_source("protocol.c", PROTOCOL_C)
    project.add_source("log.c", LOG_C)
    project.add_source("main.c", MAIN_C)

    store = project.store()
    points_to = project.points_to()
    analysis = DependenceAnalysis(store, points_to)

    print("proposed change: short seq_no  ->  int seq_no")
    print()

    targets = store.find_targets("seq_no")
    result = analysis.analyze(targets)
    counts = summarize(result)
    print(f"pass 1: {sum(counts.values())} dependent objects "
          f"(direct={counts['direct']} strong={counts['strong']} "
          f"weak={counts['weak']})")
    for line in render_all(store, result):
        print("  " + line)

    # log_cursor is a count of log entries, never a sequence value — the
    # engineer knows its range is fine.  Everything reached only through it
    # disappears when it is marked as a non-target (§2).
    print()
    print("pass 2: with non-target log.c::log_cursor")
    cursor = store.find_targets("log_cursor")
    result2 = analysis.analyze(targets, frozenset(cursor))
    for line in render_all(store, result2):
        print("  " + line)

    dependents = sorted(
        name for name, d in result2.dependents.items()
        if d.parent is not None
    )
    print()
    print("objects whose declared type should become int:")
    for name in dependents:
        obj = store.get_object(name)
        if obj is not None and obj.kind.name in ("VARIABLE", "FIELD"):
            print(f"  {name:28s} ({obj.type_str} @ {obj.location})")
    print()
    print("note the field object message.seq: the field-based model gives")
    print("one answer for the seq field of *every* struct message value.")


if __name__ == "__main__":
    main()
