"""The interned integer object universe (ROADMAP item 2).

The paper's "million lines in a second" rests on a compact solver
substrate: objects are dense integer ids, graphs are id-keyed bitmask
adjacency, and points-to sets are bit vectors.  This module is that substrate, shared by
all four solvers:

* :class:`ObjectUniverse` — interns canonical names to dense int ids at
  ingest.  Two id spaces exist because they have different densities:

  - the **node space** (``intern``/``name_of``) covers every name that
    participates in pointer flow — graph nodes, worklist keys, union-find
    classes;
  - the **target space** (``target_id``/``target_name``) covers only
    address-taken objects (the ``&y`` of some ``x = &y``) — every element
    of every points-to set enters through an ADDR edge, so bit *positions*
    in points-to masks come from this much denser space.

  Both are stable within a run and round-trip (``name <-> id``);
  :meth:`ObjectUniverse.target_node` maps a points-to bit to the graph
  node of the same object.

* **Bitset points-to sets** — a set of target ids is one arbitrary-
  precision ``int``; union/merge/subset are word-parallel ``|``/``&``/
  ``& ~`` instead of per-element frozenset operations, and cardinality is
  one ``int.bit_count()``.  :func:`bits`, :func:`mask_of` and
  :func:`bitset_words` are the shared helpers.

The universe also owns the relevance test (``may_point``, and
:meth:`ObjectUniverse.relevant`, the one intake every solver reads rows
through) and the decode cache used by the lazy result mapping, so
identical final masks decode to one shared frozenset (§5's common-set
table, now keyed by ints).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Collection, Iterable, Iterator

from ..engine.obs import REGISTRY
from .primitives import PrimitiveKind

#: Word size used for the ``solver.bitset.words`` accounting.  Python ints
#: are chunked in 30-bit digits internally; 32 is the reporting convention
#: (what a C bit-vector implementation would allocate).
WORD_BITS = 32

#: Entry budget for the per-universe decode cache.  Masks are full
#: points-to sets, so an unbounded cache retains every distinct set a
#: long-lived run ever decodes; the bound makes memory proportional to the
#: working set instead of run length.
DECODE_CACHE_ENTRIES = 4096

_DECODE_HITS = REGISTRY.counter("solver.decode_cache.hits")
_DECODE_MISSES = REGISTRY.counter("solver.decode_cache.misses")
_DECODE_EVICTIONS = REGISTRY.counter("solver.decode_cache.evictions")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` (lowest first)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    """The bitmask with exactly the given bit positions set."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bitset_words(mask: int, word_bits: int = WORD_BITS) -> int:
    """Words a chunked bit-vector of this mask's width would occupy."""
    return (mask.bit_length() + word_bits - 1) // word_bits


class ObjectUniverse:
    """Dense-id interning of the program-object universe for one solve.

    Ids are assigned in first-seen order, so they are stable within a run;
    ``name_of``/``target_name`` are the exact inverse tables.  The
    relevance test reads the store's non-pointer objects
    (:class:`~repro.cla.store.ObjectFlags`): every other name takes
    part, the pre-transitive solver's deref placeholders (``*p``) and
    store/load split temps (``$sl..``) included.
    """

    __slots__ = (
        "non_pointers", "_ids", "names", "_target_ids", "target_names",
        "_target_nodes", "_decode_cache", "_decode_cache_entries",
        "_function_names", "function_mask", "_temp_counter",
    )

    def __init__(self, non_pointers: Collection[str] = frozenset(),
                 decode_cache_entries: int = DECODE_CACHE_ENTRIES):
        #: objects whose type cannot carry a pointer
        self.non_pointers = non_pointers
        # node space
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        # target (points-to bit position) space
        self._target_ids: dict[str, int] = {}
        self.target_names: list[str] = []
        #: target id -> node id, filled as points-to bits need graph nodes
        self._target_nodes: dict[int, int] = {}
        #: LRU over decoded masks, bounded like BlockCache: the budget is
        #: an entry count, eviction is oldest-first before insert.
        self._decode_cache: OrderedDict[int, frozenset[str]] = OrderedDict()
        self._decode_cache_entries = max(1, decode_cache_entries)
        self._function_names: set[str] = set()
        self.function_mask = 0
        self._temp_counter = 0

    # -- node space ------------------------------------------------------

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = len(self.names)
            self._ids[name] = i
            self.names.append(name)
        return i

    def id_of(self, name: str) -> int | None:
        """The node id of an already-interned name (None if never seen)."""
        return self._ids.get(name)

    def name_of(self, i: int) -> str:
        return self.names[i]

    def fresh_temp_name(self, prefix: str = "$sl") -> str:
        """A fresh synthetic temp *name* (store/load split temps, §5)."""
        self._temp_counter += 1
        return f"{prefix}{self._temp_counter}"

    def fresh_temp(self, prefix: str = "$sl") -> int:
        """A fresh synthetic node (interned :meth:`fresh_temp_name`)."""
        return self.intern(self.fresh_temp_name(prefix))

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    # -- target space ----------------------------------------------------

    def target_id(self, name: str) -> int:
        t = self._target_ids.get(name)
        if t is None:
            t = len(self.target_names)
            self._target_ids[name] = t
            self.target_names.append(name)
            if name in self._function_names:
                self.function_mask |= 1 << t
        return t

    def target_id_of(self, name: str) -> int | None:
        return self._target_ids.get(name)

    def target_name(self, t: int) -> str:
        return self.target_names[t]

    def target_node(self, t: int) -> int:
        """The node id of target id ``t``: the same object, interned into
        node space the first time a constraint needs it as a node."""
        node = self._target_nodes.get(t)
        if node is None:
            node = self._target_nodes[t] = self.intern(self.target_names[t])
        return node

    @property
    def target_count(self) -> int:
        return len(self.target_names)

    def note_functions(self, names: Iterable[str]) -> None:
        """Mark function objects so ``function_mask`` tracks their target
        bits (used by the §4 funcptr-linking loops to test ``delta &
        function_mask`` instead of per-element membership checks)."""
        for name in names:
            if name not in self._function_names:
                self._function_names.add(name)
                t = self._target_ids.get(name)
                if t is not None:
                    self.function_mask |= 1 << t

    # -- bitset decode ---------------------------------------------------

    def decode(self, mask: int) -> frozenset[str]:
        """Target-space mask -> frozenset of canonical names.

        Identical masks share one frozenset (interning keeps result
        mappings with many equal sets cheap to materialise and compare).
        """
        cache = self._decode_cache
        cached = cache.get(mask)
        if cached is None:
            _DECODE_MISSES.add()
            while len(cache) >= self._decode_cache_entries:
                cache.popitem(last=False)
                _DECODE_EVICTIONS.add()
            names = self.target_names
            cached = frozenset(names[b] for b in bits(mask))
            cache[mask] = cached
        else:
            _DECODE_HITS.add()
            cache.move_to_end(mask)
        return cached

    # -- relevance -------------------------------------------------------

    def may_point(self, name: str) -> bool:
        """Can this object's value carry pointers?  (§6: non-pointer value
        flow is irrelevant to aliasing.)"""
        return name not in self.non_pointers

    def relevant(self, rows) -> Iterator[tuple[PrimitiveKind, str, str]]:
        """``(kind, dst, src)`` of each row that can carry a pointer
        value: the intake all four solvers read rows through, whichever
        store the rows came from.

        A row is dropped when its destination cannot carry a pointer, or
        its source cannot and it is not ``x = &y``: the *address* of a
        non-pointer object is still a pointer value (``p = &v`` with
        ``short v``, §2).  Only a row's kind, dst and src are read.
        """
        non_pointers = self.non_pointers
        addr = PrimitiveKind.ADDR
        for row in rows:
            dst = row.dst
            if dst in non_pointers:
                continue
            kind = row.kind
            src = row.src
            if kind is addr or src not in non_pointers:
                yield kind, dst, src
