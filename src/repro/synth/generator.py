"""Deterministic synthetic C code-base generator.

Produces multi-file C projects whose primitive-assignment mix matches a
:class:`~repro.synth.profiles.SynthProfile` (one Table 2 row).  The
substitution argument (see DESIGN.md): a flow-insensitive points-to
analysis sees a program *only* through its primitive assignments and
call/return plumbing, so matching the assignment mix and flow shape
preserves the workload even though the surface code is synthetic.

The generated code exercises the full pipeline: a shared header with
struct types, extern declarations and prototypes; functions with
parameters, returns and cross-file calls; function pointers with indirect
call sites; struct access both directly and through pointers; and
control-flow noise (``if``/``while``) around the assignments so the parser
earns its keep.

**Locality model.**  Uniformly random assignment endpoints percolate into
one giant flow component, which would make *every* profile behave like the
paper's emacs row.  Real code is modular, so variables are organised into
small *clusters* (a handful of locals of one function, or a handful of
globals of one file); an assignment's endpoints come from a single cluster
except for deliberate leaks:

* ``join_factor`` routes that fraction of pointer copies through a small
  set of global *hub* pointers — the §5 join-point effect.  High values
  (emacs, gimp) produce points-to sets of size O(address-taken objects).
* ``struct_churn`` routes that fraction of flow through struct fields,
  half of it via struct pointers (``sp->f``), which the field-independent
  model turns into loads/stores through ``sp`` — the Table 4 gap.
* ``int_fraction`` emits that fraction of assignments over plain ints,
  which the analyzer never loads — the Table 3 loaded < in-file gap.
* a fixed ~8% of cluster picks cross module boundaries, and direct calls
  pass pointers between functions, like real call graphs do.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from ..driver.incremental import Workspace
from ..engine.pipeline import CompileOptions
from .profiles import SynthProfile, get_profile

HEADER_NAME = "synth.h"

_CLUSTER_SIZE = 3


@dataclass
class _Var:
    name: str
    level: int  # 0: int, 1: int*, 2: int**
    is_global: bool


@dataclass
class _StructInfo:
    tag: str
    ptr_fields: list[str]
    int_fields: list[str]
    home_file: int = 0
    #: ordinal within its family (S / C): names like ``sp3`` derive from
    #: this, not from slicing the (possibly prefixed) tag
    idx: int = 0


@dataclass
class _Function:
    name: str
    file_index: int
    params: list[_Var] = field(default_factory=list)
    locals: list[_Var] = field(default_factory=list)
    body: list[str] = field(default_factory=list)
    returns_pointer: bool = False
    #: Indexes of this function's affine global clusters, per level.
    affine_gclusters: list[list[int]] = field(default_factory=list)
    #: This function's local clusters, per level.
    local_clusters: list[list[list[_Var]]] = field(default_factory=list)


@dataclass
class SynthProgram:
    """A generated code base: header + per-file sources."""

    profile: SynthProfile
    seed: int
    header: str
    files: dict[str, str]  # filename -> source text (header excluded)
    #: the program's own header filename (``{name_prefix}synth.h``)
    header_name: str = HEADER_NAME

    def project(self, field_based: bool = True,
                track_strings: bool = False,
                struct_model: str | None = None) -> Workspace:
        options = CompileOptions(field_based=field_based,
                                 struct_model=struct_model,
                                 track_strings=track_strings)
        project = Workspace(options=options)
        project.add_header(self.header_name, self.header)
        for name, text in self.files.items():
            project.add_source(name, text)
        return project

    def write_to(self, directory: str) -> list[str]:
        """Write the code base to disk; returns the ``.c`` paths."""
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, self.header_name), "w") as f:
            f.write(self.header)
        paths = []
        for name, text in self.files.items():
            path = os.path.join(directory, name)
            with open(path, "w") as f:
                f.write(text)
            paths.append(path)
        return paths

    def source_lines(self) -> int:
        from ..cfront.source import count_source_lines

        return count_source_lines(self.header) + sum(
            count_source_lines(t) for t in self.files.values()
        )


def _clusters(pool: list[_Var], size: int = _CLUSTER_SIZE) -> list[list[_Var]]:
    return [pool[i:i + size] for i in range(0, len(pool), size)] or [pool]


class _Generator:
    def __init__(self, profile: SynthProfile, seed: int,
                 name_prefix: str = ""):
        self.p = profile
        self.rng = random.Random(seed)
        self.seed = seed
        #: prepended to every file-scope name, struct tag, and filename;
        #: "" leaves the output byte-identical to the unprefixed
        #: generator (committed baselines and fuzz seeds depend on that)
        self.px = name_prefix
        self.globals: list[list[_Var]] = [[], [], []]  # by level
        self.gclusters_by_file: list[list[list[list[_Var]]]] = []
        self.structs: list[_StructInfo] = []
        self.struct_instances: list[tuple[str, _StructInfo]] = []
        self.struct_pointers: list[tuple[str, _StructInfo]] = []
        self.structs_by_file: list[list[int]] = []
        self.functions: list[_Function] = []
        self.hubs: list[_Var] = []
        self.funcptr_names: list[str] = []
        self._struct_affinity: dict[int, list[int]] = {}

    # -- population ---------------------------------------------------------

    def build(self) -> SynthProgram:
        self._allocate_variables()
        self._allocate_structs()
        self._allocate_functions()
        self._seed_struct_pointers()
        self._emit_assignments()
        self._emit_calls()
        self._emit_funcptrs()
        return self._render()

    def _seed_struct_pointers(self) -> None:
        """Point each ``spX`` at its instances.

        Without these the field-independent model has nothing to merge
        through ``sp->f`` accesses and Table 4's gap would vanish.
        """
        self._seeded_addrs = 0
        for i, info in enumerate(self.structs):
            instances = self.instances_by_struct[info.tag]
            fn = self._rand_fn()
            self._emit(fn, f"{self.px}sp{i} = &{self.rng.choice(instances)};")
            self._seeded_addrs += 1
            if self.rng.random() < 0.5:
                fn = self._rand_fn()
                self._emit(fn, f"{self.px}sp{i} = &{self.rng.choice(instances)};")
                self._seeded_addrs += 1
        for k, info in enumerate(self.containers):
            for j in range(2):
                fn = self._rand_fn()
                self._emit(fn, f"{self.px}cp{k} = &{self.px}ci{k}_{j};")
                self._seeded_addrs += 1

    def _allocate_variables(self) -> None:
        p = self.p
        n_global = max(9, p.variables // 4)
        self._n_local_budget = max(9, p.variables - n_global)
        per_file_globals: list[list[list[_Var]]] = [
            [[], [], []] for _ in range(p.files)
        ]
        for i in range(n_global):
            level = self.rng.choices((0, 1, 2), weights=(45, 45, 10))[0]
            home = self.rng.randrange(p.files)
            var = _Var(f"{self.px}g{level}_{i}", level, True)
            self.globals[level].append(var)
            per_file_globals[home][level].append(var)
        for level in (0, 1, 2):
            while len(self.globals[level]) < 3:
                i = len(self.globals[level])
                var = _Var(f"{self.px}gx{level}_{i}", level, True)
                self.globals[level].append(var)
                per_file_globals[i % p.files][level].append(var)
        self.gclusters_by_file = [
            [_clusters(by_level[level]) for level in (0, 1, 2)]
            for by_level in per_file_globals
        ]
        # Hubs are *not* in any cluster: only the join_factor path reaches
        # them, so that knob alone controls join-point pressure.
        n_hubs = max(1, round(2 + 6 * self.p.join_factor))
        self.hubs = [_Var(f"{self.px}hub_{i}", 1, True)
                     for i in range(n_hubs)]

    def _allocate_structs(self) -> None:
        # Container types: a handful of program-wide many-fielded structs
        # (think GList / hash-node types).  Field-based analysis splits
        # their traffic per field; field-independent merges all fields of
        # a container object — the paper's Table 4 gap in one idiom.
        # Scale container count with expected container *traffic* so each
        # container sees a similar number of flows at any profile scale:
        # too few containers saturates field-based analysis too (ratio 1),
        # too many dilutes below the merge threshold (also ratio 1).
        traffic = (self.p.struct_churn * self.p.container_share
                   * self.p.copies * (1.0 - self.p.int_fraction))
        n_containers = max(2, min(512, round(traffic / 40)))
        self.containers = []
        for k in range(n_containers):
            info = _StructInfo(
                tag=f"{self.px}C{k}",
                ptr_fields=[f"{self.px}cf{j}" for j in range(8)],
                int_fields=[f"{self.px}cn0", f"{self.px}cn1"],
                idx=k,
            )
            self.containers.append(info)
        self.structs_by_file = [[] for _ in range(self.p.files)]
        for i in range(self.p.struct_types):
            n_ptr = self.rng.randint(1, 3)
            n_int = self.rng.randint(1, 3)
            info = _StructInfo(
                tag=f"{self.px}S{i}",
                ptr_fields=[f"{self.px}pf{j}" for j in range(n_ptr)],
                int_fields=[f"{self.px}nf{j}" for j in range(n_int)],
                home_file=i % self.p.files,
                idx=i,
            )
            self.structs.append(info)
            self.structs_by_file[info.home_file].append(i)
        for i, info in enumerate(self.structs):
            for j in range(2):
                self.struct_instances.append((f"{self.px}si{i}_{j}", info))
            self.struct_pointers.append((f"{self.px}sp{i}", info))
        self.instances_by_struct: dict[str, list[str]] = {}
        for name, info in self.struct_instances:
            self.instances_by_struct.setdefault(info.tag, []).append(name)

    def _allocate_functions(self) -> None:
        p = self.p
        n_funcs = max(p.files * 2, min(2000, p.variables // 24))
        locals_per_func = max(3, self._n_local_budget // n_funcs)
        for i in range(n_funcs):
            fn = _Function(name=f"{self.px}fn{i}", file_index=i % p.files)
            n_params = self.rng.randint(0, 3)
            for j in range(n_params):
                level = self.rng.choices((0, 1), weights=(40, 60))[0]
                fn.params.append(_Var(f"a{j}", level, False))
            fn.returns_pointer = self.rng.random() < 0.5
            pools: list[list[_Var]] = [[], [], []]
            for j in range(locals_per_func):
                level = self.rng.choices((0, 1, 2), weights=(45, 45, 10))[0]
                var = _Var(f"l{level}_{j}", level, False)
                pools[level].append(var)
                fn.locals.append(var)
            for param in fn.params:
                pools[param.level].append(param)
            fn.local_clusters = [_clusters(pools[level]) for level in (0, 1, 2)]
            fn.affine_gclusters = []
            for level in (0, 1, 2):
                available = len(self.gclusters_by_file[fn.file_index][level])
                ids = []
                if available:
                    ids = [self.rng.randrange(available)
                           for _ in range(min(2, available))]
                fn.affine_gclusters.append(ids)
            self.functions.append(fn)

    # -- drawing variables ----------------------------------------------------

    def _cluster_for(self, fn_index: int, level: int) -> list[_Var]:
        """One cluster visible to ``fn_index``: local (62%), this
        function's affine globals (30%), or any global cluster (8%)."""
        rng = self.rng
        fn = self.functions[fn_index]
        roll = rng.random()
        local = [c for c in fn.local_clusters[level] if c]
        if local and roll < 0.62:
            return rng.choice(local)
        if roll < 0.98:
            home = self.gclusters_by_file[fn.file_index][level]
            ids = [i for i in fn.affine_gclusters[level] if home[i]]
            if ids:
                return home[rng.choice(ids)]
        file_index = rng.randrange(self.p.files)
        pool = self.gclusters_by_file[file_index][level]
        nonempty = [c for c in pool if c]
        if nonempty:
            return rng.choice(nonempty)
        return self.globals[level] or [
            _Var(f"{self.px}g_fallback", level, True)
        ]

    def _pick1(self, fn_index: int, level: int) -> _Var:
        cluster = self._cluster_for(fn_index, level)
        return self.rng.choice(cluster)

    def _pick2(self, fn_index: int, level: int) -> tuple[_Var, _Var]:
        """Two (preferably distinct) variables from one cluster."""
        cluster = self._cluster_for(fn_index, level)
        if len(cluster) >= 2:
            a, b = self.rng.sample(cluster, 2)
        else:
            a = b = cluster[0]
        return a, b

    def _pick_pair_levels(
        self, fn_index: int, level_a: int, level_b: int
    ) -> tuple[_Var, _Var]:
        """Two variables of different pointer levels from *companion*
        clusters (same scope, same cluster index).

        Keeps ``pp = &p`` / ``*pp = p`` structures module-local: two
        independent picks would wire random clusters together through the
        indirection level and percolate the whole file into one component.
        """
        rng = self.rng
        fn = self.functions[fn_index]
        roll = rng.random()
        if roll < 0.64 and fn.local_clusters[level_a] and fn.local_clusters[level_b]:
            pools_a = fn.local_clusters[level_a]
            pools_b = fn.local_clusters[level_b]
        else:
            home = self.gclusters_by_file[fn.file_index]
            pools_a = [c for c in home[level_a] if c]
            pools_b = [c for c in home[level_b] if c]
            if not pools_a or not pools_b:
                return (self._pick1(fn_index, level_a),
                        self._pick1(fn_index, level_b))
        # Injective companion mapping: index on the *smaller* pool list and
        # stretch into the larger one, so each higher-indirection cluster is
        # tied to one fixed partner cluster.  Folding the larger list onto
        # the smaller (idx % len) would make every T** cluster a meeting
        # point of several T* clusters and percolate the indirection layer.
        if len(pools_a) <= len(pools_b):
            small, large = pools_a, pools_b
            stretch = max(1, len(large) // len(small))
            i_small = rng.randrange(len(small))
            i_large = min(i_small * stretch, len(large) - 1)
            ca, cb = small[i_small], large[i_large]
        else:
            small, large = pools_b, pools_a
            stretch = max(1, len(large) // len(small))
            i_small = rng.randrange(len(small))
            i_large = min(i_small * stretch, len(large) - 1)
            cb, ca = small[i_small], large[i_large]
        ca = ca or self.globals[level_a]
        cb = cb or self.globals[level_b]
        return rng.choice(ca), rng.choice(cb)

    def _pick_hub(self) -> _Var:
        return self.rng.choice(self.hubs)

    def _struct_of(self, fn_index: int) -> _StructInfo:
        rng = self.rng
        affine = self._struct_affinity.get(fn_index)
        if affine is None:
            home = self.functions[fn_index].file_index
            ids = self.structs_by_file[home] or list(range(len(self.structs)))
            # One struct type per function: two or more would make the
            # function/field bipartite graph super-critical and percolate
            # every profile into a single giant flow component.
            affine = [rng.choice(ids)]
            self._struct_affinity[fn_index] = affine
        if rng.random() < 0.98:
            return self.structs[affine[0]]
        return rng.choice(self.structs)

    def _struct_lvalue(self, fn_index: int, pointer_field: bool) -> str:
        """A struct field access: half direct (``s.f``), half via pointer
        (``sp->f``) — the latter separates the two struct models."""
        info = self._struct_of(fn_index)
        if self.rng.random() < 0.5:
            name = self.rng.choice(self.instances_by_struct[info.tag])
            access = f"{name}."
        else:
            access = f"{self.px}sp{info.idx}->"
        fields = info.ptr_fields if pointer_field else info.int_fields
        return access + self.rng.choice(fields)

    # -- statement emission -------------------------------------------------------

    def _emit(self, fn_index: int, stmt: str) -> None:
        self.functions[fn_index].body.append(stmt)

    def _rand_fn(self) -> int:
        return self.rng.randrange(len(self.functions))

    def _emit_assignments(self) -> None:
        p = self.p
        rng = self.rng
        # Struct/container pointer seeds already consumed part of the
        # x = &y budget; the plan keeps Table 2's totals on target.
        addr_budget = max(0, p.addrs - getattr(self, "_seeded_addrs", 0))
        plan = (
            ["copy"] * p.copies + ["addr"] * addr_budget
            + ["store"] * p.stores
            + ["store_load"] * p.store_loads + ["load"] * p.loads
        )
        rng.shuffle(plan)
        for kind in plan:
            i = self._rand_fn()
            if kind == "copy":
                self._emit_copy(i)
            elif kind == "addr":
                self._emit_addr(i)
            elif kind == "store":
                self._emit_store(i)
            elif kind == "load":
                self._emit_load(i)
            else:
                self._emit_store_load(i)

    def _emit_copy(self, i: int) -> None:
        rng = self.rng
        if rng.random() < self.p.int_fraction:
            dst, src = self._pick2(i, 0)
            op = rng.choice(["", "", " + 1", " * 2", " >> 3"])
            self._emit(i, f"{dst.name} = {src.name}{op};")
            return
        if rng.random() < self.p.struct_churn:
            if rng.random() < self.p.container_share:
                # Container idiom: shared program-wide state structs.
                # Each function consistently uses ONE field of a container
                # (its own slot), like real modules do.  Field-based
                # analysis joins only same-slot traffic (an eighth of the
                # container's flow); field-independent collapses the whole
                # instance, merging all slots — the Table 4 gap.
                k = rng.randrange(len(self.containers))
                info = self.containers[k]
                field_name = info.ptr_fields[i % len(info.ptr_fields)]
                if rng.random() < 0.5:
                    access = f"{self.px}ci{k}_{i % 2}.{field_name}"
                else:
                    access = f"{self.px}cp{k}->{field_name}"
                if rng.random() < 0.5:
                    self._emit(i, f"{access} = {self._pick1(i, 1).name};")
                else:
                    self._emit(i, f"{self._pick1(i, 1).name} = {access};")
                return
            if rng.random() < 0.5:
                lhs = self._struct_lvalue(i, pointer_field=True)
                rhs = self._pick1(i, 1).name
            else:
                lhs = self._pick1(i, 1).name
                rhs = self._struct_lvalue(i, pointer_field=True)
            self._emit(i, f"{lhs} = {rhs};")
            return
        if rng.random() < self.p.join_factor:
            hub = self._pick_hub()
            other = self._pick1(i, 1)
            if rng.random() < 0.5:
                self._emit(i, f"{hub.name} = {other.name};")
            else:
                self._emit(i, f"{other.name} = {hub.name};")
            return
        level = rng.choices((1, 2), weights=(80, 20))[0]
        dst, src = self._pick2(i, level)
        self._emit(i, f"{dst.name} = {src.name};")

    def _emit_addr(self, i: int) -> None:
        rng = self.rng
        if rng.random() < self.p.struct_churn * 0.5:
            lhs = self._struct_lvalue(i, pointer_field=True)
            target = self._pick1(i, 0)
            self._emit(i, f"{lhs} = &{target.name};")
            return
        if rng.random() < 0.25:
            dst, target = self._pick_pair_levels(i, 2, 1)
        else:
            dst, target = self._pick_pair_levels(i, 1, 0)
        self._emit(i, f"{dst.name} = &{target.name};")

    def _emit_store(self, i: int) -> None:
        if self.rng.random() < self.p.complex_int_fraction:
            p, v = self._pick_pair_levels(i, 1, 0)
            self._emit(i, f"*{p.name} = {v.name};")
        else:
            pp, p = self._pick_pair_levels(i, 2, 1)
            self._emit(i, f"*{pp.name} = {p.name};")

    def _emit_load(self, i: int) -> None:
        if self.rng.random() < self.p.complex_int_fraction:
            p, v = self._pick_pair_levels(i, 1, 0)
            self._emit(i, f"{v.name} = *{p.name};")
        else:
            pp, p = self._pick_pair_levels(i, 2, 1)
            self._emit(i, f"{p.name} = *{pp.name};")

    def _emit_store_load(self, i: int) -> None:
        if self.rng.random() < self.p.complex_int_fraction:
            a, b = self._pick2(i, 1)
            self._emit(i, f"*{a.name} = *{b.name};")
        else:
            a, b = self._pick2(i, 2)
            self._emit(i, f"*{a.name} = *{b.name};")

    def _emit_calls(self) -> None:
        """Direct calls, mostly within the same file (real call graphs are
        module-local first)."""
        rng = self.rng
        by_file: dict[int, list[_Function]] = {}
        for fn in self.functions:
            by_file.setdefault(fn.file_index, []).append(fn)
        for caller_index, caller in enumerate(self.functions):
            if rng.random() < 0.3:
                continue
            if rng.random() < 0.7:
                callee = rng.choice(by_file[caller.file_index])
            else:
                callee = rng.choice(self.functions)
            args = [
                self._pick1(caller_index, param.level).name
                for param in callee.params
            ]
            call = f"{callee.name}({', '.join(args)})"
            if callee.returns_pointer:
                dst = self._pick1(caller_index, 1)
                self._emit(caller_index, f"{dst.name} = {call};")
            else:
                self._emit(caller_index, f"{call};")

    def _emit_funcptrs(self) -> None:
        rng = self.rng
        candidates = [f for f in self.functions if f.returns_pointer
                      and len(f.params) <= 2]
        if not candidates:
            return
        n_ptrs = max(1, self.p.funcptr_sites // 2)
        self.funcptr_names = [f"{self.px}fptr{i}" for i in range(n_ptrs)]
        for fp in self.funcptr_names:
            for _ in range(2):  # two possible targets each
                target = rng.choice(candidates)
                i = self._rand_fn()
                self._emit(i, f"{fp} = {target.name};")
        arity_by_ptr: dict[str, int] = {}
        for _site in range(self.p.funcptr_sites):
            fp = rng.choice(self.funcptr_names)
            i = self._rand_fn()
            arity = arity_by_ptr.setdefault(fp, rng.randint(0, 2))
            args = ", ".join(self._pick1(i, 1).name for _ in range(arity))
            dst = self._pick1(i, 1)
            self._emit(i, f"{dst.name} = {fp}({args});")

    # -- rendering ------------------------------------------------------------

    def _render(self) -> SynthProgram:
        header = self._render_header()
        files: dict[str, str] = {}
        for file_index in range(self.p.files):
            name = f"{self.px}synth_{file_index:03d}.c"
            files[name] = self._render_file(file_index)
        return SynthProgram(
            profile=self.p, seed=self.seed, header=header, files=files,
            header_name=f"{self.px}{HEADER_NAME}",
        )

    def _render_header(self) -> str:
        out = [
            "/* Generated by repro.synth — profile "
            f"{self.p.name!r}, seed {self.seed}. */",
            f"#ifndef {self.px.upper()}SYNTH_H",
            f"#define {self.px.upper()}SYNTH_H",
            "",
        ]
        for info in self.structs + self.containers:
            fields = [f"    int *{f};" for f in info.ptr_fields]
            fields += [f"    int {f};" for f in info.int_fields]
            out.append(f"struct {info.tag} {{")
            out.extend(fields)
            out.append("};")
        out.append("")
        for level in (0, 1, 2):
            stars = "*" * level
            for var in self.globals[level]:
                out.append(f"extern int {stars}{var.name};")
        for hub in self.hubs:
            out.append(f"extern int *{hub.name};")
        for name, info in self.struct_instances:
            out.append(f"extern struct {info.tag} {name};")
        for name, info in self.struct_pointers:
            out.append(f"extern struct {info.tag} *{name};")
        for k, info in enumerate(self.containers):
            out.append(f"extern struct {info.tag} ci{k}_0;")
            out.append(f"extern struct {info.tag} ci{k}_1;")
            out.append(f"extern struct {info.tag} *cp{k};")
        for fp in self.funcptr_names:
            out.append(f"extern int *(*{fp})();")
        out.append("")
        for fn in self.functions:
            ret = "int *" if fn.returns_pointer else "int"
            params = ", ".join(
                f"int {'*' * p.level}{p.name}" for p in fn.params
            ) or "void"
            out.append(f"{ret} {fn.name}({params});")
        out.append("")
        out.append(f"#endif /* {self.px.upper()}SYNTH_H */")
        out.append("")
        return "\n".join(out)

    def _render_file(self, file_index: int) -> str:
        out = [f'#include "{self.px}{HEADER_NAME}"', ""]
        if file_index == 0:
            # Definitions of all shared globals live in the first file.
            for level in (0, 1, 2):
                stars = "*" * level
                for var in self.globals[level]:
                    out.append(f"int {stars}{var.name};")
            for hub in self.hubs:
                out.append(f"int *{hub.name};")
            for name, info in self.struct_instances:
                out.append(f"struct {info.tag} {name};")
            for name, info in self.struct_pointers:
                out.append(f"struct {info.tag} *{name};")
            for k, info in enumerate(self.containers):
                out.append(f"struct {info.tag} ci{k}_0;")
                out.append(f"struct {info.tag} ci{k}_1;")
                out.append(f"struct {info.tag} *cp{k};")
            for fp in self.funcptr_names:
                out.append(f"int *(*{fp})();")
            out.append("")
        for fn_index, fn in enumerate(self.functions):
            if fn.file_index != file_index:
                continue
            out.append(self._render_function(fn_index, fn))
            out.append("")
        return "\n".join(out)

    def _render_function(self, fn_index: int, fn: _Function) -> str:
        rng = random.Random(f"{self.seed}:{fn_index}")
        ret = "int *" if fn.returns_pointer else "int"
        params = ", ".join(
            f"int {'*' * p.level}{p.name}" for p in fn.params
        ) or "void"
        lines = [f"{ret} {fn.name}({params})", "{"]
        for var in fn.locals:
            lines.append(f"    int {'*' * var.level}{var.name};")
        # Sprinkle control flow: every few statements open an if/while
        # block around the next couple of assignments.
        body = list(fn.body)
        i = 0
        while i < len(body):
            roll = rng.random()
            if roll < 0.12 and i + 1 < len(body):
                cond = self._condition(fn, rng)
                lines.append(f"    if ({cond}) {{")
                lines.append(f"        {body[i]}")
                lines.append(f"        {body[i + 1]}")
                lines.append("    }")
                i += 2
            elif roll < 0.18 and i + 1 < len(body):
                cond = self._condition(fn, rng)
                lines.append(f"    while ({cond}) {{")
                lines.append(f"        {body[i]}")
                lines.append("        break;")
                lines.append("    }")
                lines.append(f"    {body[i + 1]}")
                i += 2
            else:
                lines.append(f"    {body[i]}")
                i += 1
        if fn.returns_pointer:
            pool = [v for v in fn.locals if v.level == 1] or self.globals[1]
            lines.append(f"    return {rng.choice(pool).name};")
        else:
            pool = [v for v in fn.locals if v.level == 0] or self.globals[0]
            lines.append(f"    return {rng.choice(pool).name};")
        lines.append("}")
        return "\n".join(lines)

    def _condition(self, fn: _Function, rng: random.Random) -> str:
        pool = [v for v in fn.locals if v.level == 0] or self.globals[0]
        var = rng.choice(pool)
        return rng.choice([
            f"{var.name} > 0", f"{var.name} != 0", f"{var.name} < 100",
        ])


def generate(profile: SynthProfile | str, scale: float = 1.0,
             seed: int = 0, name_prefix: str = "") -> SynthProgram:
    """Generate a synthetic code base for a profile (by name or object).

    ``name_prefix`` qualifies every file-scope name, struct tag, and
    filename (used by the streaming huge tier to concatenate many
    mini-programs into one store without link-time collisions); the
    default ``""`` keeps the output byte-identical to earlier releases.
    """
    if isinstance(profile, str):
        profile = get_profile(profile, scale)
    elif scale != 1.0:
        profile = profile.scaled(scale)
    return _Generator(profile, seed, name_prefix=name_prefix).build()
