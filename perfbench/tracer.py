"""Per-layer tracing of qmpoly from outside the program.

`Tracer.install()` replaces public functions and methods of `field`,
`matrix`, `lattice`, `delsarte`, `flags`, `polymatroid` and `cli` with
wrappers.  A module-level function is replaced under every name that
binds it in any loaded qmpoly module, because callers look it up there:
`from .polymatroid import check_axioms` binds it into `qmpoly.cli`,
`subcode_dims` is bound into `qmpoly.flags`, and `generalized_weights`
into `qmpoly.delsarte`.  Methods are replaced on their class.

Field operations only count calls (a span per call would cost more than
the work).  Every other wrapper records a span (id, parent, request,
name, start, end), kept in memory and written out by `dump()`.  A span's
self time is its duration minus the time its child spans cover.  Spans
and counts made outside a request (`begin_request`/`end_request`) go to
the set-up account; only `lattice.build_s` and `lattice.members` read
it, since lattices are built during set-up in the in-process workloads.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

perf = time.perf_counter

PAIR = "lattice.pair"
AXIOMS = "polymatroid.axioms"

# metric -> span names whose self time it sums
SELF_TIME = {
    "matrix.rref_s": ("matrix.rref",),
    "lattice.pair_s": (PAIR,),
    "delsarte.table_s": ("delsarte.table",),
    "delsarte.code_weights_s": ("delsarte.code_weights",),
    "flags.table_s": ("flags.table",),
    "flags.duality_s": ("flags.duality",),
    "polymatroid.axioms_s": (AXIOMS,),
    "polymatroid.wei_s": ("polymatroid.wei",),
    "polymatroid.profiles_s": ("polymatroid.profiles",),
    "cli.startup_s": ("cli.startup",),
    "cli.load_input_s": ("cli.load_input",),
    "cli.self_s": ("cli.main",),
}

# Counters kept per account; `cli.import_s` is added by the launcher.
COUNTS = ("field.ops", "field.sub_calls", "matrix.rref_calls",
          "matrix.rref_cells", "matrix.init_calls", "lattice.pair_calls",
          "lattice.pair_computed", "delsarte.subcode_dims_calls",
          "delsarte.members_scanned", "polymatroid.axiom_pairs", "cli.import_s")

METRICS = ("field.ops", "field.sub_calls", "matrix.rref_calls",
           "matrix.rref_s", "matrix.rref_cells", "matrix.init_calls",
           "lattice.build_s", "lattice.members", "lattice.pair_calls",
           "lattice.pair_computed", "lattice.pair_hit_ratio",
           "lattice.pair_s", "delsarte.table_s", "delsarte.subcode_dims_calls",
           "delsarte.members_scanned", "delsarte.code_weights_s",
           "flags.table_s", "flags.duality_s", "polymatroid.axioms_s",
           "polymatroid.axiom_pairs", "polymatroid.wei_s",
           "polymatroid.profiles_s", "cli.startup_s", "cli.load_input_s",
           "cli.self_s", "trace.spans")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.rid = None
        self.setup = defaultdict(int)
        self.request = defaultdict(int)
        self.acc = self.setup
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- requests -----------------------------------------------------

    def begin_request(self, rid) -> None:
        self.rid = rid
        self.acc = self.request

    def end_request(self) -> None:
        self.rid = None
        self.acc = self.setup

    # -- wrappers -----------------------------------------------------

    def _counter(self, fn, *keys):
        tr = self

        def wrapper(*args, **kwargs):
            acc = tr.acc
            for key in keys:
                acc[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, fn, name, before=None, after=None):
        tr = self

        def wrapper(*args, **kwargs):
            sid = tr._next_id
            tr._next_id = sid + 1
            stack = tr._stack
            parent = stack[-1] if stack else None
            if before is not None:
                before(tr.acc, parent, args)
            frame = [sid, name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                tr.acc[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                tr.spans.append((sid, -1 if parent is None else parent[0],
                                 tr.rid, name, t0, t1))
            if after is not None:
                after(tr.acc, args)
            return result
        return wrapper

    def _patch_attr(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module: str, attr: str, make) -> None:
        fn = getattr(sys.modules[module], attr)
        wrapper = make(fn)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "qmpoly" or name.startswith("qmpoly.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._patch_attr(mod, key, wrapper)

    def install(self) -> Tracer:
        field = importlib.import_module("qmpoly.field")  # qmpoly.field is field()
        matrix = importlib.import_module("qmpoly.matrix")
        lattice = importlib.import_module("qmpoly.lattice")
        for mod in ("delsarte", "flags", "polymatroid", "cli"):
            importlib.import_module("qmpoly." + mod)

        for op in ("add", "neg", "mul", "inv"):
            self._patch_attr(field.GF, op,
                             self._counter(getattr(field.GF, op), "field.ops"))
        self._patch_attr(field.GF, "sub", self._counter(
            field.GF.sub, "field.ops", "field.sub_calls"))

        def rref_before(acc, parent, args):
            acc["matrix.rref_calls"] += 1
            mat = args[0]
            if getattr(mat, "_rr", None) is None:
                acc["matrix.rref_cells"] += mat.nrows * mat.ncols
        self._patch_attr(matrix.Matrix, "rref", self._span(
            matrix.Matrix.rref, "matrix.rref", before=rref_before))
        self._patch_attr(matrix.Matrix, "__init__", self._counter(
            matrix.Matrix.__init__, "matrix.init_calls"))

        def build_after(acc, args):
            acc["lattice.members"] += len(args[0])
        self._patch_attr(lattice.SubspaceLattice, "__init__", self._span(
            lattice.SubspaceLattice.__init__, "lattice.build", after=build_after))

        def pair_before(acc, parent, args):
            acc["lattice.pair_calls"] += 1
            if parent is not None and parent[1] == AXIOMS:
                acc["polymatroid.axiom_pairs"] += 1
        for meth in ("sum_index", "meet_index", "leq"):
            self._patch_attr(lattice.SubspaceLattice, meth, self._span(
                getattr(lattice.SubspaceLattice, meth), PAIR, before=pair_before))
        for meth in ("__add__", "__and__", "__le__"):
            self._patch_attr(lattice.Subspace, meth, self._counter(
                getattr(lattice.Subspace, meth), "lattice.pair_computed"))

        def subcode_dims(fn):
            tr = self

            def wrapper(code, lat, *args, **kwargs):
                tr.acc["delsarte.subcode_dims_calls"] += 1
                tr.acc["delsarte.members_scanned"] += len(lat)
                return fn(code, lat, *args, **kwargs)
            return wrapper
        self._patch_function("qmpoly.delsarte", "subcode_dims", subcode_dims)

        spans = [
            ("qmpoly.delsarte", "to_polymatroid", "delsarte.table"),
            ("qmpoly.delsarte", "code_weights", "delsarte.code_weights"),
            ("qmpoly.delsarte", "anticode_weights", "delsarte.code_weights"),
            ("qmpoly.flags", "flag_polymatroid", "flags.table"),
            ("qmpoly.flags", "verify_flag_duality", "flags.duality"),
            ("qmpoly.polymatroid", "check_axioms", AXIOMS),
            ("qmpoly.polymatroid", "wei_duality_report", "polymatroid.wei"),
            ("qmpoly.polymatroid", "nullity_profiles", "polymatroid.profiles"),
            ("qmpoly.polymatroid", "generalized_weights", "polymatroid.profiles"),
            ("qmpoly.polymatroid", "weight_witnesses", "polymatroid.profiles"),
            ("qmpoly.cli", "main", "cli.main"),
            ("qmpoly.cli", "load_input", "cli.load_input"),
            ("qmpoly.cli", "build_parser", "cli.startup"),
        ]
        for module, attr, name in spans:
            self._patch_function(module, attr,
                                 lambda fn, name=name: self._span(fn, name))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------

    def raw(self) -> dict[str, float]:
        """Additive totals of this process: requests only, except the
        lattice build, which also counts set-up."""
        req, setup = self.request, self.setup
        out = {key: req.get(key, 0) for key in COUNTS}
        out["lattice.build_s"] = setup["lattice.build"] + req["lattice.build"]
        out["lattice.members"] = setup["lattice.members"] + req["lattice.members"]
        for metric, names in SELF_TIME.items():
            out[metric] = sum(req.get(name, 0.0) for name in names)
        out["trace.spans"] = sum(1 for s in self.spans if s[2] is not None)
        return out

    def dump(self, path, mode: str = "w") -> None:
        """Write the spans, one tab-separated line each:
        id, parent id, request id, name, start, end."""
        with open(path, mode, encoding="utf-8") as fh:
            fh.writelines(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]:.9f}\t{s[5]:.9f}\n"
                          for s in self.spans)


def metrics(raw: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from summed raw totals."""
    out = {key: raw.get(key, 0) for key in METRICS}
    out["cli.startup_s"] = raw.get("cli.startup_s", 0) + raw.get("cli.import_s", 0)
    calls = raw.get("lattice.pair_calls", 0)
    computed = raw.get("lattice.pair_computed", 0)
    out["lattice.pair_hit_ratio"] = (calls - computed) / calls if calls else 0.0
    return out
