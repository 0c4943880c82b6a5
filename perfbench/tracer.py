"""Layer tracing from outside the program: binding-aware wrappers and spans.

The tracer wraps chosen ``qmlib`` functions without editing them.  Modules
bind names with ``from .x import f``, so wrapping ``qmlib.x.f`` alone would
miss callers in other modules; ``install`` replaces *every* ``qmlib.*``
module attribute that is the original function object, and ``restore``
puts each one back.  ``ExtReal``'s comparison, ``__add__`` and ``__init__``
are counted by patching the class, and the CLI's process pool is replaced
by a subclass that times the wait for results and sizes the pickled tasks.

Spans (call id, span id, parent span id, name, start, end) are kept in
flat arrays in memory and written out at the end.  A span's self time is
its duration minus the time its child spans cover; it is accumulated on
the way out of each span.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from array import array

# Layer spans: metric prefix -> (module, attribute path of the original).
# space._validate is what FiniteSpace.validation reaches, so it is the
# body of the space.validate layer.
SPAN_TARGETS = (
    ("order.suprema", "qmlib.order", "suprema"),
    ("order.check_ed_complete", "qmlib.order", "check_ed_complete"),
    ("order.is_directed", "qmlib.order", "is_directed"),
    ("derived.derived_functions", "qmlib.derived", "derived_functions"),
    ("theorems.compose_with_filter", "qmlib.theorems", "compose_with_filter"),
    ("theorems.audit", "qmlib.theorems", "audit"),
    ("theorems.construct_directed_from_cauchy", "qmlib.theorems",
     "construct_directed_from_cauchy"),
    ("nets.zero_cliques", "qmlib.nets", "zero_cliques"),
    ("topology.is_complete", "qmlib.topology", "is_complete"),
    ("space.validate", "qmlib.space", "_validate"),
    ("space.space_from_dict", "qmlib.space", "space_from_dict"),
    ("space.derive", "qmlib.space", "derive"),
    ("space.minplus_closure", "qmlib.space", "minplus_closure"),
    ("space.threshold_grid", "qmlib.space", "threshold_grid"),
    ("family.FamilySpace.dist", "qmlib.family", "FamilySpace.dist"),
    ("family.family_is_complete", "qmlib.family", "family_is_complete"),
    ("gallery.build", "qmlib.gallery", "build"),
    ("gallery.verify", "qmlib.gallery", "verify"),
    ("generate.random_space", "qmlib.generate", "random_space"),
    ("generate.random_metric", "qmlib.generate", "random_metric"),
    ("generate.random_value_pair", "qmlib.generate", "random_value_pair"),
    ("cli.canonical_json", "qmlib.cli", "canonical_json"),
)

COMPARE_DUNDERS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")

# Per-layer metric -> (unit, better, workloads it must be nonzero on).
# The layer -> end-to-end mapping is documented in README.md.
_SWEEP_AUDIT = ("sweep_n6", "audit_n12")
_ALL = ("sweep_n6", "sweep_pool2", "audit_n12", "check_coprime", "gallery_c100")
LAYER_METRICS = {
    "order.suprema.calls": ("count", "lower", _SWEEP_AUDIT),
    "order.suprema.self_s": ("s", "lower", _SWEEP_AUDIT),
    "order.check_ed_complete.self_s": ("s", "lower", _SWEEP_AUDIT),
    "order.check_ed_complete.subsets_checked": ("count", "lower", _SWEEP_AUDIT),
    "order.check_ed_complete.directed_ratio": ("ratio", "higher", _SWEEP_AUDIT),
    "order.is_directed.calls": ("count", "lower", _SWEEP_AUDIT),
    "derived.derived_functions.self_s": ("s", "lower", ("check_coprime", "sweep_n6")),
    "derived.derived_functions.cuts": ("count", "lower", ("check_coprime", "sweep_n6")),
    "theorems.compose_with_filter.self_s": ("s", "lower", ("sweep_n6",)),
    "theorems.audit.self_s": ("s", "lower", ("sweep_n6",)),
    "theorems.construct_directed_from_cauchy.self_s": ("s", "lower", ("sweep_n6",)),
    "nets.zero_cliques.self_s": ("s", "lower", ("check_coprime", "audit_n12")),
    "nets.zero_cliques.cliques": ("count", "lower", ("check_coprime", "audit_n12")),
    "nets.zero_cliques.hit_ratio": ("ratio", "higher", ("check_coprime", "audit_n12")),
    "topology.is_complete.self_s": ("s", "lower", ("check_coprime", "audit_n12")),
    "topology.is_complete.cliques_checked": ("count", "lower", ("check_coprime", "audit_n12")),
    "space.validate.calls": ("count", "lower", ("gallery_c100",)),
    "space.validate.self_s": ("s", "lower", ("gallery_c100",)),
    "family.FamilySpace.dist.calls": ("count", "lower", ("gallery_c100",)),
    "family.FamilySpace.dist.self_s": ("s", "lower", ("gallery_c100",)),
    "family.family_is_complete.self_s": ("s", "lower", ("gallery_c100",)),
    "gallery.build.self_s": ("s", "lower", ("gallery_c100",)),
    "gallery.verify.self_s": ("s", "lower", ("gallery_c100",)),
    "space.space_from_dict.self_s": ("s", "lower", ("audit_n12",)),
    "space.derive.self_s": ("s", "lower", _SWEEP_AUDIT),
    "space.minplus_closure.self_s": ("s", "lower", ("sweep_n6",)),
    "space.threshold_grid.self_s": ("s", "lower", _SWEEP_AUDIT),
    "generate.random_space.self_s": ("s", "lower", ("sweep_n6",)),
    "generate.random_metric.self_s": ("s", "lower", ("sweep_n6",)),
    "generate.random_value_pair.self_s": ("s", "lower", ("sweep_n6",)),
    "cli.canonical_json.self_s": ("s", "lower", _SWEEP_AUDIT),
    "cli.pool.map_wait_s": ("s", "lower", ("sweep_pool2",)),
    "cli.pool.task_bytes": ("bytes", "lower", ("sweep_pool2",)),
    "extreal.compare_calls": ("count", "lower", _ALL),
    "extreal.add_calls": ("count", "lower", _ALL),
    "extreal.new_calls": ("count", "lower", _ALL),
}


def qmlib_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qmlib" or name.startswith("qmlib."))]


def bindings() -> dict:
    """Every attribute of every qmlib module, and of every class they define."""
    out = {}
    for m in qmlib_modules():
        for k, v in vars(m).items():
            out[f"{m.__name__}.{k}"] = v
            if isinstance(v, type) and v.__module__.startswith("qmlib"):
                for a, w in vars(v).items():
                    out[f"{v.__module__}.{v.__qualname__}.{a}"] = w
    return out


def changed_bindings(before: dict) -> list:
    """Names whose object differs from the ``bindings()`` snapshot."""
    after = bindings()
    missing = object()
    return sorted(k for k in before.keys() | after.keys()
                  if before.get(k, missing) is not after.get(k, missing))


def _get(owner, attr: str):
    """The attribute itself: a class's own entry, not a bound lookup."""
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def _resolve(module: str, path: str):
    """(owner, attribute name, original object) for a dotted attribute,
    or None when the program no longer has it."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
        return owner, attr, _get(owner, attr)
    except (AttributeError, KeyError):
        return None


class Tracer:
    """Collects spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.names = [name for name, _, _ in SPAN_TARGETS] + ["cli.main"]
        self._name_id = {n: k for k, n in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # span columns
        self.sp_call = array("q")
        self.sp_parent = array("q")
        self.sp_name = array("q")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._stack = []          # [span id, name id, child time]
        self.call_id = -1
        self.counts = {"compare": 0, "add": 0, "new": 0,
                       "ed_directed_tests": 0, "ed_subsets_checked": 0,
                       "cuts": 0, "cliques": 0, "clique_subsets": 0,
                       "cliques_checked": 0}
        self.pool_wait_s = 0.0
        self.pool_task_bytes = 0
        self._patches = []        # (owner, attribute, original)
        self.missing = []         # span targets the program does not have

    # -- spans --------------------------------------------------------------

    def _enter(self, name_id: int) -> list:
        frame = [len(self.sp_start), name_id, 0.0]
        self.sp_call.append(self.call_id)
        self.sp_parent.append(self._stack[-1][0] if self._stack else -1)
        self.sp_name.append(name_id)
        self.sp_start.append(0.0)
        self.sp_end.append(0.0)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        span, name_id, child = frame
        dur = end - start
        self.sp_start[span] = start
        self.sp_end[span] = end
        self.calls[name_id] += 1
        self.self_s[name_id] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def wrap(self, name: str, fn, observe=None):
        name_id = self._name_id[name]
        clock = time.perf_counter
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, start, clock())
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def top_name(self) -> str | None:
        return self.names[self._stack[-1][1]] if self._stack else None

    # -- observers of results (counts measured where the work happens) ------

    def _observers(self) -> dict:
        c = self.counts

        def ed(args, result):
            c["ed_subsets_checked"] += result.subsets_checked

        def directed(args, result):
            if self.top_name() == "order.check_ed_complete":
                c["ed_directed_tests"] += 1

        def derived(args, result):
            c["cuts"] += len(result.d_F.cuts)

        def cliques(args, result):
            space = args[0]
            core = sum(space.zero_up[i] >> i & 1 for i in range(space.n))
            c["cliques"] += len(result)
            c["clique_subsets"] += (1 << core) - 1

        def complete(args, result):
            c["cliques_checked"] += getattr(result, "cliques_checked", 0)

        return {"order.check_ed_complete": ed, "order.is_directed": directed,
                "derived.derived_functions": derived,
                "nets.zero_cliques": cliques, "topology.is_complete": complete}

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, _get(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = qmlib_modules()
        observers = self._observers()
        for name, module, path in SPAN_TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr, orig = found
            wrapper = self.wrap(name, orig, observers.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        self._patch(m, k, wrapper)
        self._install_extreal()
        self._install_pool()

    def _install_extreal(self) -> None:
        from qmlib.extreal import ExtReal
        c = self.counts

        def counting(fn, key):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                c[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for dunder in COMPARE_DUNDERS:
            self._patch(ExtReal, dunder, counting(vars(ExtReal)[dunder], "compare"))
        self._patch(ExtReal, "__add__", counting(vars(ExtReal)["__add__"], "add"))
        self._patch(ExtReal, "__init__", counting(vars(ExtReal)["__init__"], "new"))

    def _install_pool(self) -> None:
        cli = sys.modules["qmlib.cli"]
        base = cli.ProcessPoolExecutor
        tracer = self

        class TimedPool(base):
            def map(self, fn, *iterables, timeout=None, chunksize=1):
                tasks = list(zip(*iterables))
                tracer.pool_task_bytes += sum(
                    len(pickle.dumps((fn, tasks[k:k + chunksize])))
                    for k in range(0, len(tasks), chunksize))
                start = time.perf_counter()
                columns = list(zip(*tasks)) or [() for _ in iterables]
                results = super().map(fn, *columns, timeout=timeout,
                                      chunksize=chunksize)

                def drain():
                    yield from results
                    tracer.pool_wait_s += time.perf_counter() - start
                return drain()

        self._patch(cli, "ProcessPoolExecutor", TimedPool)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric, summed over the traced calls."""
        idx = self._name_id
        c = self.counts
        values = {}
        for name, _, _ in SPAN_TARGETS:
            values[f"{name}.calls"] = self.calls[idx[name]]
            values[f"{name}.self_s"] = self.self_s[idx[name]]
        values.update({
            "order.check_ed_complete.subsets_checked": c["ed_subsets_checked"],
            "order.check_ed_complete.directed_ratio":
                c["ed_subsets_checked"] / c["ed_directed_tests"]
                if c["ed_directed_tests"] else 0.0,
            "derived.derived_functions.cuts": c["cuts"],
            "nets.zero_cliques.cliques": c["cliques"],
            "nets.zero_cliques.hit_ratio":
                c["cliques"] / c["clique_subsets"] if c["clique_subsets"] else 0.0,
            "topology.is_complete.cliques_checked": c["cliques_checked"],
            "cli.pool.map_wait_s": self.pool_wait_s,
            "cli.pool.task_bytes": self.pool_task_bytes,
            "extreal.compare_calls": c["compare"],
            "extreal.add_calls": c["add"],
            "extreal.new_calls": c["new"],
        })
        return {k: values[k] for k in LAYER_METRICS}

    def write_spans(self, path: str) -> int:
        """Write the spans as CSV; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("call_id,span_id,parent_id,name,start_s,end_s\n")
            for k in range(len(self.sp_start)):
                fh.write(f"{self.sp_call[k]},{k},{self.sp_parent[k]},"
                         f"{self.names[self.sp_name[k]]},{self.sp_start[k]:.9f},"
                         f"{self.sp_end[k]:.9f}\n")
        return len(self.sp_start)
