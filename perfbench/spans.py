"""Per-layer spans recorded from outside the library.

`Tracer.install()` wraps every public function of every ramforge module,
plus `linalg.RelationTracker.add` and the one private hook
`polyring._try_split` (whose calls are the equal-degree split attempts).
A wrapper replaces the function at every module that binds it by name,
so `belyi.ramification_report` and `cover.ramification_report` are the
same span.  Each span adds to its function's calls, busy time (wall time
of the outermost active call, so recursion is not counted twice) and self
time (busy time minus the time covered by nested spans).  `uninstall()`
puts the original functions back.  `Tracer.active` is the installed
tracer, if any.
"""

import functools
import importlib
import inspect
import time

MODULES = ("galois", "polyring", "linalg", "funcfield", "cover", "belyi",
           "pseudotame", "cli")
RENDER = ("report_as_dict", "chain_as_dict")


def _factor_key(f):
    return hash((f.field.p, f.field.m, f.encoding()))


def _report_key(cover):
    return hash((cover.field.p, cover.field.m, cover.num.encoding(),
                 cover.den.encoding()))


class Tracer:
    active = None

    def __init__(self):
        self.stats = {}  # span name -> [calls, busy_s, self_s]
        self.self_total = 0.0  # summed self time of every span closed so far
        self.render_s = 0.0  # busy time of the outermost render call
        self.split_attempts = 0
        self.split_success = 0
        self.factor_max_degree = 0
        self.factor_keys = []
        self.report_keys = []
        self._stack = []  # time covered by nested spans, one slot per open span
        self._depth = {}
        self._render_depth = 0
        self._undo = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth = self._stack, self._depth
        render = fn.__name__ in RENDER
        note = {"polyring.factor": self._note_factor,
                "cover.ramification_report": self._note_report}.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if note is not None:
                note(*args)
            outer = depth.get(name, 0)
            depth[name] = outer + 1
            if render:
                self._render_depth += 1
            stats[0] += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = stack.pop()
                depth[name] = outer
                if not outer:
                    stats[1] += dt
                stats[2] += dt - nested
                self.self_total += dt - nested
                if stack:
                    stack[-1] += dt
                if render:
                    self._render_depth -= 1
                    if not self._render_depth:
                        self.render_s += dt

        return span

    def _note_factor(self, f):
        self.factor_keys.append(_factor_key(f))
        self.factor_max_degree = max(self.factor_max_degree, f.degree)

    def _note_report(self, cover):
        self.report_keys.append(_report_key(cover))

    def _count_split(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            g = fn(*args)
            self.split_attempts += 1
            self.split_success += g is not None
            return g

        return counted

    # -- installation ----------------------------------------------------

    def install(self):
        mods = [importlib.import_module("ramforge")]
        mods += [importlib.import_module(f"ramforge.{m}") for m in MODULES]
        wrapped = {}
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__ and fn not in wrapped):
                    wrapped[fn] = self._wrap(f"{short}.{fn.__name__}", fn)
        polyring = importlib.import_module("ramforge.polyring")
        wrapped[polyring._try_split] = self._count_split(polyring._try_split)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        linalg = importlib.import_module("ramforge.linalg")
        add = linalg.RelationTracker.add
        self._undo.append((linalg.RelationTracker, "add", add))
        linalg.RelationTracker.add = self._wrap("linalg.RelationTracker.add", add)
        Tracer.active = self
        return self

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()
        Tracer.active = None

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """Everything recorded, as plain JSON data (summable across processes)."""
        return {
            "stats": self.stats,
            "self_total": self.self_total,
            "render_s": self.render_s,
            "split_attempts": self.split_attempts,
            "split_success": self.split_success,
            "factor_max_degree": self.factor_max_degree,
            "factor_keys": self.factor_keys,
            "report_keys": self.report_keys,
        }

    def merge(self, snap):
        for name, (calls, busy, own) in snap["stats"].items():
            stats = self.stats.setdefault(name, [0, 0.0, 0.0])
            stats[0] += calls
            stats[1] += busy
            stats[2] += own
        self.self_total += snap["self_total"]
        self.render_s += snap["render_s"]
        self.split_attempts += snap["split_attempts"]
        self.split_success += snap["split_success"]
        self.factor_max_degree = max(self.factor_max_degree,
                                     snap["factor_max_degree"])
        self.factor_keys += snap["factor_keys"]
        self.report_keys += snap["report_keys"]


def _ratio(num, den):
    return num / den if den else 0.0


SPANS = (
    "galois.field_create",
    "polyring.factor", "polyring.is_irreducible", "polyring.gcd",
    "polyring.squarefree_decompose",
    "funcfield.divisor_of", "funcfield.valuation", "funcfield.laurent_expand",
    "funcfield.rr_basis",
    "linalg.RelationTracker.add",
    "cover.ramification_report", "cover.fiber", "cover.pushforward_place",
    "cover.compose",
    "belyi.wild_belyi", "belyi.tame_belyi_genus0", "belyi.lemma_main_map",
    "belyi.wild_step", "belyi.chain_as_dict",
    "pseudotame.quartic_decompose", "pseudotame.cocycle_defect",
    "pseudotame.critical_places", "pseudotame.is_pseudotame_at",
    "pseudotame.square_completion", "pseudotame.quartic_pole_reduction",
)


def layer_metrics(tracer):
    """The per-layer metrics the benchmark reports, from one tracer."""
    out = {}
    for name in SPANS:
        calls, busy, own = tracer.stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.self_s"] = (own, "s")
    fk, rk = tracer.factor_keys, tracer.report_keys
    out["polyring.factor.max_degree"] = (tracer.factor_max_degree, "count")
    out["polyring.factor.distinct_ratio"] = (_ratio(len(set(fk)), len(fk)), "ratio")
    out["cover.ramification_report.distinct_ratio"] = (
        _ratio(len(set(rk)), len(rk)), "ratio")
    out["polyring.edf.split_attempts"] = (tracer.split_attempts, "count")
    out["polyring.edf.split_success_ratio"] = (
        _ratio(tracer.split_success, tracer.split_attempts), "ratio")
    return out
