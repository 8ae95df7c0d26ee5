"""Per-layer tracing from outside the program.

Wrappers are installed on the public functions and methods of each
torickit layer module, on the module attributes and on every binding
that another module made with ``from ... import``.  A wrapper counts
calls and measures self time: its span in CPU time of the thread minus
the spans of the wrapped calls it made.  A few wrappers also record sizes (terms multiplied,
quotient terms, denominator terms).  Nothing inside the program changes,
and ``uninstall`` restores every binding.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import time
import types

LAYER_MODULES = (
    "torickit.gitdata",
    "torickit.localization",
    "torickit.wallcrossing",
    "torickit.windows",
    "torickit.exactalg.lp",
    "torickit.exactalg.intlinalg",
    "torickit.exactalg.cyclotomic",
    "torickit.exactalg.laurent",
    "torickit.exactalg.ratchar",
    "torickit.exactalg.series",
)

# Special methods that do the algebra; other dunders (hash, bool, str)
# are bookkeeping and stay unwrapped.
WRAPPED_DUNDERS = frozenset(
    {
        "__init__",
        "__post_init__",
        "__add__",
        "__radd__",
        "__sub__",
        "__rsub__",
        "__neg__",
        "__mul__",
        "__rmul__",
        "__truediv__",
        "__rtruediv__",
        "__pow__",
        "__eq__",
        "__matmul__",
    }
)

MARK = "_benchmark_wrapper"


class Record:
    __slots__ = ("key", "calls", "self_s")

    def __init__(self, key: str):
        self.key = key
        self.calls = 0
        self.self_s = 0.0


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[1]


def _targets():
    """(key, function, owner, attribute, is_static) for every traced callable."""
    out = []
    for mod_name in LAYER_MODULES:
        mod = sys.modules[mod_name]
        short = _short(mod_name)
        for name, obj in vars(mod).items():
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod_name and not name.startswith("_"):
                out.append(("%s.%s" % (short, name), obj, mod, name, False))
            elif isinstance(obj, type) and obj.__module__ == mod_name:
                for attr, raw in vars(obj).items():
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    if not isinstance(fn, types.FunctionType):
                        continue
                    if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                        continue
                    if fn.__code__.co_filename != mod.__file__:
                        continue  # generated by dataclasses
                    out.append(("%s.%s.%s" % (short, name, attr), fn, obj, attr, static))
    return out


def _program_modules():
    """Every imported torickit module."""
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "torickit" or name.startswith("torickit."))]


def _is_wrapper(obj) -> bool:
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    return getattr(obj, MARK, None) is True


def installed_wrappers() -> list[str]:
    """Names of every binding that holds a wrapper: in any torickit module,
    and in any class that one of them binds."""
    found = []
    classes = {}
    for mod in _program_modules():
        for name, obj in vars(mod).items():
            if _is_wrapper(obj):
                found.append("%s.%s" % (mod.__name__, name))
            elif isinstance(obj, type):
                classes[id(obj)] = obj
    for cls in classes.values():
        found += ["%s.%s.%s" % (cls.__module__, cls.__qualname__, attr)
                  for attr, raw in vars(cls).items() if _is_wrapper(raw)]
    return found


class Tracer:
    """Call counts, self times and size counters for the layer modules."""

    def __init__(self):
        self.records: dict[str, Record] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrapped: list[tuple[types.FunctionType, Record]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for key, fn, owner, attr, static in _targets():
            if id(fn) not in by_id:
                rec = self.records.setdefault(key, Record(key))
                by_id[id(fn)] = (fn, self._wrap(fn, rec, _HOOKS.get(key)))
                self._wrapped.append((fn, rec))
            wrapper = by_id[id(fn)][1]
            self._patch(owner, attr, staticmethod(wrapper) if static else wrapper)
        # bindings made by `from ... import` in any torickit module; the
        # benchmark itself calls through module attributes
        for mod in _program_modules():
            for name, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._wrapped = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, rec: Record, hook):
        stack = self._stack
        clock = time.thread_time  # CPU time, like the yardstick: a deschedule is not booked
        counters = self.counters

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                rec.calls += 1
                rec.self_s += span - stack.pop()
                if stack:
                    stack[-1] += span
            if hook is not None:
                hook(counters, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    # -- readings ---------------------------------------------------------

    def reset(self):
        for rec in self.records.values():
            rec.calls = 0
            rec.self_s = 0.0
        self.counters.clear()

    def self_times(self) -> dict[str, float]:
        return {key: rec.self_s for key, rec in self.records.items()}

    def calls(self) -> dict[str, int]:
        return {key: rec.calls for key, rec in self.records.items()}

    def compare_with_cprofile(self, run) -> dict:
        """Run ``run()`` under cProfile with the wrappers installed and compare
        each wrapped function's cProfile call count with its wrapper's."""
        self.reset()
        prof = cProfile.Profile()
        prof.enable()
        try:
            run()
        finally:
            prof.disable()
        by_location = {}
        for (filename, line, _name), (_cc, nc, _tt, _ct, _callers) in pstats.Stats(prof).stats.items():
            by_location[(filename, line)] = by_location.get((filename, line), 0) + nc
        mismatches = []
        called = 0
        for fn, rec in self._wrapped:
            code = fn.__code__
            profiled = by_location.get((code.co_filename, code.co_firstlineno), 0)
            called += rec.calls > 0
            if profiled != rec.calls:
                mismatches.append({"function": rec.key, "wrapper": rec.calls, "cprofile": profiled})
        self.reset()
        return {"functions": len(self._wrapped), "called": called, "mismatches": mismatches}


# -- size counters ----------------------------------------------------------


def _laurent_mul(counters, args, result):
    a, b = args[0], args[1]
    if type(b) is type(a):
        counters["laurent.mul.term_pairs"] = counters.get("laurent.mul.term_pairs", 0) + len(a.terms) * len(b.terms)


def _divide_exact(counters, args, result):
    if result is not None:
        key = "laurent.divide_exact.quotient_terms"
        counters[key] = counters.get(key, 0) + len(result.terms)


def _cyc_init(counters, args, result):
    if args[0].n == 1:
        counters["cyclotomic.cyc_rational"] = counters.get("cyclotomic.cyc_rational", 0) + 1


def _cleared_fraction(counters, args, result):
    counters["ratchar.cleared_num_terms"] = counters.get("ratchar.cleared_num_terms", 0) + len(result[0].terms)


def _ratfun_init(counters, args, result):
    size = len(args[0].den.terms)
    if size > counters.get("series.den_terms_max", 0):
        counters["series.den_terms_max"] = size


_HOOKS = {
    "laurent.LaurentPoly.__mul__": _laurent_mul,
    "laurent.LaurentPoly.divide_exact": _divide_exact,
    "cyclotomic.Cyc.__init__": _cyc_init,
    "ratchar.RationalCharacter.cleared_fraction": _cleared_fraction,
    "series.RatFun.__init__": _ratfun_init,
}


# -- the per-layer metrics ------------------------------------------------------

# metric name -> (reading, traced keys summed); a reading of "module" sums
# the self time of every traced function of that module.
LAYER_METRICS = {
    "gitdata.anticones.calls": ("calls", ["gitdata.anticones"]),
    "gitdata.anticones.self_s": ("self_s", ["gitdata.anticones"]),
    "gitdata.validate.calls": ("calls", ["gitdata.validate"]),
    "gitdata.is_on_wall.calls": ("calls", ["gitdata.is_on_wall"]),
    "lp.cone_contains.calls": ("calls", ["lp.cone_contains"]),
    "lp.solve_lp.calls": ("calls", ["lp.solve_lp"]),
    "lp.self_s": ("module", ["lp"]),
    "intlinalg.smith_normal_form.calls": ("calls", ["intlinalg.smith_normal_form"]),
    "intlinalg.rational_solve.calls": ("calls", ["intlinalg.rational_solve"]),
    "intlinalg.self_s": ("module", ["intlinalg"]),
    "localization.fixed_point_data.calls": ("calls", ["localization.fixed_point_data"]),
    "localization.restrict.calls": ("calls", ["localization.restrict"]),
    "localization.euler_characteristic.self_s": ("self_s", ["localization.euler_characteristic"]),
    "localization.hrr_rhs.self_s": ("self_s", ["localization.hrr_rhs"]),
    "wallcrossing.make_wall_crossing.self_s": ("self_s", ["wallcrossing.make_wall_crossing"]),
    "wallcrossing.extend.self_s": ("self_s", ["wallcrossing.extend"]),
    "windows.window_lift.self_s": ("self_s", ["windows.window_lift"]),
    "windows.seven_loci.self_s": ("self_s", ["windows.seven_loci"]),
    "windows.fm_euler_check.self_s": ("self_s", ["windows.fm_euler_check"]),
    "ratchar.rat_equal.calls": ("calls", ["ratchar.rat_equal"]),
    "ratchar.cleared_fraction.self_s": ("self_s", ["ratchar.RationalCharacter.cleared_fraction"]),
    "ratchar.cleared_num_terms": ("counter", ["ratchar.cleared_num_terms"]),
    "ratchar.specialize.self_s": ("self_s", ["ratchar.specialize", "ratchar.RationalCharacter.specialize"]),
    "ratchar.as_laurent_polynomial.self_s": ("self_s", ["ratchar.RationalCharacter.as_laurent_polynomial"]),
    "laurent.mul.calls": ("calls", ["laurent.LaurentPoly.__mul__"]),
    "laurent.mul.term_pairs": ("counter", ["laurent.mul.term_pairs"]),
    "laurent.mul.self_s": ("self_s", ["laurent.LaurentPoly.__mul__"]),
    "laurent.divide_exact.calls": ("calls", ["laurent.LaurentPoly.divide_exact"]),
    "laurent.divide_exact.self_s": ("self_s", ["laurent.LaurentPoly.divide_exact"]),
    "laurent.divide_exact.quotient_terms": ("counter", ["laurent.divide_exact.quotient_terms"]),
    "cyclotomic.cyc_new": ("calls", ["cyclotomic.Cyc.__init__"]),
    "cyclotomic.cyc_rational": ("counter", ["cyclotomic.cyc_rational"]),
    "cyclotomic.self_s": ("module", ["cyclotomic"]),
    "series.expand_rational.self_s": ("self_s", ["series.expand_rational"]),
    "series.first_mismatch.self_s": ("self_s", ["series.GradedSeries.first_mismatch"]),
    "series.ratfun_eq.calls": ("calls", ["series.RatFun.__eq__"]),
    "series.den_terms_max": ("counter", ["series.den_terms_max"]),
    "series.tseries_mul.calls": ("calls", ["series.tseries_mul"]),
    "series.self_s": ("module", ["series"]),
}


def layer_values(calls: dict, self_s: dict, counters: dict) -> dict[str, float]:
    """Evaluate LAYER_METRICS on one round's readings."""
    out = {}
    for metric, (reading, keys) in LAYER_METRICS.items():
        if reading == "calls":
            out[metric] = sum(calls.get(k, 0) for k in keys)
        elif reading == "self_s":
            out[metric] = sum(self_s.get(k, 0.0) for k in keys)
        elif reading == "counter":
            out[metric] = sum(counters.get(k, 0) for k in keys)
        else:
            prefix = keys[0] + "."
            out[metric] = sum(v for k, v in self_s.items() if k.startswith(prefix))
    return out
