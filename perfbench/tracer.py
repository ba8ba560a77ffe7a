"""Per-layer tracing of coadjoint from outside the package.

The tracer rebinds each traced function in every `coadjoint.*` module that
holds it, because modules bind names at import (`from .qlinalg import rank`,
`index as algebra_index`); methods are patched on their class.  Every wrapped
call is a span.  A span's self time is its duration minus the time covered by
its direct child spans.  Spans stay in memory until the run ends.
"""

import functools
import sys
import time

# Layer = module of coadjoint; spans are "<layer>.<function>".  Entries with a
# dot name a method on a class of that module.
LAYERS = {
    "qlinalg": ("rank", "kernel_basis", "solve_right", "inverse"),
    "liealg": ("classical_algebra", "subalgebra", "index", "fingerprint",
               "LieAlgebraData.bracket", "LieAlgebraData.kirillov_form"),
    "repn": ("build_module", "contraction_kernel", "exterior_power", "spin_rep"),
    "semidirect": ("semidirect", "stabiliser_in_V", "generic_stabiliser_in_V",
                   "direct_index", "rais_index"),
    "invariants": ("generator_ledger", "invariant_space", "lie_derivative",
                   "is_invariant", "freeness_checklist", "jacobian_independent"),
    "constructions": ("minimal_nilpotent_centraliser_layout",
                      "two_block_centraliser_layout", "e_delta_restricted",
                      "symbolic_minor_sum", "z2_contraction", "item3_lift",
                      "item3_evaluation_identity"),
    "atlas": ("load_atlas", "named_fingerprint", "sp_heis_algebra", "verify_row"),
}

# qlinalg.rank and qlinalg.kernel_basis calls on inputs with
# min(rows, cols) above this also count as a ".large" span.  It is a shape
# class (the size at which qlinalg switches to its modular path), not the path
# that actually ran.
LARGE_MIN_DIM = 70

# Span-derived aliases and counters, beside "<span>.calls" and "<span>.self_s".
LARGE_SPANS = ("qlinalg.rank.large", "qlinalg.kernel_basis.large")
COUNTERS = ("qlinalg.cells", "liealg.index.rounds", "liealg.index.unstable",
            "semidirect.generic_stabiliser_in_V.unstable",
            "invariants.invariant_space.monomials",
            "invariants.invariant_space.found",
            "invariants.generator_ledger.skipped")


class Tracer:
    """Spans and counters, kept in memory; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # [name, start, end, parent span index or -1]
        self.stats = {}      # span name -> [calls, self seconds]
        self.counters = {}
        self._stack = []     # [span index, seconds covered by child spans]
        self._restore = []   # (namespace, attribute, original)

    def enter(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, self.clock(), None, parent])

    def exit(self, aliases=()):
        """Close the innermost span; `aliases` get the same call and self time."""
        idx, covered = self._stack.pop()
        span = self.spans[idx]
        span[2] = self.clock()
        duration = span[2] - span[1]
        for name in (span[0], *aliases):
            stat = self.stats.setdefault(name, [0, 0.0])
            stat[0] += 1
            stat[1] += duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, before=None, after=None):
        """fn as a span.  before(tracer, *args) returns alias span names;
        after(tracer, result, *args) updates counters once the span closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            aliases = before(self, *args, **kwargs) if before else ()
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(aliases)
            if after:
                after(self, result, *args, **kwargs)
            return result

        return traced

    def install(self):
        """Rebind every traced function wherever coadjoint's modules hold it."""
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None
                   and (n == "coadjoint" or n.startswith("coadjoint."))]
        for layer, names in LAYERS.items():
            home = sys.modules[f"coadjoint.{layer}"]
            for qualname in names:
                owner, _, attr = qualname.rpartition(".")
                span = f"{layer}.{attr}"
                if owner:
                    cls = getattr(home, owner)
                    self._rebind(cls, attr, self.wrap(span, vars(cls)[attr],
                                                      *HOOKS.get(span, ())))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(span, original, *HOOKS.get(span, ()))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def _rebind(self, namespace, attr, wrapper):
        self._restore.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, wrapper)

    def uninstall(self):
        while self._restore:
            namespace, attr, original = self._restore.pop()
            setattr(namespace, attr, original)

    def metrics(self):
        """Every per-layer metric as {name: (value, unit)}, zeros included."""
        spans = [f"{layer}.{q.rpartition('.')[2]}"
                 for layer, names in LAYERS.items() for q in names]
        out = {}
        for span in spans + list(LARGE_SPANS):
            calls, self_s = self.stats.get(span, (0, 0.0))
            out[f"{span}.calls"] = (calls, "count")
            out[f"{span}.self_s"] = (self_s, "s")
        for name in COUNTERS:
            out[name] = (self.counters.get(name, 0), "count")
        return out


def metric_names():
    """Names of the per-layer metrics, in report order."""
    return list(Tracer().metrics())


def calibrate_overhead(batches=5, calls=20000):
    """Seconds one span adds to a call: wrapped minus plain no-op, median."""
    def noop(x):
        return x

    tracer = Tracer()
    traced = tracer.wrap("calibrate", noop)
    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    costs.sort()
    return costs[len(costs) // 2]


# --- counters fed from the arguments and results of coadjoint calls ---------


def _shape_before(span):
    def before(tracer, m, *args, **kwargs):
        tracer.count("qlinalg.cells", m.rows * m.cols)
        if span and min(m.rows, m.cols) > LARGE_MIN_DIM:
            return (span,)
        return ()
    return before


def _index_after(tracer, result, *args, **kwargs):
    tracer.count("liealg.index.rounds", len(result.samples))
    if not result.stabilised:
        tracer.count("liealg.index.unstable")


def _stabiliser_after(tracer, result, *args, **kwargs):
    if not result.stabilised:
        tracer.count("semidirect.generic_stabiliser_in_V.unstable")


def _invariant_space_after(tracer, result, S, mdeg, *args, **kwargs):
    from coadjoint.invariants import component_size

    tracer.count("invariants.invariant_space.monomials", component_size(S, mdeg))
    tracer.count("invariants.invariant_space.found", len(result))


def _ledger_after(tracer, result, *args, **kwargs):
    tracer.count("invariants.generator_ledger.skipped",
                 len(result.skipped_entries()))


HOOKS = {
    "qlinalg.rank": (_shape_before("qlinalg.rank.large"),),
    "qlinalg.kernel_basis": (_shape_before("qlinalg.kernel_basis.large"),),
    "qlinalg.solve_right": (_shape_before(None),),
    "qlinalg.inverse": (_shape_before(None),),
    "liealg.index": (None, _index_after),
    "semidirect.generic_stabiliser_in_V": (None, _stabiliser_after),
    "invariants.invariant_space": (None, _invariant_space_after),
    "invariants.generator_ledger": (None, _ledger_after),
}
