"""Outside-in tracer for tatekit's layer boundaries.

``Tracer.install()`` wraps public functions of the loaded ``tatekit.*``
modules and a few class methods; nothing under ``src/`` changes.  Functions
are replaced in ``sys.modules["tatekit.<mod>"]`` (the package attribute
``tatekit.gmodule`` is the re-exported function, not the submodule), and
every ``from .x import f`` alias in any loaded tatekit module is rebound to
the same wrapper.  Only layer boundaries are wrapped: ``IntMatrix.mul_vec``
is, its inner generator is not.

Each span records name, start, end, parent span and job id in compact
arrays kept in memory and written by ``dump()`` when the run ends.  Self
time is the span's duration minus the time its child spans cover.  The
clock stops while the tracer does its own bookkeeping (span records, bit
counts), so that work does not land in any span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

ns = time.perf_counter_ns

# (module, attribute, span name); ``Class.method`` attributes are wrapped on the class
SPANS = [
    ("matrices", "smith_normal_form", "matrices.smith_normal_form"),
    ("matrices", "solve_vector", "matrices.solve_vector"),
    ("matrices", "IntMatrix.mul_vec", "matrices.mul_vec"),
    ("matrices", "IntMatrix.__matmul__", "matrices.matmul"),
    ("abgroup", "LatticeQuotient.__init__", "abgroup.LatticeQuotient.init"),
    ("abgroup", "LatticeQuotient.project", "abgroup.LatticeQuotient.project"),
    ("abgroup", "InducedMap.__init__", "abgroup.InducedMap.init"),
    ("abgroup", "InducedMap.kernel", "abgroup.InducedMap.kernel"),
    ("gmodule", "degree_zero_submodule", "gmodule.degree_zero_submodule"),
    ("gmodule", "coinvariants", "gmodule.coinvariants"),
    ("gmodule", "tate_h_minus1", "gmodule.tate_h_minus1"),
    ("gmodule", "permutation_module", "gmodule.permutation_module"),
    ("gmodule", "transfer", "gmodule.transfer"),
    ("sha", "sha1_S", "sha.sha1_S"),
    ("sha", "sha1_shapiro", "sha.sha1_shapiro"),
    ("sha", "tate_obstruction", "sha.tate_obstruction"),
    ("sha", "build_place_module", "sha.build_place_module"),
    ("tower", "simulate_splitting_tower", "tower.simulate_splitting_tower"),
    ("tower", "enumerate_subgroups", "tower.enumerate_subgroups"),
    ("periodindex", "verify_counterexample_local", "periodindex.verify_counterexample_local"),
    ("periodindex", "h1_local", "periodindex.h1_local"),
    ("local", "teichmuller_lift", "local.teichmuller_lift"),
    ("local", "quadratic_subextension", "local.quadratic_subextension"),
    ("local", "quadratic_subextension_with_trace", "local.quadratic_subextension"),
    ("serial", "load_json", "serial.load"),
    ("serial", "load_matrix", "serial.load"),
    ("serial", "load_group", "serial.load"),
    ("serial", "load_module", "serial.load"),
    ("serial", "load_subgroup", "serial.load"),
    ("serial", "load_scenario", "serial.load"),
    ("serial", "load_tower", "serial.load"),
    ("serial", "canonical_dumps", "serial.emit"),
    ("serial", "input_digest", "serial.emit"),
    ("cli", "main", "cli.main"),
]

# lru-cached functions whose cache_info() the run reports
CACHES = [
    ("gmodule", "coinvariants"),
    ("gmodule", "tate_h_minus1"),
    ("sha", "build_place_module"),
    ("periodindex", "h1_local"),
]


def _bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix.entries for x in row), default=0)


def _after_snf(tr, args, sf):
    a = args[0]
    tr.counters["matrices.smith_normal_form.cells"] += a.rows * a.cols
    tr.counters["matrices.smith_normal_form.max_dim"] = max(
        tr.counters["matrices.smith_normal_form.max_dim"], a.rows, a.cols
    )
    tr.counters["matrices.smith_normal_form.transform_bits_max"] = max(
        tr.counters["matrices.smith_normal_form.transform_bits_max"],
        _bits(sf.u), _bits(sf.v), _bits(sf.u_inv), _bits(sf.v_inv),
    )


def _after_mul_vec(tr, args, _):
    m = args[0]
    tr.counters["matrices.mul_vec.madds"] += m.rows * m.cols


def _after_matmul(tr, args, _):
    a, b = args
    tr.counters["matrices.matmul.madds"] += a.rows * a.cols * b.cols


def _after_place_module(tr, args, pm):
    # a place module seen for the first time was built, not served from the cache
    if id(pm) not in tr.built:
        tr.built[id(pm)] = pm
        rank = pm.sub.rank
        tr.counters["sha.place_module.rank_sum"] += rank
        tr.counters["sha.place_module.rank_max"] = max(tr.counters["sha.place_module.rank_max"], rank)


COUNTERS = [
    "matrices.smith_normal_form.cells",
    "matrices.smith_normal_form.max_dim",
    "matrices.smith_normal_form.transform_bits_max",
    "matrices.mul_vec.madds",
    "matrices.matmul.madds",
    "sha.place_module.rank_sum",
    "sha.place_module.rank_max",
]

AFTER = {
    "matrices.smith_normal_form": _after_snf,
    "matrices.mul_vec": _after_mul_vec,
    "matrices.matmul": _after_matmul,
    "sha.build_place_module": _after_place_module,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._caches = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span and count, to trace a new round from scratch."""
        self.starts = array("q")
        self.ends = array("q")
        self.name_ids = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.stack: list[list[int]] = []  # [span index, ns covered by children]
        self.paused = 0
        self.job = -1
        self.calls = Counter()
        self.self_ns = Counter()
        self.counters = Counter(dict.fromkeys(COUNTERS, 0))  # sums and maxima
        self.built: dict[int, object] = {}
        self.cache_counts = Counter()
        for fn in self._caches.values():
            fn.cache_clear()

    def absorb_caches(self) -> None:
        """Add the lru hits and misses so far; call before the caches are cleared."""
        for name, fn in self._caches.items():
            info = fn.cache_info()
            self.cache_counts[f"{name}.hits"] += info.hits
            self.cache_counts[f"{name}.misses"] += info.misses

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        after = AFTER.get(name)
        tr = self

        def wrapper(*args, **kwargs):
            t0 = ns()
            idx = len(tr.starts)
            tr.starts.append(t0 - tr.paused)
            tr.ends.append(0)
            tr.name_ids.append(nid)
            tr.parents.append(tr.stack[-1][0] if tr.stack else -1)
            tr.jobs.append(tr.job)
            frame = [idx, 0]
            tr.stack.append(frame)
            ok = False
            tr.paused += ns() - t0
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t2 = ns()
                end = t2 - tr.paused
                tr.stack.pop()
                dur = end - tr.starts[idx]
                tr.ends[idx] = end
                tr.self_ns[nid] += dur - frame[1]
                tr.calls[nid] += 1
                if tr.stack:
                    tr.stack[-1][1] += dur
                if ok and after is not None:
                    after(tr, args, result)
                tr.paused += ns() - t2
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every entry of SPANS; tatekit.cli must already be imported."""
        loaded = [m for n, m in sys.modules.items() if n == "tatekit" or n.startswith("tatekit.")]
        for mod_name, attr, span in SPANS:
            mod = sys.modules[f"tatekit.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(span, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(span, original)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        for mod_name, attr in CACHES:
            fn = getattr(sys.modules[f"tatekit.{mod_name}"], attr).__wrapped__
            self._caches[f"{mod_name}.{attr}"] = fn

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_ms"] = self.self_ns[nid] / 1e6
        out.update(self.counters)
        for name in self._caches:
            out[f"{name}.hits"] = self.cache_counts[f"{name}.hits"]
            out[f"{name}.misses"] = self.cache_counts[f"{name}.misses"]
        return out

    def dump(self, path) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.starts),
            "arrays": [
                ["start_ns", "q"], ["end_ns", "q"], ["name", "i"], ["parent", "i"], ["job", "i"],
            ],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.starts, self.ends, self.name_ids, self.parents, self.jobs):
                arr.tofile(fh)
