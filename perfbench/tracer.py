"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper
that records one span per call: the name, start, end and parent span.  The
replacement is made in every ``novikov`` module that holds the function
under any name, so calls through ``from .x import f`` are traced too.
Spans are kept in compact arrays in memory and reduced when the run ends:
a span's self time is its duration minus the durations of its children.
"""

import functools
import inspect
import sys
from array import array
from time import perf_counter

# (module, attribute path) for every traced function; a dotted path names a
# method of a class in that module.
LAYERS = (
    ("core", "AlgebraTable.multiply"),
    ("core", "verify_identity"),
    ("core", "AlgebraTable.r_nilpotency_index"),
    ("core", "AlgebraTable.__hash__"),
    ("exactlin", "Subspace.span"),
    ("exactlin", "Subspace.contains"),
    ("exactlin", "Subspace.intersect"),
    ("exactlin", "kernel"),
    ("exactlin", "solve"),
    ("ideals", "subspace_product"),
    ("ideals", "is_ideal"),
    ("ideals", "ideal_closure"),
    ("ideals", "chain"),
    ("ideals", "quotient"),
    ("ideals", "commutator_ideal"),
    ("radicals", "bound_certificates"),
    ("radicals", "check_certificate"),
    ("radicals", "quasi_inverse_lift"),
    ("radicals", "quasiregular_solve"),
    ("radicals", "baer_radical"),
    ("radicals", "lqr_radical"),
    ("radicals", "nilradical_commutative"),
    ("constructions", "gd_construct"),
    ("constructions", "random_commutative_pair"),
    ("constructions", "example1_algebra"),
    ("oracle", "enumerate_subspaces"),
    ("oracle", "bruteforce_baer_tower"),
    ("oracle", "bruteforce_nilpotents"),
    ("oracle", "quotient_intersection"),
    ("dsl", "parse_algebra_source"),
    ("dsl", "serialize_algebra_doc"),
    ("cli", "run_report"),
)

# lru caches whose hit ratio is reported, read from ``cache_info()``
CACHES = (
    ("core", "verify_identity"),
    ("ideals", "chain"),
    ("ideals", "commutator_ideal"),
    ("ideals", "quotient"),
    ("ideals", "classify"),
)


# metric names that differ from the attribute path
NAMES = {
    "AlgebraTable.multiply": "multiply",
    "AlgebraTable.r_nilpotency_index": "r_nilpotency_index",
    "AlgebraTable.__hash__": "AlgebraTable.hash",
}


def metric_name(module, path):
    return f"{module}.{NAMES.get(path, path)}"


class Tracer:
    def __init__(self):
        self.names = []
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.items = 0
        self.generator_calls = {}
        self.caches = {}
        self.window = None

    # -- recording ---------------------------------------------------------

    def _open(self, nid):
        idx = len(self.start)
        self.kind.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, nid, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_generator(self, nid, fn):
        """One span per resumption, so time spent by the consumer between
        items is not charged to the generator."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            tracer.generator_calls[nid] += 1
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.items += 1
                yield item

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every function in ``LAYERS``; the package must be imported."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "novikov" or name.startswith("novikov."))]
        for module, attr in CACHES:
            self.caches[f"{module}.{attr}"] = getattr(sys.modules[f"novikov.{module}"], attr)
        for module, path in LAYERS:
            nid = len(self.names)
            self.names.append(metric_name(module, path))
            mod = sys.modules[f"novikov.{module}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(nid, raw.__func__)))
                else:
                    setattr(owner, attr, self._wrap(nid, raw))
                continue
            orig = getattr(mod, attr)
            if inspect.isgeneratorfunction(orig):
                self.generator_calls[nid] = 0
            wrapped = self._wrap(nid, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        self.window = perf_counter()

    # -- reduction ---------------------------------------------------------

    def summary(self):
        """Per-function calls, self and inclusive seconds, cache hits and
        misses, items yielded by generators and the traced window."""
        window = perf_counter() - self.window
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        incl_s = [0.0] * n
        outer_end = [0.0] * n
        kind, parent, start, end = self.kind, self.parent, self.start, self.end
        # spans are stored in start order and nest properly, so a span that
        # starts before the last outermost span of its function ended is a
        # nested call and adds nothing to the inclusive time
        for idx in range(len(start)):
            k = kind[idx]
            s, e = start[idx], end[idx]
            dur = e - s
            calls[k] += 1
            self_s[k] += dur
            if s >= outer_end[k]:
                incl_s[k] += dur
                outer_end[k] = e
            p = parent[idx]
            if p >= 0:
                self_s[kind[p]] -= dur
        for nid, count in self.generator_calls.items():
            calls[nid] = count  # spans of a generator count resumptions
        layers = {name: {"calls": calls[i], "self_s": self_s[i], "incl_s": incl_s[i]}
                  for i, name in enumerate(self.names)}
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {"layers": layers, "caches": caches, "items": self.items,
                "window_s": window}
