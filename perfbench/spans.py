"""Spans around calls into skewcert's public functions, installed from outside.

`install()` wraps each function in LAYERS and rebinds the wrapper everywhere
the original was bound: in the defining module, in every skewcert module that
took the name with `from ... import`, and on the class for methods.  Nothing
in the package itself changes.

A span is four integers (name id, parent span index, start ns, end ns) kept
in flat arrays, so a run of a few million calls stays in memory cheaply.
`summary()` turns them into per-name call counts, inclusive seconds (a span
nested in a span of the same name is not counted twice) and self seconds,
plus the input-size counters recorded by the pre/post hooks.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from math import gcd

ROOT = "harness.run"

# (module, attribute, span name); attribute "Cls.meth" wraps a method
LAYERS = [
    ("scalar", "poly_gcd", "scalar.poly_gcd"),
    ("scalar", "Poly.__mul__", "scalar.Poly.mul"),
    ("scalar", "RatFun.__add__", "scalar.RatFun.add"),
    ("scalar", "RatFun.__mul__", "scalar.RatFun.mul"),
    ("skewpoly", "sp_mul", "skewpoly.sp_mul"),
    ("skewpoly", "sp_divmod", "skewpoly.sp_divmod"),
    ("skewpoly", "sp_gcrd_llcm", "skewpoly.sp_gcrd_llcm"),
    ("skewfrac", "SkewFrac.__mul__", "skewfrac.SkewFrac.mul"),
    ("skewfrac", "SkewFrac.inv", "skewfrac.SkewFrac.inv"),
    ("skewfrac", "sf_to_pjet", "skewfrac.sf_to_pjet"),
    ("skewfrac", "PJet.__mul__", "skewfrac.PJet.mul"),
    ("skewfrac", "PJet.inv", "skewfrac.PJet.inv"),
    ("freecert", "evaluate_words", "freecert.evaluate_words"),
    ("freecert", "rank_over_Q", "freecert.rank_over_Q"),
    ("series", "jet_mul", "series.jet_mul"),
    ("series", "jet_inv", "series.jet_inv"),
    ("pbw", "u_mul", "pbw.u_mul"),
    ("pbw", "LieHom.__call__", "pbw.LieHom.call"),
    ("symcert", "substitute", "symcert.substitute"),
    ("symcert", "verify_facts", "symcert.verify_facts"),
    ("symcert", "prove_equal", "symcert.prove_equal"),
    ("groupring", "gr_mul", "groupring.gr_mul"),
    ("groupring", "coordinatize", "groupring.coordinatize"),
]
# each Coordinatizer.build is wrapped when the Coordinatizer is made
COORDINATIZE = "freecert.coordinatize"
SPAN_NAMES = [ROOT] + [name for _, _, name in LAYERS] + [COORDINATIZE]


def _row_bits(vec: dict) -> int:
    """Bit height of a vector of Fractions once integerized the way
    rank_over_Q does it: scaled by the lcm of its denominators."""
    den = 1
    for c in vec.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return max((abs(int(c * den)).bit_length() for c in vec.values()), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.nid = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.words = 0
        self.builds = 0
        self.rank_inputs: list[tuple[int, int, int]] = []  # (rows, cols, max bits)
        self.llcm_degrees: list[int] = []
        for name in SPAN_NAMES:
            self._id(name)

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn, pre=None, post=None):
        nid = self._id(name)
        nid_append, parent_append = self.nid.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        end, stack, now = self.end, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(*args, **kwargs)
            i = len(end)
            nid_append(nid)
            parent_append(stack[-1])
            end_append(0)
            stack.append(i)
            start_append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = now()
                stack.pop()
            if post is not None:
                post(result)
            return result

        return traced

    # -- input-size hooks (run outside the span they describe) --------------

    def _count_words(self, generators, ops, words, mode):
        self.words += len(words)

    def _rank_shape(self, vectors):
        cols = len({k for v in vectors for k in v})
        bits = max((_row_bits(v) for v in vectors), default=0)
        self.rank_inputs.append((len(vectors), cols, bits))

    def _llcm_degree(self, result):
        self.llcm_degrees.append(result[1].degree)

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every function in LAYERS; call after importing skewcert.cli."""
        from skewcert import freecert

        hooks = {
            "freecert.evaluate_words": (self._count_words, None),
            "freecert.rank_over_Q": (self._rank_shape, None),
            "skewpoly.sp_gcrd_llcm": (None, self._llcm_degree),
        }
        for module, attr, name in LAYERS:
            owner = sys.modules[f"skewcert.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            pre, post = hooks.get(name, (None, None))
            _rebind(original, self.wrap(name, original, pre, post))

        tracer = self
        init = freecert.Coordinatizer.__init__

        def counting_init(coord, *args, **kwargs):
            init(coord, *args, **kwargs)
            tracer.builds += 1
            coord.build = tracer.wrap(COORDINATIZE, coord.build)

        freecert.Coordinatizer.__init__ = counting_init

    def run_root(self, fn, *args):
        """Call fn(*args) under the root span."""
        return self.wrap(ROOT, fn)(*args)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus the counters."""
        n_names = len(self.names)
        calls = [0] * n_names
        incl = [0] * n_names
        own = [0] * n_names
        child = array("q", bytes(8 * len(self.end)))
        nid, parent, start, end = self.nid, self.parent, self.start, self.end
        for i in range(len(end) - 1, -1, -1):  # children come after parents
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            own[nid[i]] += dur - child[i]
        # inclusive time counts only spans with no ancestor of the same name;
        # walk in preorder with a stack of (index, names open above it)
        stack: list[tuple[int, int]] = []
        for i in range(len(end)):
            p = parent[i]
            while stack and stack[-1][0] != p:
                stack.pop()
            above = (stack[-1][1] | (1 << nid[p])) if stack else 0
            k = nid[i]
            calls[k] += 1
            if not (above >> k) & 1:
                incl[k] += end[i] - start[i]
            stack.append((i, above))
        layers = {
            name: {"calls": calls[k], "s": incl[k] / 1e9, "self_s": own[k] / 1e9}
            for k, name in enumerate(self.names)
        }
        return {
            "layers": layers,
            "words": self.words,
            "builds": self.builds,
            "rank_inputs": self.rank_inputs,
            "llcm_degrees": self.llcm_degrees,
        }

    def dump(self, path) -> None:
        """Write the raw spans: a JSON header line, then the four int64
        arrays (name id, parent index, start ns, end ns) back to back."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.end),
                      "arrays": ["name", "parent", "start_ns", "end_ns"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.nid, self.parent, self.start, self.end):
                arr.tofile(fh)


def _rebind(original, wrapper) -> None:
    """Replace `original` by `wrapper` in every skewcert module namespace and
    in every class defined there, wherever it is bound."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "skewcert" or mod_name.startswith("skewcert.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, type) and value.__module__ == mod_name:
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, ckey, wrapper)
