"""Span and count recording around homlie's public layer boundaries.

``Recorder.install`` wraps the public functions and methods at the boundary
of each homlie module (the layers).  A wrapped module-level function is also replaced in
every homlie module that imported it by name (``analyze.kernel``,
``cli.check_quadratic``, ...), so calls made through those bindings are seen
too.  Each call records a span (name, start, end, parent) in memory; counts
are taken at the same boundaries.  Work a wrapper does for a count runs
after its span has ended, so it never enters that layer's own time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter

BUILD_CONSTRUCTIONS = (
    "direct_sum", "orthogonal_sum", "yau_twist", "untwist_regular",
    "derived_hom_algebra", "centroid_twists", "untwist_involutive",
    "centroid_untwist", "adjoint_rep", "coadjoint_rep", "semidirect_sum",
    "quadratic_yau_twist", "quadratic_derived", "tstar_extension", "omega_map",
    "omega_extension", "tensor_current", "double_extension_1d",
    "involutive_double_extension", "involutive_double_extension_literal",
)


class Recorder:
    """Spans kept as parallel lists; ``parents[i]`` is -1 for a root span."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.counts = Counter()
        self._undo = []

    # recording -------------------------------------------------------------
    def call(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts[idx] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self.stack.pop()

    def top(self):
        return self.names[self.stack[-1]] if self.stack else None

    def spans(self):
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
        }

    def dump(self, path, extra=None):
        payload = {"spans": self.spans(), "counts": dict(self.counts), "extra": extra or {}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

    # wrapping --------------------------------------------------------------
    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, orig, new):
        """Replace every homlie module's own binding of a module function."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "homlie" or mod_name.startswith("homlie."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._replace(mod, attr, new)

    def span(self, owner, attr, name, after=None):
        orig = owner.__dict__[attr]
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            result = rec.call(name, orig, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        if inspect.isclass(owner):
            self._replace(owner, attr, wrapper)
        else:
            self._rebind(orig, wrapper)

    def count(self, owner, attr, name, after=None):
        orig = owner.__dict__[attr]
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec.counts[name] += 1
            if after is not None:
                after(args)
            return orig(*args, **kwargs)

        self._replace(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def install(self, homlie):
        """Wrap every layer of an imported homlie package."""
        el, ha, an, bd = homlie.exactlin, homlie.homalg, homlie.analyze, homlie.build
        ser, cat = homlie.serialize, homlie.catalog
        counts = self.counts

        def rref_done(args, result):
            m = args[0]
            counts["exactlin.rref.cells"] += m.rows * m.cols
            if result[0].data == m.data:
                counts["exactlin.rref.noop_calls"] += 1

        def subspace_made(args):
            if self.top() == "analyze.ideal_closure":
                counts["analyze.ideal_closure.rounds"] += 1

        def loaded(args, result):
            counts["serialize.load.bytes"] += os.path.getsize(args[0])

        def saved(args, result):
            counts["serialize.save.bytes"] += os.path.getsize(args[0])

        for fname, obj in sorted(vars(cat).items()):
            if inspect.isfunction(obj) and obj.__module__ == cat.__name__ and not fname.startswith("_"):
                self.span(cat, fname, "catalog")
        self.span(el.Matrix, "rref", "exactlin.rref", after=rref_done)
        self.span(el.Matrix, "__matmul__", "exactlin.matmul")
        self.span(el.Matrix, "apply", "exactlin.apply")
        self.span(el.Matrix, "charpoly", "exactlin.charpoly")
        self.count(el.Subspace, "__init__", "exactlin.subspace.calls", after=subspace_made)
        self.span(ha.HomAlgebra, "__init__", "homalg.algebra_init")
        self.count(ha.HomAlgebra, "bracket_vec", "homalg.bracket_vec.calls")
        self.span(ha, "check_hom_lie", "homalg.check_hom_lie")
        self.span(ha, "check_quadratic", "homalg.check_quadratic")
        self.span(ha, "multiplicativity_witness", "homalg.multiplicativity")
        self.span(an, "centroid", "analyze.centroid")
        self.span(an, "simplicity_verdict", "analyze.simplicity")
        self.span(an, "ideal_closure", "analyze.ideal_closure")
        self.span(an, "decompose_irreducible", "analyze.decompose")
        self.span(an, "recognize_double_extension", "analyze.recognize")
        for fname in BUILD_CONSTRUCTIONS:
            self.span(bd, fname, "build.construct")
        self.span(bd, "change_basis", "build.change_basis")
        self.span(ser, "load_path", "serialize.load", after=loaded)
        self.span(ser, "save_path", "serialize.save", after=saved)


def self_times(spans):
    """Per-name (calls, total self time) from a span dump."""
    names, starts, ends, parents = (spans[k] for k in ("names", "starts", "ends", "parents"))
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    calls, selfs = Counter(), Counter()
    for i, name in enumerate(names):
        calls[name] += 1
        selfs[name] += ends[i] - starts[i] - child[i]
    return calls, selfs
