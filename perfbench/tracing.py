"""Spans around the public functions of each kauffpoly layer, recorded
from the benchmark's side without touching the package's source.

A span has a name, a start, an end and a parent (the span open when it
began).  Spans are kept in memory in flat arrays and written out when
the run ends.  A span's self time is its duration minus the time its
child spans cover; calls are run on one thread, so children never
overlap and that is the sum of their durations.

Three wiring details matter:

* modules import functions by name (``from .warping import
  first_encounter``), so each wrapper is rebound in every kauffpoly
  module that holds the original;
* ``Diagram.components`` is a ``functools.cached_property``: its
  ``.func`` is wrapped and the property reinstalled, so a span is one
  computation, not one attribute read;
* operators dispatch on the type, so ``LaurentPoly`` and
  ``BivariatePoly`` dunders are patched on the class, and each alias
  (``__radd__ = __add__``) is patched too.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from functools import cached_property

#: Layers of kauffpoly that do work; catalog (data) and cli (argparse
#: plus json.dumps) get no spans of their own.
LAYERS = ("laurent", "diagram", "warping", "coeffs", "series", "oracle", "moves", "verification")

#: (module, function) -> span name.
FUNCTIONS = {
    ("diagram", "parse_pd"): "diagram.parse_pd",
    ("diagram", "connected_sum"): "diagram.connected_sum",
    ("diagram", "disjoint_union"): "diagram.disjoint_union",
    ("laurent", "monotone_coeff"): "laurent.monotone_coeff",
    ("warping", "first_encounter"): "warping.first_encounter",
    ("warping", "canonical_base"): "warping.canonical_base",
    ("warping", "validate_base"): "warping.validate_base",
    ("warping", "enumerate_bases"): "warping.enumerate_bases",
    ("warping", "base_orientation"): "warping.base_orientation",
    ("warping", "warping_order"): "warping.warping_order",
    ("warping", "warping_degree"): "warping.warping_degree",
    ("warping", "is_monotone"): "warping.is_monotone",
    ("warping", "induced_writhe"): "warping.induced_writhe",
    ("coeffs", "coeff_table"): "coeffs.coeff_table",
    ("coeffs", "coeff_table_with_base"): "coeffs.coeff_table_with_base",
    ("coeffs", "skein_check"): "coeffs.skein_check",
    ("series", "series_from_table"): "series.series_from_table",
    ("series", "kauffman_L"): "series.kauffman_L",
    ("series", "kauffman_F"): "series.kauffman_F",
    ("series", "unlink_factor"): "series.unlink_factor",
    ("series", "check_L_skein"): "series.check_L_skein",
    ("series", "check_product_laws"): "series.check_product_laws",
    ("oracle", "oracle_L"): "oracle.oracle_L",
    ("oracle", "oracle_L_with_base"): "oracle.oracle_L_with_base",
    ("oracle", "uniqueness_check"): "oracle.uniqueness_check",
    ("oracle", "agree_at_y_one"): "oracle.agree_at_y_one",
    # The walk's site search stays inside its span: it is the walk's work.
    ("moves", "random_move_walk"): "moves.walk",
    ("moves", "random_diagram"): "moves.walk",
    ("moves", "r1_add"): "moves.r1_add",
    ("verification", "verify_catalog"): "verification.verify_catalog",
    ("verification", "verify_diagram"): "verification.verify_diagram",
    ("verification", "check_tag"): "verification.check_tag",
}

#: (module, class) -> {method: span name}.
METHODS = {
    ("diagram", "Diagram"): {
        "__post_init__": "diagram.validate",
        "splice": "diagram.splice",
        "crossing_change": "diagram.crossing_change",
        "mirror": "diagram.mirror",
        "erase_crossings": "diagram.erase_crossings",
        "writhe": "diagram.writhe",
        "faces": "diagram.faces",
        "connected_pieces": "diagram.connected_pieces",
        "is_planar": "diagram.is_planar",
        "to_pd": "diagram.to_pd",
    },
    ("laurent", "LaurentPoly"): {
        "__add__": "laurent.add",
        "__radd__": "laurent.add",
        "__sub__": "laurent.sub",
        "__rsub__": "laurent.sub",
        "__neg__": "laurent.neg",
        "__mul__": "laurent.mul",
        "__rmul__": "laurent.mul",
        "__pow__": "laurent.pow",
        "shift": "laurent.shift",
        "subst_y_inverse": "laurent.subst",
    },
    ("laurent", "BivariatePoly"): {
        "__add__": "laurent.add",
        "__radd__": "laurent.add",
        "__sub__": "laurent.sub",
        "__rsub__": "laurent.sub",
        "__neg__": "laurent.neg",
        "__mul__": "laurent.bivariate_mul",
        "__rmul__": "laurent.bivariate_mul",
        "__pow__": "laurent.pow",
        "shift_z": "laurent.shift",
        "shift_y": "laurent.shift",
        "subst_y_inverse": "laurent.subst",
        "subst_y_one": "laurent.subst",
        "z_coefficient": "laurent.subst",
    },
}

#: Cached properties wrapped by their ``.func``.
PROPERTIES = {("diagram", "Diagram", "components"): "diagram.components"}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        nid = self._intern(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _wrap_generator(self, name: str, fn):
        """One span per resumption, so lazy work is charged where it runs."""
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return traced

    # ------------------------------------------------------------------
    # installing the spans

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every layer of the already imported kauffpoly package."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "kauffpoly" or name.startswith("kauffpoly.")
        }
        replace: dict[int, object] = {}
        for (mod, fn_name), span in FUNCTIONS.items():
            original = getattr(modules[f"kauffpoly.{mod}"], fn_name)
            replace[id(original)] = self.wrap(span, original)
        # Rebind by identity in every module that imported the original.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and callable(value):
                    self._set(mod, attr, replace[id(value)])
        for (mod, cls_name), methods in METHODS.items():
            cls = getattr(modules[f"kauffpoly.{mod}"], cls_name)
            for attr, span in methods.items():
                self._set(cls, attr, self.wrap(span, cls.__dict__[attr]))
        for (mod, cls_name, attr), span in PROPERTIES.items():
            cls = getattr(modules[f"kauffpoly.{mod}"], cls_name)
            prop = cls.__dict__[attr]
            wrapped = cached_property(self.wrap(span, prop.func))
            wrapped.__set_name__(cls, attr)
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # reading the spans

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, tuple[int, float]]:
        """span name -> (calls, self seconds) over spans ``first:last``."""
        last = len(self) if last is None else last
        child = [0.0] * (last - first)
        start, end, parent = self.start, self.end, self.parent
        for i in range(first, last):
            p = parent[i]
            if p >= first:
                child[p - first] += end[i] - start[i]
        out: dict[str, list] = {}
        for i in range(first, last):
            acc = out.setdefault(self.names[self.name_id[i]], [0, 0.0])
            acc[0] += 1
            acc[1] += end[i] - start[i] - child[i - first]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def write(self, path) -> None:
        """One JSON header line, then the four arrays as raw bytes, gzipped."""
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": [["name_id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter seconds",
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def read_spans(path) -> tuple[dict, dict[str, array]]:
    """Inverse of :meth:`Tracer.write`."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["spans"]))
            arrays[name] = arr
    return header, arrays
