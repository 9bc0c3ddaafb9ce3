"""Span tracing of meshsig's public functions for the traced benchmark run.

`Tracer.install` replaces every module-level binding of each target
function in every loaded meshsig module (``congruence`` and ``host`` import
names directly, and the package re-exports them), and wraps
``Mesh.__init__``. Span targets record (id, layer, start, end, parent id,
operation id) in memory; count targets only count calls, because they run
once per mesh index and a span each would swamp what it measures. A layer's
self time is its spans' durations minus the time their child spans cover,
accumulated when each span closes. A target that a later version of
meshsig no longer has is skipped, and its metrics read zero.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer, kind)
TARGETS = [
    ("meshsig.meshio", "read_mesh", "meshio.read", "span"),
    ("meshsig.meshio", "read_mesh_csv", "meshio.read", "span"),
    ("meshsig.meshio", "read_mesh_json", "meshio.read", "span"),
    ("meshsig.meshio", "read_signature_csv", "meshio.read", "span"),
    ("meshsig.meshio", "write_mesh_csv", "meshio.write", "span"),
    ("meshsig.meshio", "write_mesh_json", "meshio.write", "span"),
    ("meshsig.meshio", "write_signature_csv", "meshio.write", "span"),
    ("meshsig.meshio", "write_signature_svg", "meshio.write", "span"),
    ("meshsig.cli", "main", "cli", "span"),
    ("meshsig.geometry", "Mesh.__init__", "geometry.mesh", "mesh"),
    ("meshsig.geometry", "is_ordinary", "geometry.predicates", "span"),
    ("meshsig.geometry", "is_convex", "geometry.predicates", "span"),
    ("meshsig.geometry", "is_equally_spaced", "geometry.predicates", "span"),
    ("meshsig.geometry", "is_fine", "geometry.predicates", "span"),
    ("meshsig.geometry", "signature_sign", "geometry.pointwise", "count"),
    ("meshsig.geometry", "signature_direction", "geometry.pointwise", "count"),
    ("meshsig.geometry", "angle", "geometry.pointwise", "count"),
    ("meshsig.geometry", "signed_angle", "geometry.pointwise", "count"),
    ("meshsig.geometry", "signed_angle_type", "geometry.pointwise", "count"),
    ("meshsig.euclidean", "se_signature", "euclidean.se_signature", "span"),
    ("meshsig.euclidean", "curvature_of_triple", "euclidean.curvature", "count"),
    ("meshsig.affine", "fit_conic", "affine.fit", "span"),
    ("meshsig.affine", "conic_at", "affine.lookup", "count"),
    ("meshsig.affine", "sa_signature", "affine.sa_signature", "span"),
    ("meshsig.affine", "is_affine_fine", "affine.fineness", "span"),
    ("meshsig.affine", "has_fine_area", "affine.fineness", "span"),
    ("meshsig.affine", "in_fine_position", "affine.fineness", "span"),
    ("meshsig.signatures", "signature_max_error", "signatures.compare", "span"),
    ("meshsig.signatures", "signatures_close", "signatures.compare", "span"),
    ("meshsig.congruence", "align", "congruence.align", "align"),
    ("meshsig.congruence", "decide_dist_angle", "congruence.rules", "span"),
    ("meshsig.congruence", "decide_eq1", "congruence.rules", "span"),
    ("meshsig.congruence", "decide_eq2_angle_type", "congruence.rules", "span"),
    ("meshsig.congruence", "decide_eq2_signed", "congruence.rules", "span"),
    ("meshsig.congruence", "decide_eq3", "congruence.rules", "span"),
    ("meshsig.congruence", "decide_eq4", "congruence.rules", "span"),
    ("meshsig.congruence", "decide_affine", "congruence.rules", "span"),
    ("meshsig.host", "decide_host", "congruence.rules", "span"),
]

# Per-layer metrics and their units; times and counts are per traced operation.
PER_LAYER = {
    "meshio.read_s": "s/op",
    "meshio.write_s": "s/op",
    "cli.self_s": "s/op",
    "geometry.mesh_s": "s/op",
    "geometry.mesh_points": "count/op",
    "geometry.predicates_s": "s/op",
    "geometry.pointwise_calls": "count/op",
    "euclidean.se_signature_s": "s/op",
    "euclidean.curvature_calls": "count/op",
    "affine.fit_s": "s/op",
    "affine.fit_calls": "count/op",
    "affine.fits_per_lookup": "ratio",
    "affine.sa_signature_s": "s/op",
    "affine.fineness_s": "s/op",
    "signatures.compare_s": "s/op",
    "congruence.align_s": "s/op",
    "congruence.align_cyclic_s": "s/op",
    "congruence.align_aligned_s": "s/op",
    "congruence.rules_s": "s/op",
    "trace.unattributed_s": "s/op",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.mesh_points = 0
        self.ops = 0
        self.active = False
        self._stack: list[list] = []  # [child time, span id] per open span
        self._next_id = 0
        self._op_id = -1
        self._saved: list[tuple] = []
        self._wrappers: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        frame = [0.0, sid]
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append(frame)
        return frame, parent

    def _close(self, layer: str, frame, parent: int, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        self.self_time[layer] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        self.spans.append((frame[1], layer, start, end, parent, self._op_id))

    def run_op(self, fn, *args):
        """Run one timed operation as the root span "op"."""
        self._op_id += 1
        self.ops += 1
        self.active = True
        frame, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._close("op", frame, parent, start, end)
            self.active = False

    def _wrap(self, fn, layer: str, kind: str):
        calls = self.calls

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.active:
                    calls[layer] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = layer
            if kind == "align":
                mode = args[3] if len(args) > 3 else kwargs.get("mode")
                cyclic = getattr(mode, "value", "aligned") != "aligned"
                name = f"{layer}_cyclic" if cyclic else f"{layer}_aligned"
            elif kind == "mesh":
                try:
                    self.mesh_points += len(args[1])
                except (IndexError, TypeError):
                    pass
            calls[name] += 1
            frame, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, frame, parent, start, perf_counter())
        return spanned

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "meshsig" or name.startswith("meshsig."))]
        for modname, attr, layer, kind in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            if attr == "Mesh.__init__":
                cls = getattr(module, "Mesh", None)
                if cls is not None:
                    original = cls.__init__
                    cls.__init__ = self._wrapper(original, layer, kind)
                    self._saved.append((cls, "__init__", original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrapper(original, layer, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._saved.append((mod, key, original))

    def _wrapper(self, original, layer: str, kind: str):
        key = id(original)
        if key not in self._wrappers:
            self._wrappers[key] = self._wrap(original, layer, kind)
        return self._wrappers[key]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        ops = max(self.ops, 1)
        t, c = self.self_time, self.calls
        lookups = c["affine.lookup"]
        values = {
            "meshio.read_s": t["meshio.read"] / ops,
            "meshio.write_s": t["meshio.write"] / ops,
            "cli.self_s": t["cli"] / ops,
            "geometry.mesh_s": t["geometry.mesh"] / ops,
            "geometry.mesh_points": self.mesh_points / ops,
            "geometry.predicates_s": t["geometry.predicates"] / ops,
            "geometry.pointwise_calls": c["geometry.pointwise"] / ops,
            "euclidean.se_signature_s": t["euclidean.se_signature"] / ops,
            "euclidean.curvature_calls": c["euclidean.curvature"] / ops,
            "affine.fit_s": t["affine.fit"] / ops,
            "affine.fit_calls": c["affine.fit"] / ops,
            "affine.fits_per_lookup": c["affine.fit"] / lookups if lookups else 0.0,
            "affine.sa_signature_s": t["affine.sa_signature"] / ops,
            "affine.fineness_s": t["affine.fineness"] / ops,
            "signatures.compare_s": t["signatures.compare"] / ops,
            "congruence.align_s": (t["congruence.align_cyclic"] + t["congruence.align_aligned"]) / ops,
            "congruence.align_cyclic_s": t["congruence.align_cyclic"] / ops,
            "congruence.align_aligned_s": t["congruence.align_aligned"] / ops,
            "congruence.rules_s": t["congruence.rules"] / ops,
            "trace.unattributed_s": t["op"] / ops,
            "trace.overhead_pct": overhead_pct,
        }
        return values

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            fh.write('{"fields": ["id", "layer", "start", "end", "parent", "op"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
