"""Span recorder that times calls into discosc from outside the package.

Each traced name is a public function or method of one discosc module.  The
recorder replaces the attribute wherever the name is looked up at call time
(a function imported into another module is wrapped there too), keeps one
span per call in memory -- (id, name, parent id, start ns, end ns) -- plus
work counts computed from argument shapes, and restores every original
attribute on uninstall.  Nothing under src/ is edited.

The process is single threaded, so the open-span stack is a plain list.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np


def _pairs_via_product(self, z, *args, **kwargs):
    return int(np.size(z)) * int(self.product.z.size)


def _pairs_own_nodes(self, pts, *args, **kwargs):
    return int(np.size(pts)) * int(self.z.size)


def _circle_points(m, *args, **kwargs):
    return int(m)


# (metric name, [(module, attribute path)], work label, work function).
# Every entry names a place where the callee is looked up at call time:
# build_coefficient is reached through cli and through oscillation,
# circle_nodes through products, oscillation and numutil, and so on.
# products.log_eval times _raw_log_eval, the log P kernel that log_eval
# and every points x nodes pass (h, h', the zero-count contour) call.
TRACED = [
    ("cli.main", [("cli", "main")], None, None),
    ("sequences.generate", [("sequences", "generate_radial_geometric"),
                            ("sequences", "generate_rho_lattice")],
     None, None),
    ("sequences.ZeroSequence.load", [("sequences", "ZeroSequence.load")],
     None, None),
    ("scales.genus_from_scale", [("scales", "genus_from_scale"),
                                 ("oscillation", "genus_from_scale")],
     None, None),
    ("scales.GrowthScale.psi_tilde", [("scales", "GrowthScale.psi_tilde")],
     None, None),
    ("products.CanonicalProduct.init",
     [("products", "CanonicalProduct.__init__")], None, None),
    ("products.balance_constant",
     [("products", "CanonicalProduct.balance_constant")], None, None),
    ("products.log_derivative_at_zero",
     [("products", "CanonicalProduct.log_derivative_at_zero")], None, None),
    ("products.nearest_node", [("products", "CanonicalProduct.nearest_node")],
     "pairs", _pairs_own_nodes),
    ("products.log_derivative_sums",
     [("products", "CanonicalProduct.log_derivative_sums")],
     "pairs", _pairs_own_nodes),
    ("products.log_eval", [("products", "CanonicalProduct._raw_log_eval")],
     "pairs", _pairs_own_nodes),
    ("interpolation.choose_exponents",
     [("interpolation", "choose_exponents")], None, None),
    ("interpolation.evaluate", [("interpolation",
                                 "InterpolationSeries.evaluate")],
     "pairs", _pairs_via_product),
    ("interpolation.evaluate_derivative",
     [("interpolation", "InterpolationSeries.evaluate_derivative")],
     "pairs", _pairs_via_product),
    ("oscillation.node_targets", [("oscillation", "node_targets")],
     None, None),
    ("oscillation.build_coefficient", [("oscillation", "build_coefficient"),
                                       ("cli", "build_coefficient")],
     None, None),
    ("oscillation.sample_probes", [("oscillation", "sample_probes"),
                                   ("cli", "sample_probes")], None, None),
    ("oscillation.eval_coefficient",
     [("oscillation", "OscillationBundle.eval_coefficient")],
     "pairs", _pairs_via_product),
    ("oscillation.ode_residual",
     [("oscillation", "OscillationBundle.ode_residual")], None, None),
    ("oscillation.count_zeros",
     [("oscillation", "OscillationBundle.count_zeros")], None, None),
    ("oscillation.carleson_table",
     [("oscillation", "OscillationBundle.carleson_table")], None, None),
    ("oscillation.coefficient_growth_table",
     [("oscillation", "OscillationBundle.coefficient_growth_table")],
     None, None),
    ("geometry.carleson_box_table", [("geometry", "carleson_box_table"),
                                     ("oscillation", "carleson_box_table")],
     None, None),
    ("numutil.circle_nodes", [("numutil", "circle_nodes"),
                              ("products", "circle_nodes"),
                              ("oscillation", "circle_nodes")],
     "points", _circle_points),
    ("numutil.adaptive_segment_integral",
     [("numutil", "adaptive_segment_integral"),
      ("oscillation", "adaptive_segment_integral")], None, None),
    ("numutil.golden_section_max", [("numutil", "golden_section_max"),
                                    ("interpolation", "golden_section_max"),
                                    ("oscillation", "golden_section_max")],
     None, None),
]


class Tracer:
    """In-memory spans and counts for the calls listed in TRACED."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._nested: set[int] = set()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, label, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            if self._depth[name]:
                self._nested.add(sid)
            if work is not None:
                self.work[f"{name}.{label}"] += work(*args, **kwargs)
            self._stack.append(sid)
            self._depth[name] += 1
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._depth[name] -= 1
                self._stack.pop()
                self.spans.append((sid, name, parent, t0, t1))
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, places, label, work in TRACED:
            for module, path in places:
                owner = self.modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, label,
                                                 work))
                else:
                    new = self._wrap(raw, name, label, work)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def stats(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds (outermost spans of the name
        only, so a name reached again inside itself is not counted twice),
        self seconds (span minus its direct child spans), and work."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, _, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for name, _, label, _ in TRACED:
            out[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
            if label:
                out[name][label] = self.work.get(f"{name}.{label}", 0)
        for sid, name, _, t0, t1 in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (t1 - t0 - child_ns[sid]) * 1e-9
            if sid not in self._nested:
                row["s"] += (t1 - t0) * 1e-9
        return out

    def span_records(self) -> list[dict]:
        return [{"id": sid, "name": name, "parent": parent,
                 "start_ns": t0, "end_ns": t1}
                for sid, name, parent, t0, t1 in sorted(self.spans)]
