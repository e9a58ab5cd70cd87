"""Spans around calls into dilateq, recorded from outside the library.

A traced run rebinds the public functions of each module to a wrapper that
appends one span per call: name, start, end, parent span, op id, and two
integers describing the work (``size``, ``out``).  Nothing under ``src/``
changes: the wrappers replace module attributes and are removed again by
``Recorder.restore``.  Module-internal calls look their callees up as
globals at call time, so they pass through the wrappers too.

Spans are kept in flat ``array`` columns (36 bytes per span) and turned into
per-layer metrics by ``layer_metrics`` at the end of the run.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from cliwork import SUBCOMMANDS
from dilateq import coefficients, expsums, extension, periodicity


def _npoints(x) -> int:
    return int(np.size(x))


def _is_scalar(x) -> int:
    return int(np.ndim(x) == 0)


def _strips(sol, boundary_hi: float) -> int:
    """Strips added by ``extend``, recovered from the covered interval."""
    shifts = sol.shifts.entries
    step_right = shifts[-1] - (shifts[-2] if len(shifts) > 1 else 0.0)
    lo, hi = sol.covered
    return int(round((hi - boundary_hi) / step_right)) + int(round(-lo / shifts[0]))


# (owner, attribute, span name, counter) for every wrapped callable.  The
# counter maps (args, kwargs, result) to the span's (size, out) integers.
def _targets():
    return [
        (coefficients, "normalize", "coefficients.normalize", lambda a, k, r: (len(r), 0)),
        (coefficients, "to_additive", "coefficients.to_additive", lambda a, k, r: (len(r), 0)),
        (
            coefficients,
            "regularity_index",
            "coefficients.regularity_index",
            lambda a, k, r: (r.m * len(a[0]), r.m),
        ),
        (extension, "tent_boundary", "extension.tent_boundary", lambda a, k, r: (0, 0)),
        (
            extension,
            "extend",
            "extension.extend",
            lambda a, k, r: (_strips(r, r.boundary.domain[1]), r.pieces.breakpoints.size),
        ),
        (
            extension.PiecewiseLinear,
            "__call__",
            "extension.PiecewiseLinear.__call__",
            lambda a, k, r: (_npoints(a[1]), _is_scalar(a[1])),
        ),
        (
            extension,
            "residual_additive",
            "extension.residual_additive",
            lambda a, k, r: (_npoints(a[2]), 0),
        ),
        (
            extension,
            "residual_multiplicative",
            "extension.residual_multiplicative",
            lambda a, k, r: (_npoints(a[2]), 0),
        ),
        (
            extension,
            "popoviciu_determinant",
            "extension.popoviciu_determinant",
            lambda a, k, r: (a[3], 0),
        ),
        (
            periodicity,
            "system_residual",
            "periodicity.system_residual",
            lambda a, k, r: (_npoints(a[0]), _is_scalar(a[0])),
        ),
        (periodicity, "scan_minima", "periodicity.scan_minima", lambda a, k, r: (len(r), 0)),
        (
            periodicity,
            "find_periodic_alphas",
            "periodicity.find_periodic_alphas",
            lambda a, k, r: (len(r), 0),
        ),
        (expsums, "power_sum", "expsums.power_sum", lambda a, k, r: (_npoints(a[1]), 0)),
        (
            expsums,
            "power_sum_deriv",
            "expsums.power_sum_deriv",
            lambda a, k, r: (_npoints(a[1]), 0),
        ),
        (
            expsums,
            "newton_refine",
            "expsums.newton_refine",
            lambda a, k, r: (0, int(r is None)),
        ),
        (
            expsums,
            "scan_modulus",
            "expsums.scan_modulus",
            lambda a, k, r: (r[2].size, 0),
        ),
        (expsums, "winding_count", "expsums.winding_count", lambda a, k, r: (r, 0)),
        (expsums, "find_zeros", "expsums.find_zeros", lambda a, k, r: (len(r), 0)),
    ]


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.out = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._sync()

    def _sync(self) -> None:
        """Drop a span left half-written by a deadline that fired inside a wrapper.

        A deadline ends its op, so the next op start is the first point where
        the columns can disagree in length, and only by that one span.
        """
        cols = (self.name, self.parent, self.op, self.end, self.size, self.out, self.start)
        n = min(len(c) for c in cols)
        for c in cols:
            del c[n:]
        self.stack.clear()

    def install(self) -> None:
        for owner, attr, name, count in _targets():
            self._wrap(owner, attr, name, count)

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, owner, attr: str, name: str, count) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        rec = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.op.append(rec.op_id)
            rec.end.append(0.0)
            rec.size.append(0)
            rec.out.append(0)
            rec.stack.append(idx)
            rec.start.append(clock())
            try:
                result = orig(*args, **kwargs)
            finally:
                rec.end[idx] = clock()
                if rec.stack and rec.stack[-1] == idx:
                    rec.stack.pop()
            rec.size[idx], rec.out[idx] = count(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def arrays(self) -> dict[str, np.ndarray]:
        self._sync()
        n = len(self.start)
        cols = {
            "name": np.frombuffer(self.name, dtype=np.int32, count=n),
            "start": np.frombuffer(self.start, dtype=np.float64, count=n),
            "end": np.frombuffer(self.end, dtype=np.float64, count=n),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n),
            "op": np.frombuffer(self.op, dtype=np.int32, count=n),
            "size": np.frombuffer(self.size, dtype=np.int64, count=n),
            "out": np.frombuffer(self.out, dtype=np.int64, count=n),
        }
        return {k: v.copy() for k, v in cols.items()}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class Spans:
    """Column view of recorded spans with the derived quantities.

    Spans of the ops in ``skip_ops`` are left out.  The caller passes the ops
    that ran into their deadline: how far they got depends on timing, so their
    work counts would not repeat.
    """

    def __init__(self, rec: Recorder, skip_ops=()) -> None:
        cols = rec.arrays()
        keep = ~np.isin(cols["op"], list(skip_ops))
        # parents are always in the same op, so they survive; renumber them
        renumber = np.cumsum(keep) - 1
        cols = {k: v[keep] for k, v in cols.items()}
        cols["parent"] = np.where(cols["parent"] >= 0, renumber[cols["parent"]], -1).astype(np.int32)
        self.names = rec.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.op = cols["op"]
        self.size = cols["size"]
        self.out = cols["out"]
        # a span whose end was never written (deadline inside its finally) counts as 0
        self.dur = np.where(cols["end"] > 0, cols["end"] - cols["start"], 0.0)
        n = self.dur.size
        # self time = duration minus the time covered by direct children
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        # per span: its module, whether an ancestor is in the same module, and
        # whether a Newton or winding span lies above it (parents come first)
        module = [nm.split(".")[0] for nm in self.names]
        self.mod_of = np.array(module + [""])[self.name]
        mod = self.mod_of.tolist()
        parent = self.parent.tolist()
        is_newton = self.mask("expsums.newton_refine").tolist()
        is_winding = self.mask("expsums.winding_count").tolist()
        nested, under_newton, under_winding = [False] * n, [False] * n, [False] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                nested[i] = nested[p] or mod[p] == mod[i]
                under_newton[i] = is_newton[p] or under_newton[p]
                under_winding[i] = is_winding[p] or under_winding[p]
        nested = np.array(nested, dtype=bool)
        self.under_newton = np.array(under_newton, dtype=bool)
        self.under_winding = np.array(under_winding, dtype=bool)
        self.outermost = ~nested

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == self.names.index(name)

    def self_seconds(self) -> dict[str, float]:
        return {
            nm: float(self.self_time[self.name == i].sum())
            for i, nm in enumerate(self.names)
            if np.any(self.name == i)
        }

    def op_counts(self) -> dict[int, dict[str, int]]:
        """Exact work counts per op id, for the repeatability check."""
        counts: dict[int, dict[str, int]] = {}
        for op in np.unique(self.op):
            sel = self.op == op
            counts[int(op)] = _work_counts(self, sel)
        return counts


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _work_counts(s: Spans, sel: np.ndarray) -> dict[str, int]:
    ext = s.mask("extension.extend") & sel
    reg = s.mask("coefficients.regularity_index") & sel
    return {
        "strips": int(s.size[ext].sum()),
        "breakpoints": int(s.out[ext].sum()),
        "residual_points": int(s.size[s.mask("periodicity.system_residual") & sel].sum()),
        "power_sum_calls": int((s.mask("expsums.power_sum") & sel).sum()),
        "newton_steps": int((s.mask("expsums.power_sum_deriv") & sel & s.under_newton).sum()),
        "winding_evals": int((s.mask("expsums.power_sum") & sel & s.under_winding).sum()),
        "ratio_terms": int(s.size[reg].sum()),
    }


def layer_metrics(s: Spans, failed_by_layer: dict[str, int], mismatches: int) -> dict[str, float]:
    """The span-based metrics of ``PER_LAYER``, from the recorded spans."""
    every = np.ones(s.dur.size, dtype=bool)
    work = _work_counts(s, every)
    m: dict[str, float] = {}

    def busy(name: str) -> float:
        return float(s.dur[s.mask(name)].sum())

    def calls(name: str) -> int:
        return int(s.mask(name).sum())

    coeff = (s.mod_of == "coefficients") & s.outermost
    m["coefficients.calls"] = int(coeff.sum())
    m["coefficients.busy_s"] = float(s.dur[coeff].sum())
    m["coefficients.ratio_terms"] = work["ratio_terms"]

    # rates use the extends that returned: an interrupted one reports no strips
    returned = s.mask("extension.extend") & (s.out > 0)
    ext_busy = float(s.dur[returned].sum())
    m["extension.extend_calls"] = calls("extension.extend")
    m["extension.extend_busy_s"] = busy("extension.extend")
    m["extension.strips"] = work["strips"]
    m["extension.breakpoints"] = work["breakpoints"]
    m["extension.breakpoints_per_strip"] = _ratio(work["breakpoints"], work["strips"])
    m["extension.us_per_strip"] = 1e6 * _ratio(ext_busy, work["strips"])
    m["extension.ns_per_breakpoint"] = 1e9 * _ratio(ext_busy, work["breakpoints"])

    ev = s.mask("extension.PiecewiseLinear.__call__")
    scalar = ev & (s.out == 1)
    vector = ev & (s.out == 0)
    m["extension.eval_calls"] = int(ev.sum())
    m["extension.eval_points"] = int(s.size[ev].sum())
    m["extension.eval_busy_s"] = float(s.dur[ev].sum())
    m["extension.ns_per_eval_point"] = 1e9 * _ratio(s.dur[vector].sum(), s.size[vector].sum())
    m["extension.scalar_eval_us"] = 1e6 * _ratio(s.dur[scalar].sum(), scalar.sum())
    m["extension.residual_busy_s"] = busy("extension.residual_additive") + busy(
        "extension.residual_multiplicative"
    )
    m["extension.popoviciu_busy_s"] = busy("extension.popoviciu_determinant")
    m["extension.failed"] = failed_by_layer.get("extension", 0)

    res = s.mask("periodicity.system_residual")
    res_vec = res & (s.out == 0)
    minima = int(s.size[s.mask("periodicity.scan_minima")].sum())
    certs = int(s.size[s.mask("periodicity.find_periodic_alphas")].sum())
    m["periodicity.find_calls"] = calls("periodicity.find_periodic_alphas")
    m["periodicity.find_busy_s"] = busy("periodicity.find_periodic_alphas")
    m["periodicity.grid_points"] = int(s.size[res_vec].sum())
    m["periodicity.residual_calls"] = int(res.sum())
    m["periodicity.residual_points"] = work["residual_points"]
    m["periodicity.ns_per_residual_point"] = 1e9 * _ratio(
        s.dur[res_vec].sum(), s.size[res_vec].sum()
    )
    m["periodicity.scalar_residual_calls"] = int((res & (s.out == 1)).sum())
    m["periodicity.minima"] = minima
    m["periodicity.certificates"] = certs
    m["periodicity.cert_yield"] = _ratio(certs, minima)
    m["periodicity.failed"] = failed_by_layer.get("periodicity", 0)

    ps = s.mask("expsums.power_sum")
    newton = s.mask("expsums.newton_refine")
    zeros = int(s.size[s.mask("expsums.find_zeros")].sum())
    m["expsums.find_busy_s"] = busy("expsums.find_zeros")
    m["expsums.scan_busy_s"] = busy("expsums.scan_modulus")
    m["expsums.newton_busy_s"] = busy("expsums.newton_refine")
    m["expsums.winding_busy_s"] = busy("expsums.winding_count")
    m["expsums.find_calls"] = calls("expsums.find_zeros")
    m["expsums.scan_points"] = int(s.size[s.mask("expsums.scan_modulus")].sum())
    m["expsums.newton_calls"] = int(newton.sum())
    m["expsums.newton_failed"] = int(s.out[newton].sum())
    m["expsums.newton_steps"] = work["newton_steps"]
    m["expsums.winding_evals"] = work["winding_evals"]
    m["expsums.power_sum_calls"] = work["power_sum_calls"]
    m["expsums.power_sum_points"] = int(s.size[ps].sum())
    m["expsums.deriv_calls"] = calls("expsums.power_sum_deriv")
    m["expsums.zeros_found"] = zeros
    m["expsums.ns_per_power_sum_point"] = 1e9 * _ratio(s.dur[ps].sum(), s.size[ps].sum())
    m["expsums.seed_yield"] = _ratio(zeros, newton.sum())
    m["expsums.winding_mismatch"] = mismatches
    return m

#: every per-layer metric: name -> (unit, better)
PER_LAYER = {
    "coefficients.calls": ("count", "lower"),
    "coefficients.busy_s": ("s", "lower"),
    "coefficients.ratio_terms": ("count", "lower"),
    "extension.extend_calls": ("count", "lower"),
    "extension.extend_busy_s": ("s", "lower"),
    "extension.strips": ("count", "lower"),
    "extension.breakpoints": ("count", "lower"),
    "extension.breakpoints_per_strip": ("1", "lower"),
    "extension.us_per_strip": ("us", "lower"),
    "extension.ns_per_breakpoint": ("ns", "lower"),
    "extension.eval_calls": ("count", "lower"),
    "extension.eval_points": ("count", "lower"),
    "extension.eval_busy_s": ("s", "lower"),
    "extension.ns_per_eval_point": ("ns", "lower"),
    "extension.scalar_eval_us": ("us", "lower"),
    "extension.residual_busy_s": ("s", "lower"),
    "extension.popoviciu_busy_s": ("s", "lower"),
    "extension.failed": ("count", "lower"),
    "periodicity.find_calls": ("count", "lower"),
    "periodicity.find_busy_s": ("s", "lower"),
    "periodicity.grid_points": ("count", "lower"),
    "periodicity.residual_calls": ("count", "lower"),
    "periodicity.residual_points": ("count", "lower"),
    "periodicity.ns_per_residual_point": ("ns", "lower"),
    "periodicity.scalar_residual_calls": ("count", "lower"),
    "periodicity.minima": ("count", "lower"),
    "periodicity.certificates": ("count", "higher"),
    "periodicity.cert_yield": ("1", "higher"),
    "periodicity.failed": ("count", "lower"),
    "expsums.find_busy_s": ("s", "lower"),
    "expsums.scan_busy_s": ("s", "lower"),
    "expsums.newton_busy_s": ("s", "lower"),
    "expsums.winding_busy_s": ("s", "lower"),
    "expsums.find_calls": ("count", "lower"),
    "expsums.scan_points": ("count", "lower"),
    "expsums.newton_calls": ("count", "lower"),
    "expsums.newton_failed": ("count", "lower"),
    "expsums.newton_steps": ("count", "lower"),
    "expsums.winding_evals": ("count", "lower"),
    "expsums.power_sum_calls": ("count", "lower"),
    "expsums.power_sum_points": ("count", "lower"),
    "expsums.deriv_calls": ("count", "lower"),
    "expsums.zeros_found": ("count", "higher"),
    "expsums.ns_per_power_sum_point": ("ns", "lower"),
    "expsums.seed_yield": ("1", "higher"),
    "expsums.winding_mismatch": ("count", "lower"),
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_numpy_ms": ("ms", "lower"),
    "cli.import_dilateq_ms": ("ms", "lower"),
    **{f"cli.{sub}_ms": ("ms", "lower") for sub in SUBCOMMANDS},
    "cli.compute_ms": ("ms", "lower"),
    "cli.stdout_bytes": ("bytes", "lower"),
    "cli.exit_unexpected": ("count", "lower"),
    "trace.ops_per_s": ("1/s", "higher"),
    "trace.untraced_ops_per_s": ("1/s", "higher"),
    "trace.overhead_ratio": ("1", "lower"),
}
