"""In-process workloads: extend-build, extend-query and spectral.

Each workload turns (seed, round index) into one round of ops.  A workload
class names its ``tail_pct`` (the percentile reported as latency_tail_ms,
chosen so that it falls inside one op shape of the round) and ``round_s``
(a round's duration at the baseline, which sets how many rounds a traced run
of ``--seconds`` makes, so that its work counts are exact).  Every op
calls the public API through its module attribute (``extension.extend``,
``expsums.find_zeros``, ...) so that a traced run's wrappers see it, and
every oracle recomputes what it needs with plain numpy on the returned data;
the only library functions oracles use are the closed forms
``equispaced_alphas`` and ``two_term_periodic_exists``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from dilateq import coefficients, errors, expsums, extension, periodicity
from loop import HANG_DEADLINE, Mismatch, Op

#: relative tolerance (to max|g| on the covered range) for equation residuals
REL_RESIDUAL_TOL = 1e-8

#: relative tolerance for evaluations compared against np.interp of the pieces
REL_EVAL_TOL = 1e-12


def _rng(seed: int, stream: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, r])


def _slices(rng: np.random.Generator, k: int, lo: float, hi: float) -> list[float]:
    """k values, the j-th drawn from the j-th of k equal slices of [lo, hi].

    Rounds are stratified: every round holds the same mix of op shapes, and
    the seed only moves each op within its slice, so the cost of a round, and
    with it the run's figures, barely depend on the seed.
    """
    return [float(lo + (hi - lo) * (j + u) / k) for j, u in enumerate(rng.uniform(size=k))]


def _shuffled(rng: np.random.Generator, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def _interp(sol, w):
    return np.interp(w, sol.pieces.breakpoints, sol.pieces.values)


def _additive_residual(sol, shifts, w) -> float:
    """max |g(w) + sum g(w + b_k)| relative to max|g|, with plain np.interp."""
    total = _interp(sol, w)
    for s in shifts:
        total = total + _interp(sol, w + s)
    return float(np.max(np.abs(total))) / max(1.0, float(np.max(np.abs(sol.pieces.values))))


# -- extend-build -----------------------------------------------------------------

#: one round: (N, kinks of the boundary data with 0 for the tent, strips) per
#: op.  Measured build costs rise by about 1.28x from one shape to the next
#: at the baseline (21 ms to 0.65 s), and the seed moves each op's strips by
#: at most 4 %, so ops do not swap ranks and each latency percentile falls
#: inside one shape instead of jumping between two.
BUILD_SLOTS = (
    (2, 0, 500), (3, 0, 530), (2, 1, 745), (4, 0, 695), (3, 1, 960),
    (5, 0, 970), (2, 2, 1745), (6, 0, 1375), (4, 1, 1925), (3, 2, 2695),
    (5, 1, 2595), (4, 2, 3430), (6, 2, 3290), (5, 4, 3885), (6, 5, 4000),
)
BUILD_READ_POINTS = 1000


def _random_boundary(shifts: tuple[float, ...], kinks: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Compatible piecewise-linear data on [0, bN] with ``kinks`` random kinks.

    The shift points are breakpoints, so g(b_k) are stored values and setting
    g(0) = -sum g(b_k) makes the compatibility residual exactly zero.  All
    breakpoints are at least b1/10 apart: a kink next to a shift point makes a
    slope steep enough to trip the seam defect that ``_lattice_seam_probe``
    keeps in view.
    """
    b_n = shifts[-1]
    while True:
        inner = rng.uniform(0.02 * b_n, 0.98 * b_n, kinks)
        xs = np.unique(np.concatenate(([0.0], shifts, inner)))
        if xs.size == len(shifts) + 1 + kinks and np.min(np.diff(xs)) >= 0.1 * shifts[0]:
            break
    ys = rng.uniform(-1.0, 1.0, xs.size)
    ys[0] = -ys[np.searchsorted(xs, shifts)].sum()
    return xs, ys


def _build_op(shifts: tuple[float, ...], target: tuple[float, float], boundary=None) -> Op:
    """Build from tent data (``boundary`` None) or from (xs, ys), then read 1000 points."""
    n, d = len(shifts), shifts[0]
    tent = boundary is None

    def call():
        if tent:
            g = extension.tent_boundary(shifts)
        else:
            g = extension.PiecewiseLinear(*boundary)
        sol = extension.extend(g, shifts, target)
        w = np.linspace(sol.covered[0], sol.covered[1], BUILD_READ_POINTS)
        return sol, w, sol(w)

    def check(value):
        sol, w, v = value
        lo, hi = sol.covered
        _require(lo <= target[0] + 1e-9 and hi >= target[1] - 1e-9, "target not covered")
        scale = max(1.0, float(np.max(np.abs(sol.pieces.values))))
        _require(
            float(np.max(np.abs(v - _interp(sol, w)))) <= REL_EVAL_TOL * scale,
            "read disagrees with the pieces",
        )
        period = (n + 1) * d
        inside = w[w + period <= hi]
        drift = np.max(np.abs(_interp(sol, inside + period) - _interp(sol, inside)))
        _require(float(drift) <= REL_RESIDUAL_TOL * scale, f"not {period:g}-periodic: {drift:.3g}")
        if tent:
            t = np.mod(w / d, n + 1.0)
            ref = np.interp(t, [0.0, n - 1.0, n, n + 1.0], [1.0, 1.0, -float(n), 1.0])
            err = float(np.max(np.abs(v - ref)))
            _require(err <= REL_RESIDUAL_TOL * n, f"tent differs from the closed form by {err:.3g}")
        else:
            grid = w[w <= hi - shifts[-1]]
            res = _additive_residual(sol, shifts, grid)
            _require(res <= REL_RESIDUAL_TOL, f"relative residual {res:.3g}")
            xs, ys = boundary
            err = float(np.max(np.abs(_interp(sol, xs) - ys)))
            _require(err <= REL_EVAL_TOL * scale, f"boundary data moved by {err:.3g}")

    kind = "tent" if tent else f"random{len(boundary[0]) - n - 1}"
    return Op(kind=f"build-{kind}-n{n}", layer="extension", call=call, check=check)


def _lattice_build(n: int, d: float, strips: float, kinks: int, left_share: float, rng) -> Op:
    shifts = tuple(d * k for k in range(1, n + 1))
    span = strips * d
    target = (-left_share * span, n * d + (1.0 - left_share) * span)
    return _build_op(shifts, target, _random_boundary(shifts, kinks, rng) if kinks else None)


def _lattice_seam_probe() -> Op:
    """Known defect: the strip seam check uses the absolute tolerance 1e-9.

    Found with seed 1001: random data on d*(1..6) with two breakpoints 5e-5
    apart (slope about 1.6e4).  Past w = -1024, where the float spacing
    doubles, accumulated rounding in the strip positions times that slope
    exceeds 1e-9 and ``extend`` raises InternalInconsistency.
    """
    d = 1.5139675249445483
    shifts = tuple(d * k for k in range(1, 7))
    xs = np.array([
        0.0, 0.6312537231659452, 0.9285657159816115, 1.5139675249445483, 3.0279350498890967,
        4.541853606108534, 4.541902574833645, 6.055870099778193, 7.569837624722742,
        8.179267449666211, 8.534120503046235, 9.08380514966729,
    ])
    ys = np.array([
        0.27702372491045946, 0.8807057653966217, -0.2743839100013914, 0.1502663749286448,
        0.012547354998434734, 0.2675528655348316, -0.49963095014133274, -0.17228089520791134,
        0.271089201155325, 0.5068436814832613, 0.6655033434745663, -0.03901481064361989,
    ])
    op = _build_op(shifts, (-1030.0, shifts[-1]), (xs, ys))
    op.kind, op.probe = "probe-seam-lattice", True
    return op


def _span_probe() -> Op:
    """Known defect: extension is not budgeted up front (ROADMAP item 2).

    Two and a half million strips exceed ``MAX_BREAKPOINTS``; a budgeted
    ``extend`` refuses at once, today's grinds on until the deadline.
    """
    shifts = (1.0, 2.0)

    def call():
        return extension.extend(extension.tent_boundary(shifts), shifts, (0.0, 2.5e6))

    return Op(
        kind="probe-span-budget",
        layer="extension",
        call=call,
        probe=True,
        deadline=HANG_DEADLINE,
        expect=(errors.DomainViolation, errors.Nonconvergence),
    )


class ExtendBuild:
    """Many strips, few reads: integer-lattice shifts d*(1..N)."""

    name = "extend-build"
    tail_pct = 85.0
    round_s = 3.5

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.seed, 1, r)
        ops = [
            _lattice_build(n, float(rng.uniform(0.5, 2.0)), strips * float(rng.uniform(0.96, 1.04)),
                           kinks, float(rng.uniform(0.2, 0.5)), rng)
            for n, kinks, strips in BUILD_SLOTS
        ]
        ops = _shuffled(rng, ops)
        ops.insert(int(rng.integers(0, len(ops) + 1)), _span_probe())
        ops.insert(int(rng.integers(0, len(ops) + 1)), _lattice_seam_probe())
        return ops

    def warm_up(self) -> list[Op]:
        rng = np.random.default_rng(0)
        return [_lattice_build(2, 1.0, 200.0, 0, 0.3, rng), _lattice_build(3, 0.7, 200.0, 3, 0.3, rng)]


# -- extend-query -------------------------------------------------------------------

QUERY_BREAKPOINTS = (3000.0, 25000.0)
QUERY_EVAL_POINTS = (1e5, 1e6)
QUERY_GRID = 100_000
QUERY_SCALAR_CALLS = 300
QUERY_POPOVICIU_CALLS = 40
PRIME_VECTORS = ((2, 3), (2, 5), (3, 5), (2, 3, 5), (2, 3, 7), (3, 5, 7), (2, 3, 5, 7))


def _span_for(shifts: tuple[float, ...], breakpoints: float) -> float:
    """Span whose lattice {sum n_k b_k} holds about ``breakpoints`` points."""
    n = len(shifts)
    return (breakpoints * math.factorial(n) * math.prod(shifts)) ** (1.0 / n)


def _regularity_ok(entries: tuple[float, ...], m: int, contraction: float) -> str:
    a_n = entries[-1]
    ratios = [1.0 / a_n] + [v / a_n for v in entries[:-1]]
    total = sum(r**m for r in ratios)
    if not (total < 1.0 and abs(total - contraction) <= 1e-12):
        return f"contraction {contraction!r} is not the ratio sum {total!r} below 1"
    if m > 1 and sum(r ** (m - 1) for r in ratios) < 1.0:
        return f"m = {m} is not minimal"
    return ""


def _query_op(raw: tuple[float, ...], breakpoints: float, eval_points: int, rng) -> Op:
    sorted_raw = tuple(sorted(raw))
    shifts_guess = tuple(math.log(v) for v in sorted_raw)
    span = _span_for(shifts_guess, breakpoints)
    target = (-0.25 * span, 0.75 * span + shifts_guess[-1])
    u = rng.uniform(size=QUERY_SCALAR_CALLS)
    pop = [
        (float(rng.uniform()), float(rng.uniform(0.02, 0.2)), int(rng.integers(2, 6)))
        for _ in range(QUERY_POPOVICIU_CALLS)
    ]

    def call():
        a = coefficients.normalize(raw)
        b = coefficients.to_additive(a)
        ri = coefficients.regularity_index(a)
        sol = extension.extend(extension.tent_boundary(b), b, target)
        lo, hi = sol.covered
        b_n = b.largest
        w = np.linspace(lo, hi, eval_points)
        v = sol(w)
        grid = np.linspace(lo, hi - b_n, QUERY_GRID)
        r_add = extension.residual_additive(sol, b, grid)
        r_mul = extension.residual_multiplicative(lambda x: sol(np.log(x)), a, np.exp(grid))
        points = (lo + (hi - lo) * u).tolist()
        scalars = [sol(x) for x in points]
        dets = []
        for frac, hfrac, order in pop:
            h = hfrac * (hi - lo) / (2 * order)
            x = lo + frac * (hi - lo - 2 * order * h)
            dets.append((x, h, order, extension.popoviciu_determinant(sol, x, h, order)))
        return a, b, ri, sol, w, v, r_add, r_mul, points, scalars, dets

    def check(value):
        a, b, ri, sol, w, v, r_add, r_mul, points, scalars, dets = value
        _require(a.entries == sorted_raw, f"normalize gave {a.entries}")
        _require(b.entries == tuple(math.log(x) for x in a.entries), "to_additive is not ln")
        msg = _regularity_ok(a.entries, ri.m, ri.contraction)
        _require(not msg, msg)
        scale = max(1.0, float(np.max(np.abs(sol.pieces.values))))
        _require(
            float(np.max(np.abs(v - _interp(sol, w)))) <= REL_EVAL_TOL * scale,
            "vector read disagrees with the pieces",
        )
        _require(
            float(np.max(np.abs(np.array(scalars) - _interp(sol, np.array(points)))))
            <= REL_EVAL_TOL * scale,
            "scalar read disagrees with the pieces",
        )
        _require(r_add / scale <= REL_RESIDUAL_TOL, f"relative additive residual {r_add / scale:.3g}")
        _require(r_mul / scale <= REL_RESIDUAL_TOL, f"relative multiplicative residual {r_mul / scale:.3g}")
        for x, h, order, det in dets:
            samples = _interp(sol, x + h * np.arange(2 * order + 1, dtype=float))
            hankel = samples[np.add.outer(np.arange(order + 1), np.arange(order + 1))]
            ref = float(np.linalg.det(hankel))
            with np.errstate(over="ignore"):
                # Hadamard's bound on |det|; may be inf for values near 1e50
                size = float(np.prod(np.linalg.norm(hankel, axis=1)))
            _require(det == ref or abs(det - ref) <= 1e-9 * size, f"popoviciu {det!r} vs {ref!r}")

    kind = "dense" if sorted_raw[0] < 1.1 else "query"
    return Op(kind=kind, layer="extension", call=call, check=check)


def _dense_vector(rng, n: int) -> tuple[float, ...]:
    """1 + k*gap for k = 1..n: regularity index in the hundreds."""
    gap = float(rng.uniform(0.002, 0.004))
    return tuple(1.0 + k * gap for k in range(1, n + 1))


def _nan_probe(sol) -> Op:
    """Known defect: evaluation at NaN returns NaN instead of refusing (ROADMAP item 2)."""
    return Op(
        kind="probe-nan-eval",
        layer="extension",
        call=lambda: sol(float("nan")),
        probe=True,
        expect=(errors.InvalidInput, errors.DomainViolation),
    )


def _seam_probe() -> Op:
    """Known defect: the seam check between strips uses the absolute tolerance 1e-9.

    Generic real coefficients such as (2.5, 6.5) grow past 1e10 within a few
    dozen strips, where rounding alone exceeds 1e-9, so ``extend`` raises
    InternalInconsistency.  About a third of random vectors in (1.2, 8) fail
    this way at 3k-25k breakpoints, which is why ordinary ops use the prime
    and dense vectors only.
    """
    op = _query_op((2.5, 6.5), 3000.0, 100_000, np.random.default_rng(0))
    op.kind, op.probe = "probe-seam-tolerance", True
    return op


class ExtendQuery:
    """Read-heavy: log shifts, few strips with many breakpoints, large evaluations."""

    name = "extend-query"
    tail_pct = 95.0
    round_s = 0.5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        shifts = (math.log(2.0), math.log(3.0))
        self.probe_sol = extension.extend(extension.tent_boundary(shifts), shifts, (-2.0, 4.0))

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.seed, 2, r)
        vectors = list(PRIME_VECTORS) + [_dense_vector(rng, 2), _dense_vector(rng, 3)]
        k = len(vectors)
        bps = _slices(rng, k, *QUERY_BREAKPOINTS)
        evals = _slices(rng, k, *QUERY_EVAL_POINTS)
        evals[-1] = QUERY_EVAL_POINTS[1]  # the same peak memory every round
        # a fixed pairing of breakpoint and evaluation slices across the slots
        ops = [
            _query_op(tuple(float(x) for x in raw), bps[j], int(evals[(4 * j) % k]), rng)
            for j, raw in enumerate(vectors)
        ]
        ops = _shuffled(rng, ops)
        ops.insert(int(rng.integers(0, k + 1)), _nan_probe(self.probe_sol))
        ops.insert(int(rng.integers(0, k + 2)), _seam_probe())
        return ops

    def warm_up(self) -> list[Op]:
        rng = np.random.default_rng(0)
        return [_query_op((2.0, 3.0), 2000.0, 100_000, rng), _query_op((1.003, 1.006), 2000.0, 100_000, rng)]


# -- spectral -----------------------------------------------------------------------

#: certificate alphas must match closed forms to this
ALPHA_TOL = 1e-7

#: rectangles the zero search runs on: the default one, a taller and a finer one
RECTANGLES = {
    "default": (-3.0, 2.0, 0.0, 30.0, 61, 241),
    "tall": (-3.0, 2.0, 0.0, 45.0, 61, 361),
    "fine": (-3.0, 2.0, 0.0, 30.0, 121, 481),
}


def _match_alphas(certs, expected: list[float]) -> str:
    got = sorted(c.alpha for c in certs)
    if len(got) != len(expected):
        return f"{len(got)} certificates, expected {len(expected)}"
    worst = max((abs(g - e) for g, e in zip(got, sorted(expected))), default=0.0)
    return f"alpha off by {worst:.3g}" if worst > ALPHA_TOL else ""


def _witness_ok(certs, shifts) -> str:
    w = np.linspace(-10.0, 10.0, 2001)
    for c in certs:
        total = np.cos(c.alpha * w) + sum(np.cos(c.alpha * (w + s)) for s in shifts)
        worst = float(np.max(np.abs(total)))
        if worst > 1e-6:
            return f"witness cos({c.alpha:.6g} w) leaves residual {worst:.3g}"
        phases = c.alpha * np.asarray(shifts)
        sq = (1.0 + np.cos(phases).sum()) ** 2 + np.sin(phases).sum() ** 2
        if c.system_residual > periodicity.CERTIFICATE_TOL or sq > 1e-14:
            return f"certificate at {c.alpha:.6g} does not solve the system ({sq:.3g})"
    return ""


def _periodic_op(kind: str, shifts: tuple[float, ...], alpha_max: float, grid_step, expected) -> Op:
    """``expected`` is the exact alpha list, or None for generic shifts."""

    def call():
        return periodicity.find_periodic_alphas(shifts, alpha_max, grid_step)

    def check(certs):
        msg = _witness_ok(certs, shifts)
        if not msg and expected is not None:
            msg = _match_alphas(certs, expected)
        _require(not msg, msg)

    return Op(kind=f"periodic-{kind}", layer="periodicity", call=call, check=check)


def _equispaced_op(n: int, d: float, alpha_hi: float, fine: bool) -> Op:
    unit = 2.0 * math.pi / ((n + 1) * d)
    top = max(1, int(alpha_hi / unit - 0.5))
    alpha_max = (top + 0.5) * unit  # halfway between closed-form frequencies
    expected = periodicity.equispaced_alphas(n, d, top)
    step = periodicity.default_grid_step([d * n], alpha_max) / 2 if fine else None
    return _periodic_op("equispaced", tuple(d * k for k in range(1, n + 1)), alpha_max, step, expected)


def _rational_op(p: int, q: int, d: float, alpha_hi: float, fine: bool) -> Op:
    unit = 2.0 * math.pi / (3.0 * d)
    top = max(1, int(alpha_hi / unit - 0.5))
    alpha_max = (top + 0.5) * unit
    exists = periodicity.two_term_periodic_exists(p, q).exists
    expected = [j * unit for j in range(1, top + 1) if j % 3 != 0] if exists else []
    shifts = tuple(sorted((p * d, q * d)))
    step = periodicity.default_grid_step([shifts[-1]], alpha_max) / 2 if fine else None
    return _periodic_op("rational", shifts, alpha_max, step, expected)


def _zeros_op(n: int, family: str, probe: bool = False) -> Op:
    rect_args = RECTANGLES[family] if family in RECTANGLES else family

    def call():
        rect = expsums.SearchRectangle(*rect_args)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            zeros = expsums.find_zeros(n, rect)
        return rect, zeros, [w.message for w in caught]

    def check(value):
        rect, zeros, caught = value
        mismatch = [m for m in caught if isinstance(m, errors.IncompleteSearch)]
        _require(not mismatch, str(mismatch[0]) if mismatch else "")
        logs = np.log(np.arange(1, n + 1, dtype=float))
        for z in zeros:
            res = abs(np.exp(z.z * logs).sum())
            _require(res <= expsums.ZERO_RESIDUAL_TOL, f"|sum| = {res:.3g} at {z.z}")
            _require(rect.contains(z.z), f"zero {z.z} outside the rectangle")

    kind = "probe-winding" if probe else f"zeros-{family}"
    return Op(kind=kind, layer="expsums", call=call, check=check, probe=probe)


#: per slot: N of the equispaced ops, the range of q in the rational ops (p < q
#: coprime), and the range of N in the generic ops
SPECTRAL_EQUISPACED_N = (8, 12, 16)
SPECTRAL_RATIONAL_Q = ((2, 5), (6, 9), (10, 12))
SPECTRAL_GENERIC_N = ((3, 7), (8, 12), (13, 16))


def _hang_probe() -> Op:
    """Known defect: golden section never narrows to 1e-14 above alpha = 64 (ROADMAP item 2)."""
    op = _equispaced_op(2, 1.0, 70.0, False)
    op.kind, op.probe, op.deadline = "probe-alpha-70", True, HANG_DEADLINE
    return op


class Spectral:
    """Periodicity certificates and power-sum zeros, extension idle."""

    name = "spectral"
    tail_pct = 90.0
    round_s = 3.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = _rng(self.seed, 3, r)
        fine = (False, True, False)
        ops = []
        # equispaced d*(1..N): cost grows with N*d*alpha, so the slices run opposite
        d_s, a_s = _slices(rng, 3, 1.0, 2.0), _slices(rng, 3, 20.0, 60.0)[::-1]
        for j, n in enumerate(SPECTRAL_EQUISPACED_N):
            ops.append(_equispaced_op(n, d_s[j], a_s[j], fine[j]))
        d_s, a_s = _slices(rng, 3, 0.5, 2.0)[::-1], _slices(rng, 3, 10.0, 60.0)
        for j, (q_lo, q_hi) in enumerate(SPECTRAL_RATIONAL_Q):
            q = int(rng.integers(q_lo, q_hi + 1))
            p = int(rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1]))
            ops.append(_rational_op(p, q, d_s[j], a_s[j], fine[j]))
        for (n_lo, n_hi), alpha_max in zip(SPECTRAL_GENERIC_N, _slices(rng, 3, 10.0, 60.0)):
            n = int(rng.integers(n_lo, n_hi + 1))
            shifts = tuple(float(v) for v in np.sort(rng.uniform(0.2, 3.0, n)))
            ops.append(_periodic_op("generic", shifts, alpha_max, None, None))
        for n in _slices(rng, 2, 2.0, 201.0):
            ops.append(_zeros_op(int(n), "default"))
        ops.append(_zeros_op(int(rng.integers(2, 201)), "tall"))
        # the largest search, three times: it sets the peak memory and is the
        # latency tail, and three of fifteen ops put p90 in its middle
        ops += [_zeros_op(200, "fine") for _ in range(3)]
        ops = _shuffled(rng, ops)
        ops.insert(int(rng.integers(0, len(ops) + 1)), _hang_probe())
        ops.insert(
            int(rng.integers(0, len(ops) + 1)),
            _zeros_op(100, (-3.0, 2.0, 0.0, 60.0), probe=True),
        )
        return ops

    def warm_up(self) -> list[Op]:
        return [_equispaced_op(2, 1.0, 10.0, False), _zeros_op(10, "default")]


def census() -> list[Op]:
    """Fixed calls into every in-process layer, appended to each traced run."""
    rng = np.random.default_rng(0)
    return [
        _lattice_build(2, 1.0, 2000.0, 0, 0.3, rng),
        _query_op((2.0, 3.0), 5000.0, 200_000, rng),
        _equispaced_op(2, 1.0, 10.0, False),
        _zeros_op(30, "default"),
    ]


WORKLOADS = {w.name: w for w in (ExtendBuild, ExtendQuery, Spectral)}
