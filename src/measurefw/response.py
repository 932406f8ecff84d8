"""Exact numerical kernels: objective, influence function, gradients, oracles.

Everything rests on one observation: for a finite atomic measure, the ball
mass t -> mu(B(y, t)) seen from a demand point y is a nondecreasing step
function that jumps at the sorted atom distances.  Integrals against the
death curve therefore reduce to finite sums over segments with constant
mass -- no quadrature, exact up to floating point.  Both closed forms on
that sorted support (`_sorted_support`) live here: `InfluenceKernel` and the
corrective step's `_SimplexObjective`.  `InfluenceKernel` builds the segment
tables once per measure; each query then finds its segment with a branchless
binary search over the row's padded sorted distances.  A small gradient call
(at most `_COUNT_MAX` query x demand x table-width entries, as in an Adam
step on a few demand points) counts the distances at or below each radius in
one broadcast comparison instead: the same index, without the search's
per-step set-up.

Queries run in blocks of at most 65,536 (demand x query) entries, so each
float64 buffer (512 KB) stays in cache across the distance, search, beta
and gather passes.  A block holds a multiple of 8 query points (at most
4,096), which keeps the `probs @ tails` product on BLAS's full-vector path:
a partial vector takes a scalar tail path that moves single values by an ulp.
Blocks are also the unit of parallel work: a large `influence` sweep hands
contiguous runs of whole blocks to up to `worker_count()` threads (the
MEASURE_FW_THREADS cap), and each worker evaluates its blocks in place in one
set of buffers that it reuses from block to block.  The operations per block
are the same for any worker count, so the values are too.

All Stieltjes integrals run over (0, inf), carrying total curve mass
1 - beta(0); the raw death probability is beta(0) plus the objective, and
the simulation oracle subtracts beta(0) accordingly.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .geometry import L2, _distances_into, as_points, norm_key, pairwise_distance
from .measure import DiscreteMeasure, check_budget
from .scenario import (
    DeathCurve,
    DiscretePoints,
    ScenarioError,
    _beta_values,
    beta,
    sample_incident,
)

__all__ = [
    "SampleBatch",
    "InfluenceKernel",
    "survival_integral",
    "objective_exact",
    "objective_mc",
    "influence",
    "influence_gradient",
    "directional_derivative",
    "correction_gradient",
    "simulate_objective",
    "smoothness_constant",
    "demand_of",
    "worker_count",
]

_SINGULAR_EPS = 1e-9
_CHUNK_ELEMS = 65_536  # soft cap on (demand x query) entries per block
# cap on query points per block, so that a grid over few demand points still
# splits into blocks for the influence-map workers
_CHUNK_POINTS = 4096
_BLOCK_ALIGN = 8  # block sizes are multiples of this many query points
# an `influence` sweep of fewer (demand x query) entries runs in the calling
# thread, so that small sweeps pay no thread start-up
_THREAD_MIN_ELEMS = 2 * _CHUNK_ELEMS
# an `influence_gradient` call of at most this many (query x demand x table
# width) entries finds its segments by one broadcast count: measured, that
# costs less than the binary search's passes up to ~6k entries and 1.4-3x as
# much from ~25k (a city Adam step is 192k)
_COUNT_MAX = 4096


def worker_count() -> int:
    """Worker cap from MEASURE_FW_THREADS (0 or unset means auto)."""
    raw = os.environ.get("MEASURE_FW_THREADS", "0")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ScenarioError(f"MEASURE_FW_THREADS must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ScenarioError("MEASURE_FW_THREADS must be nonnegative")
    if n == 0:
        # the CPUs this process may run on, which a cpuset can make fewer
        # than the machine has
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    return n


class SampleBatch:
    """Frozen incident draws used as a sample-average objective.

    The batch is drawn once per solver run (common random numbers across
    iterations), which makes the sampled objective an exact discrete
    objective in its own right.  Points are a nonempty (n, 2) array of
    finite coordinates, or one (2,) point.
    """

    __slots__ = ("points", "seed")

    def __init__(self, points, seed: int):
        pts = as_points(points)
        if len(pts) == 0:
            raise ValueError("batch must be a nonempty (n, 2) array of points")
        self.points = np.ascontiguousarray(pts)
        self.points.setflags(write=False)
        self.seed = int(seed)

    @classmethod
    def draw(cls, eta, n: int, seed: int) -> "SampleBatch":
        """Draw n incident locations from eta with a dedicated seeded stream."""
        if n < 1:
            raise ValueError("batch size must be >= 1")
        rng = np.random.default_rng(seed)
        return cls(sample_incident(eta, rng, size=n), seed)

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"SampleBatch({len(self.points)} points, seed={self.seed})"


def demand_of(eta_or_batch):
    """Resolve demand points and weights from a discrete eta or a SampleBatch."""
    if isinstance(eta_or_batch, SampleBatch):
        n = len(eta_or_batch)
        return eta_or_batch.points, np.full(n, 1.0 / n)
    if isinstance(eta_or_batch, DiscretePoints):
        return eta_or_batch.points, eta_or_batch.probs
    raise TypeError(
        "expected a discrete incident distribution or a SampleBatch, "
        f"got {type(eta_or_batch).__name__}"
    )


def _sorted_support(demand_points, atoms, curve, norm):
    """Each demand row's atom distances in stable sorted order, with beta at segment ends.

    Returns (order, d, bd, dbeta), all (n, m): the sort permutation, the
    sorted distances, beta(d) and the rise of beta over each segment
    [d_j, d_{j+1}), with beta = 1 at the end of the last one.
    """
    dist = pairwise_distance(demand_points, atoms, norm)
    order = np.argsort(dist, axis=1, kind="stable")
    d = np.take_along_axis(dist, order, axis=1)
    bd = _beta_values(curve, d)
    dbeta = np.concatenate([bd[:, 1:], np.ones((len(d), 1))], axis=1) - bd
    return order, d, bd, dbeta


class InfluenceKernel:
    """Closed-form evaluator for one measure against fixed demand points.

    `weights` and `demand_probs` hold one finite, nonnegative value per atom and
    per demand point.  The constructor sorts each demand point's atom distances
    and lays the per-segment quantities out in row-padded flat tables of width
    P, the smallest power of two above the atom count m.  Row i, column k
    describes the segment entered once k atoms lie in the closed ball:

    - `_dist_flat`: sorted distances d_0..d_{m-1}, then NaN padding;
    - `_cum_flat`: the segment's ball mass (0, cum_0, .., cum_{m-1});
    - `_decay_flat`: its e^{-mass} (1, decay_0, .., decay_{m-1});
    - `_bval_flat`: beta at the segment's end (beta(d_0), .., beta(d_{m-1}), 1);
    - `_tail_flat`: the tail integral from the segment's end onwards.

    A query radius r is located by a branchless binary search (`_search`)
    that returns the closed-ball count k directly as a flat table index, so
    the objective, influence values and influence gradients are a few
    vectorised passes over the same flat tables.  An `influence_gradient`
    call of at most `_COUNT_MAX` (query x demand x P) entries counts k
    instead, comparing each radius with its whole row of `_dist_rows` at
    once: the rows are sorted and their NaN padding compares false, so the
    count is the search's index, reached without its per-step set-up.  The
    sweeps (`influence`, `tails`, `ball_masses`) run rows-first (demand x
    query) blocks; `influence_gradient` runs query-major (query x demand),
    so that each of its few Adam lanes is one contiguous row of n entries.  `influence` works
    through its query points in blocks of `block` points: the largest
    multiple of 8 with block * n <= 65,536, capped at 4,096 and at least 8
    (see the module docstring for why).  A block is also the unit of
    parallel work in a large sweep; each worker thread reuses one set of
    buffers for all of its blocks.
    """

    def __init__(self, atoms, weights, demand_points, demand_probs, curve, norm, budget=None):
        self.atoms = as_points(atoms)
        w = np.asarray(weights, dtype=float)
        self.demand = as_points(demand_points)
        self.probs = np.asarray(demand_probs, dtype=float)
        self.curve = curve
        self.norm = norm_key(norm)
        self.budget = float(w.sum() if budget is None else budget)
        n, m = len(self.demand), len(self.atoms)
        if m == 0:
            raise ValueError("measure must have at least one atom")
        for name, values, size in (("weights", w, m), ("demand_probs", self.probs, n)):
            if values.shape != (size,) or not (np.isfinite(values).all() and (values >= 0).all()):
                raise ValueError(f"{name} must be {size} finite, nonnegative values")
        # query points per block of `influence`; callers that split a query
        # set on multiples of it get the same result as one call
        fit = min(_CHUNK_ELEMS // max(n, 1), _CHUNK_POINTS)
        self.block = max(_BLOCK_ALIGN, fit - fit % _BLOCK_ALIGN)
        # the gradient's contiguous demand columns and its b p_i c factor
        self._demand_x, self._demand_y = np.ascontiguousarray(self.demand.T)
        self._grad_scale = self.budget * self.probs * curve.c

        order, d, bd, dbeta = _sorted_support(self.demand, self.atoms, curve, self.norm)
        width = 1 << m.bit_length()  # P > m, so every count 0..m has a column
        tables = np.full((5, n, width), np.nan)
        dist_t, cum_t, decay_t, bval_t, tail_t = tables
        dist_t[:, :m] = d
        cum_t[:, 0] = 0.0
        cum_t[:, 1 : m + 1] = np.cumsum(w[order], axis=1)
        decay_t[:, 0] = 1.0
        decay_t[:, 1 : m + 1] = np.exp(-cum_t[:, 1 : m + 1])
        bval_t[:, :m] = bd
        bval_t[:, m] = 1.0

        # segment j (0-based) spans [d_j, d_{j+1}) with mass cum_j; the head
        # segment [0, d_0) carries zero mass, the last one runs to infinity.
        seg = decay_t[:, 1 : m + 1] * dbeta  # (n, m)
        head = bd[:, 0] - beta(curve, 0.0)  # (n,)
        # tail[:, j] = integral of e^{-mass} d(beta) over [d_j, inf): the
        # row-wise sum of the segment terms from column j to the end
        tail_t[:, :m] = np.cumsum(seg[:, ::-1], axis=1)[:, ::-1]
        tail_t[:, m] = 0.0
        self.survival_values = head + tail_t[:, 0]
        # per-demand constant of the influence integrand: int W e^{-W} d(beta)
        h_const_terms = np.sum(cum_t[:, 1 : m + 1] * seg, axis=1)
        self.h_const = float(self.probs @ h_const_terms)

        self._row_start = np.arange(n, dtype=np.intp) * width
        self._dist_rows = dist_t  # (n, P) view of `_dist_flat`
        self._dist_flat, self._cum_flat, self._decay_flat, self._bval_flat, self._tail_flat = (
            t.reshape(-1) for t in tables)
        # search steps P/2, .., 1, each with the distance table offset by
        # step - 1, so that index k reads the probe d_{k + step - 1}
        self._probes = [(1 << j, self._dist_flat[(1 << j) - 1 :])
                        for j in reversed(range(m.bit_length()))]

    @classmethod
    def of(cls, mu: DiscreteMeasure, eta_or_batch, curve, norm) -> "InfluenceKernel":
        """Kernel of a measure against a discrete eta or a SampleBatch, at mu's budget."""
        pts, probs = demand_of(eta_or_batch)
        return cls(mu.points, mu.weights, pts, probs, curve, norm, budget=mu.budget)

    def objective(self) -> float:
        return float(self.probs @ self.survival_values)

    def _segments(self, radii: np.ndarray) -> np.ndarray:
        """Flat table index row * P + k, k = #{atoms with d <= r}; radii is (n, ...)."""
        idx = np.empty(radii.shape, dtype=np.intp)
        shape = (len(self._row_start),) + (1,) * (radii.ndim - 1)
        idx[...] = self._row_start.reshape(shape)
        return self._search(radii, idx, np.empty(radii.shape),
                            np.empty(radii.shape, dtype=bool))

    def _search(self, radii, idx, probe, hit) -> np.ndarray:
        """Advance idx from each radius's row start to row * P + k, in place.

        Works for any layout: idx must hold the row start of the demand
        point each radius belongs to.  Radii must not be NaN.  Padding
        compares false, so the search never moves past column m; each pass
        halves the step and costs one gather and one comparison.  `probe`
        (float, the shape of radii) and `hit` (bool) are overwritten.
        """
        moves = probe.view(np.intp)  # probe is dead after each comparison
        for step, shifted in self._probes:
            shifted.take(idx, out=probe, mode="clip")
            np.less_equal(probe, radii, out=hit)
            # a uint8 view of the mask multiplies faster than the bool, but
            # a step of 256 or more does not fit its dtype (numpy raises)
            np.multiply(hit.view(np.uint8) if step < 256 else hit, step, out=moves)
            idx += moves
        return idx

    def tails(self, radii: np.ndarray) -> np.ndarray:
        """Tail integrals int_r^inf e^{-mass(t)} d(beta)(t); radii is (n, ...)."""
        return self._tails(radii, self._segments(radii), np.empty(radii.shape),
                           np.empty(radii.shape))

    def _tails(self, radii, idx, out, scratch) -> np.ndarray:
        """`tails` of radii in segments idx, written to `out`; `scratch` may be radii."""
        # r lies in the segment of mass cum_{k-1} (0 for k = 0), which ends at
        # d_k (infinity once k = m); split the tail there:
        # tail_k + decay_k * (beta(d_k) - beta(r)), one in-place pass each
        _beta_values(self.curve, radii, out=out)
        np.subtract(self._bval_flat.take(idx, out=scratch, mode="clip"), out, out=out)
        out *= self._decay_flat.take(idx, out=scratch, mode="clip")
        out += self._tail_flat.take(idx, out=scratch, mode="clip")
        return out

    def ball_masses(self, radii: np.ndarray) -> np.ndarray:
        """Closed-ball masses mu(B(y_i, r)) for per-demand radii (n, ...)."""
        return np.take(self._cum_flat, self._segments(radii))

    def influence(self, xs) -> np.ndarray:
        """Influence values at query points xs (k, 2) or one (2,) point; returns (k,).

        A sweep of at least `2 * _CHUNK_ELEMS` (demand x query) entries
        splits its blocks into contiguous runs, one per worker, for up to
        `worker_count()` threads; a smaller sweep runs in the calling thread.
        Every block is computed by the same operations either way, so the
        values do not depend on the worker count.
        """
        xs = as_points(xs)
        out = np.empty(len(xs))
        blocks = -(-len(xs) // self.block)
        workers = 1
        if len(self.demand) * len(xs) >= _THREAD_MIN_ELEMS:
            workers = min(worker_count(), blocks)
        if workers <= 1:
            self._sweep(xs, out)
            return out
        cuts = [self.block * (blocks * i // workers) for i in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            runs = [pool.submit(self._sweep, xs[lo:hi], out[lo:hi])
                    for lo, hi in zip(cuts, cuts[1:])]
            for run in runs:
                run.result()
        return out

    def _sweep(self, xs, out) -> None:
        """Influence at xs into out, block by block, in one reused set of buffers."""
        n, k = len(self.demand), min(self.block, len(xs))
        # r holds the distances, then the gathers; w the y-differences, then
        # the search probes, then the tails
        r, w = np.empty((n, k)), np.empty((n, k))
        idx, hit = np.empty((n, k), dtype=np.intp), np.empty((n, k), dtype=bool)
        for lo in range(0, len(xs), self.block):
            q = xs[lo : lo + self.block]
            if len(q) < k:  # the ragged last block: the leading part of each buffer
                r, w, idx, hit = (a.reshape(-1)[: n * len(q)].reshape(n, len(q))
                                  for a in (r, w, idx, hit))
            _distances_into(self.demand, q, self.norm, r, w)
            idx[...] = self._row_start[:, None]
            self._search(r, idx, w, hit)
            t = self._tails(r, idx, w, r)
            out[lo : lo + len(q)] = self.h_const - self.budget * (self.probs @ t)

    def influence_gradient(self, xs, *, on_singular="raise") -> np.ndarray:
        """Influence gradient at xs (k, 2) or one (2,) point; returns (k, 2); L2 norm only.

        Runs query-major: each query's row holds its n demand entries
        contiguously, over the same flat tables as the rows-first sweeps.  A
        query's gradient does not depend on the other queries of the call.
        With `on_singular="mask"`, demand points coincident with a query
        contribute zero instead of raising (used by the projected optimizer,
        where iterates may land on demand points).
        """
        if self.norm != L2:
            raise ValueError("influence gradient is only available under the L2 norm")
        xs = as_points(xs)
        dx = xs[:, :1] - self._demand_x  # (k, n)
        dy = xs[:, 1:] - self._demand_y
        with np.errstate(over="ignore"):  # only past ~1e154, where beta' / r is 0 anyway
            r = dx * dx
            w = dy * dy
        r += w
        np.sqrt(r, out=r)
        singular = r < _SINGULAR_EPS
        any_singular = singular.any()
        if any_singular:
            if on_singular == "raise":
                raise ValueError("gradient singular at demand point")
            r[singular] = 1.0
        if r.size * self._dist_rows.shape[1] <= _COUNT_MAX:
            idx = (self._dist_rows <= r[..., None]).sum(axis=-1, dtype=np.intp)
            idx += self._row_start
        else:
            idx = np.empty(r.shape, dtype=np.intp)
            idx[...] = self._row_start
            self._search(r, idx, w, np.empty(r.shape, dtype=bool))
        coef = self._decay_flat.take(idx, out=w, mode="clip")  # e^{-mass(B(y, r))}
        coef *= self._grad_scale
        # b p_i beta'(r) / r with beta'(r) = c e / (1 + e)^2, e = e^{-(a + c r)}
        e = np.multiply(r, -self.curve.c)
        e -= self.curve.a
        np.exp(e, out=e)
        coef *= e
        e += 1.0
        e *= e
        e *= r
        coef /= e
        if any_singular:
            coef[singular] = 0.0
        grad = np.empty((len(xs), 2))
        np.einsum("kn,kn->k", coef, dx, out=grad[:, 0])
        np.einsum("kn,kn->k", coef, dy, out=grad[:, 1])
        return grad


class _SimplexObjective:
    """J restricted to measures sum_i p_i b delta_{x_i} on a fixed support.

    Distances and their sort order are precomputed once (the same sorted
    support `InfluenceKernel` builds), so an evaluation is a cumulative sum
    plus a few elementwise passes over an (n_demand, n_support) array.  Each
    point's segment terms are computed once: the last point evaluated is kept
    (as a copy, compared by value) with its terms and J, so `value_and_grad`
    at the point `value` just accepted only adds the suffix sums and the
    gradient.  Those passes run in place in three (n_demand, n_support)
    buffers allocated once: the segment terms of the last point, the
    sorted weights (then the suffix sums) and the per-atom tails.  Only J and
    a freshly allocated gradient leave the object, so a later evaluation
    that overwrites the buffers changes nothing a caller holds.
    """

    def __init__(self, support, demand_pts, demand_probs, curve, norm, budget):
        self.probs = np.asarray(demand_probs, dtype=float)
        self.b = float(budget)
        self.order, self.d, bd, self.dbeta = _sorted_support(demand_pts, support, curve, norm)
        n, m = self.order.shape
        self.head = float(self.probs @ (bd[:, 0] - beta(curve, 0.0)))
        # flat index of each atom's tail in the (n, m) table of cumulative sums
        # over the reversed segment terms: an atom at sorted position k reads
        # column m - 1 - k, the tail from its own radius (the segments between
        # it and atoms tied with it have zero width, so this is the
        # closed-ball tail exactly)
        self._tail_index = np.empty_like(self.order)
        np.put_along_axis(self._tail_index, self.order,
                          np.arange(m - 1, -1, -1) + np.arange(0, n * m, m)[:, None], axis=1)
        self._seg, self._w, self._tails = np.empty((3, n, m))
        self._last = (None, None)  # (p, J); `_seg` holds p's segment terms

    def _evaluate(self, p):
        last_p, j = self._last
        if last_p is None or not (p == last_p).all():
            seg, w = self._seg, self._w
            (np.maximum(p, 0.0) * self.b).take(self.order, out=w, mode="clip")
            w.cumsum(axis=1, out=seg)
            np.negative(seg, out=seg)
            np.exp(seg, out=seg)
            seg *= self.dbeta
            j = self.head + float(self.probs @ seg.sum(axis=1))
            self._last = (np.array(p, dtype=float), j)
        return j

    def value(self, p) -> float:
        return self._evaluate(p)

    def value_and_grad(self, p):
        j = self._evaluate(p)
        suffix = self._seg[:, ::-1].cumsum(axis=1, out=self._w)
        t_atoms = suffix.take(self._tail_index, out=self._tails, mode="clip")
        grad = -self.b * (self.probs @ t_atoms)
        return j, grad


def survival_integral(mu: DiscreteMeasure, y, curve: DeathCurve, norm=L2) -> float:
    """int_0^inf exp(-mu(B(y, t))) d(beta)(t), in closed form.

    The value lies in (0, 1 - beta(0)]: it is the death probability excess
    contributed by incidents at y under volunteer measure mu.
    """
    kernel = InfluenceKernel.of(mu, DiscretePoints([y], [1.0]), curve, norm)
    return float(kernel.survival_values[0])


def objective_exact(mu: DiscreteMeasure, eta, curve: DeathCurve, norm=L2) -> float:
    """Exact objective for a discrete incident distribution."""
    if not isinstance(eta, DiscretePoints):
        raise TypeError("objective_exact requires a discrete eta; use objective_mc")
    return InfluenceKernel.of(mu, eta, curve, norm).objective()


def objective_mc(mu: DiscreteMeasure, batch: SampleBatch, curve: DeathCurve, norm=L2) -> float:
    """Sample-average objective over a frozen batch of incident draws."""
    return InfluenceKernel.of(mu, batch, curve, norm).objective()


def influence(mu: DiscreteMeasure, x, eta_or_batch, curve: DeathCurve, norm=L2):
    """Influence function h_mu at x: a float for one (2,) point, (k,) for a (k, 2) array."""
    vals = InfluenceKernel.of(mu, eta_or_batch, curve, norm).influence(x)
    return float(vals[0]) if np.ndim(x) == 1 else vals


def influence_gradient(mu: DiscreteMeasure, x, eta_or_batch, curve: DeathCurve):
    """Gradient of h_mu at x, (2,) at one (2,) point; L2 norm; x must avoid demand points."""
    grads = InfluenceKernel.of(mu, eta_or_batch, curve, L2).influence_gradient(x)
    return grads[0] if np.ndim(x) == 1 else grads


def directional_derivative(
    mu: DiscreteMeasure, nu: DiscreteMeasure, eta_or_batch, curve: DeathCurve, norm=L2
) -> float:
    """von Mises derivative of the objective at mu along nu - mu.

    Equals (1/b) E_{x ~ nu}[h_mu(x)] for measures of equal budget b.
    """
    check_budget(nu, mu.budget)
    if mu.budget <= 0:
        raise ValueError("budget must be positive")
    h = influence(mu, nu.points, eta_or_batch, curve, norm)
    return float(nu.weights @ h) / mu.budget


def correction_gradient(support, p, problem, eta_or_batch=None) -> np.ndarray:
    """Gradient of J(sum_i p_i b delta_{x_i}) with respect to the simplex weights.

    Component i is -b * int eta(dy) int_{d(x_i, y)}^inf e^{-mass(t)} d(beta)(t),
    from `_SimplexObjective.value_and_grad`, which the corrective step uses.
    A sampled problem needs `eta_or_batch`: there is no config to draw a batch from.
    """
    support = as_points(support)
    p = np.asarray(p, dtype=float).reshape(-1)
    if len(support) == 0:
        raise ValueError("support must be nonempty")
    if len(p) != len(support):
        raise ValueError("weight vector length must match the support")
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < -1e-9):
        raise ValueError("weights must lie on the unit simplex")
    demand = demand_of(problem.eta if eta_or_batch is None else eta_or_batch)
    obj = _SimplexObjective(support, *demand, problem.curve, problem.norm, problem.budget)
    return obj.value_and_grad(p)[1]


def simulate_objective(
    mu: DiscreteMeasure, eta, curve: DeathCurve, norm, reps: int, rng
) -> tuple[float, float]:
    """Monte-Carlo oracle for the objective via the Poisson volunteer model.

    Each replication draws an incident y ~ eta, a volunteer count
    N ~ Poisson(b), N volunteer locations i.i.d. mu/b, and records
    beta(min distance) - beta(0) (with beta(inf) = 1 when N = 0).  Returns
    (mean, standard error); the mean estimates the Stieltjes-convention
    objective directly thanks to the beta(0) offset.  It keeps `np.hypot`
    rather than `pairwise_distance`, so that it stays an independent oracle.
    """
    reps = int(reps)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    b = mu.budget
    beta0 = beta(curve, 0.0)
    nk = norm_key(norm)
    if b > 0:
        atom_probs = mu.weights / mu.weights.sum()
    else:
        atom_probs = None
    vals = np.empty(reps)
    chunk = 200_000
    for lo in range(0, reps, chunk):
        k = min(chunk, reps - lo)
        ys = sample_incident(eta, rng, size=k)
        counts = rng.poisson(b, size=k)
        total = int(counts.sum())
        r_min = np.full(k, np.inf)
        if total > 0:
            idx = rng.choice(mu.n_atoms, size=total, p=atom_probs)
            vpts = mu.points[idx]
            rep_id = np.repeat(np.arange(k), counts)
            d = vpts - ys[rep_id]
            if nk == L2:
                dist = np.hypot(d[:, 0], d[:, 1])
            else:
                dist = np.abs(d[:, 0]) + np.abs(d[:, 1])
            nz = np.flatnonzero(counts > 0)
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[nz]
            r_min[nz] = np.minimum.reduceat(dist, starts)
        vals[lo : lo + k] = beta(curve, r_min) - beta0  # beta(inf) = 1 when no volunteer
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(reps)) if reps > 1 else float("inf")
    return est, se


def smoothness_constant(b: float) -> float:
    """Smoothness constant of the objective over fixed-budget measures: 2b + 1."""
    if b <= 0:
        raise ValueError("budget must be positive")
    return 2.0 * b + 1.0
