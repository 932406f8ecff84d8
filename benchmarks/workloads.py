"""The benchmark's three workloads: inputs, timed operations and output checks.

Every workload times the same four user-facing operations, so every
end-to-end metric exists on every workload:

- `solve_s`: the main solve (`fcfw_solve`, or `l1_solve_on_grid` on `l1grid`);
- `dfw_s`: `dfw_solve` on the same problem;
- `certify_s`: the optimality sweep;
- `map_s`: the `influence-map` CLI command, run in-process, CSV write included.

Why these workloads:

- `city` is the production shape: 287 mixture cells, n=2000 sampled demand,
  budget 50, the criterion-10 solver config cut at a fixed iteration count.
  Adam's `influence_gradient` dominates the solve; certify and map are bulk
  `influence()` sweeps over ~10k and 39,844 points on a fixed 40-atom measure
  derived from the scenario, so their inputs do not depend on the solver.
  Certify runs at grid 100 and the map at resolution 200, so that each
  call takes ~3 s and a run holds three of each.
- `tri` is the criterion-2 problem: three equiprobable triangle points,
  b=1, the criterion-2 config cut at 50 outer iterations (the certificate
  is already within the criterion-2 tolerance there).  Every array is tiny,
  so time goes to per-call overhead (thousands of gradient and projection
  calls); a change that adds per-call set-up to win on `city` shows its
  cost here.
- `l1grid` is the L1 finite-support path: n discrete demand points drawn from
  the city mixture, budget 50.  There is no Adam at all; the corrective
  simplex descent over the grid vertices dominates.

Each operation's output is checked outside its timed region; a check that
fails raises `CheckFailed`.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from measurefw import cli, l1, response, scenario, solver
from measurefw.geometry import contains_many
from measurefw.measure import DiscreteMeasure

CITY_UNITS, CITY_SCENARIO_SEED, CITY_BUDGET = 287, 11, 50.0
CITY_BATCH = 2000
CITY_FCFW_ITERS = 10
CITY_DFW_ITERS = 10
CITY_FIXED_ATOMS = 40
CITY_CERTIFY_GRID, CITY_CERTIFY_TOL = 100, 1e-3
MAP_RESOLUTION = 200  # well above the 2,048-cell threshold of the threaded grid path

TRI_ITERS = 50
TRI_CERTIFY_GRID, TRI_CERTIFY_TOL = 100, 1.5e-4
TRI_SIM_REPS = 200_000

L1_POINTS = 40
L1_ROUNDS = 10
L1_DFW_ITERS = 100
L1_CERTIFY_GRID = 150

MAP_SAMPLE = 256


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Op:
    """One timed operation: `call` is timed, `check` is not.

    `reps` calls are made each time the operation comes up in a pass; short
    calls repeat, and come up more than once per pass, so that their median
    rests on samples spread over the run.  `check` returns the quality
    metrics the output carries.
    """

    metric: str
    reps: int
    call: Callable[[], object]
    check: Callable[[object], dict]


@dataclass
class Case:
    """A set-up workload: its problem, inputs on disk and operations.

    `last` holds outputs that later calls read: the measure certify checks,
    and the map grid and kernel the traced run compares thread counts on.
    """

    problem: object
    work: Path
    seed: int
    ops: list = field(default_factory=list)
    last: dict = field(default_factory=dict)


def city_config(seed: int, iters: int) -> solver.SolverConfig:
    """The criterion-10 solver config, cut at `iters` outer iterations."""
    return solver.SolverConfig(max_outer_iters=iters, inner_restarts=6, adam_steps=80,
                               correction_steps=25, mc_batch_size=CITY_BATCH, seed=seed)


def tri_config(seed: int) -> solver.SolverConfig:
    """The criterion-2 solver config, cut at `TRI_ITERS` outer iterations."""
    return solver.SolverConfig(max_outer_iters=TRI_ITERS, inner_restarts=6, adam_steps=80,
                               correction_steps=40, seed=seed)


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc) + "\n")
    return path


def heaviest_cells_measure(eta: scenario.RectMixture, atoms: int, budget: float):
    """Atoms at the centres of the heaviest cells, weights proportional to cell probability."""
    idx = np.argsort(-eta.probs, kind="stable")[:atoms]
    centres = np.array([(eta.rects[i].lo + eta.rects[i].hi) / 2.0 for i in idx])
    w = eta.probs[idx]
    return DiscreteMeasure(centres, w * (budget / w.sum()), budget)


def systematic_draw(eta: scenario.RectMixture, n: int, rng) -> np.ndarray:
    """n incident locations from the mixture by systematic sampling.

    Cells are picked at evenly spaced positions of the cumulative cell
    probability with one random offset, then a uniform point is drawn in each
    picked cell.  Each point follows the mixture; the cell mix varies less
    between seeds than with independent draws, which keeps the objective of
    the `l1grid` workload comparable across seeds.
    """
    u = (rng.random() + np.arange(n)) / n
    cells = np.minimum(np.searchsorted(np.cumsum(eta.probs), u, side="right"), len(eta.probs) - 1)
    lo = np.array([eta.rects[c].lo for c in cells])
    hi = np.array([eta.rects[c].hi for c in cells])
    return lo + rng.random((n, 2)) * (hi - lo)


# --- checks ------------------------------------------------------------------

def check_measure(mu: DiscreteMeasure, problem, in_domain: bool = True) -> None:
    b = problem.budget
    require(abs(float(mu.weights.sum()) - b) <= 1e-9 * b, "weights do not sum to the budget")
    if in_domain:
        require(bool(np.all(contains_many(problem.domain, mu.points))), "atom outside the domain")


def check_trace(trace, monotone: bool) -> None:
    require(len(trace) > 0, "empty trace")
    require(bool(np.all(trace.h_values() <= 0.0)), "positive h_star in the trace")
    if monotone:
        require(bool(np.all(np.diff(trace.j_values()) <= 1e-12)), "J increased in the trace")


def dfw_check(problem, objective):
    """Check of a `dfw_solve` result; J is not monotone under the 2/(k+2) steps."""
    def check(result):
        mu, trace = result
        check_trace(trace, False)
        check_measure(mu, problem)
        return {"dfw_J_final": objective(mu)}

    return check


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_kernel(case: Case, measure: DiscreteMeasure) -> response.InfluenceKernel:
    """The kernel the CLI builds for `measure`, rebuilt independently."""
    problem = case.problem
    demand = problem.eta
    if not isinstance(demand, scenario.DiscretePoints):
        demand = response.SampleBatch.draw(
            demand, solver.SolverConfig(seed=case.seed).mc_batch_size, case.seed)
    pts, probs = response.demand_of(demand)
    return response.InfluenceKernel(measure.points, measure.weights, pts, probs,
                                    problem.curve, problem.norm, budget=problem.budget)


def read_map(path: Path) -> np.ndarray:
    """Rows of an influence-map CSV as (x, y, h), h = NaN outside the domain."""
    with open(path) as fh:
        header = fh.readline().strip()
        require(header == "x,y,h", f"map header {header!r}")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return np.array([[float(x), float(y), float(h) if h else np.nan] for x, y, h in rows])


def map_mismatch_cells(kernel, grid: np.ndarray) -> int:
    """Map cells not bitwise equal to one single-threaded evaluation."""
    inside = ~np.isnan(grid[:, 2])
    ref = kernel.influence(grid[inside, :2])
    return int(np.count_nonzero(ref != grid[inside, 2]))


def make_map_op(case: Case, measure_path: Path, kernel, reps: int) -> Op:
    """The influence-map CLI call on the measure at `measure_path`.

    `kernel()` returns that measure's kernel, built independently of the CLI.
    """
    out = case.work / "map.csv"
    argv = ["influence-map", "--scenario", str(case.work / "scenario.json"),
            "--measure", str(measure_path), "--resolution", str(MAP_RESOLUTION),
            "--out", str(out), "--seed", str(case.seed)]

    def check(result):
        code, _ = result
        require(code == cli.EXIT_OK, f"influence-map exit code {code}")
        grid = read_map(out)
        require(len(grid) == MAP_RESOLUTION ** 2, f"map has {len(grid)} rows")
        inside = ~np.isnan(grid[:, 2])
        require(np.array_equal(inside, contains_many(case.problem.domain, grid[:, :2])),
                "map in-domain cells differ from contains_many")
        k = kernel()
        rng = np.random.default_rng(case.seed)
        cells = rng.choice(np.flatnonzero(inside), size=min(MAP_SAMPLE, int(inside.sum())),
                           replace=False)
        ref = k.influence(grid[cells, :2])
        scale = np.maximum(np.abs(ref), abs(k.h_const))
        require(bool(np.all(np.abs(grid[cells, 2] - ref) <= 1e-12 * scale)),
                "map cells differ from a single-threaded evaluation")
        case.last["map_grid"], case.last["map_kernel"] = grid, k
        return {}

    return Op("map_s", reps, lambda: run_cli(argv), check)


def certify_result_check(kernel, problem, min_h: float, argmin) -> None:
    """The reported minimum is the influence at the reported argmin, in the domain."""
    require(bool(contains_many(problem.domain, np.reshape(argmin, (1, 2)))[0]),
            "certify argmin outside the domain")
    h = float(kernel.influence(np.reshape(argmin, (1, 2)))[0])
    require(abs(h - min_h) <= 1e-12 * max(abs(h), abs(kernel.h_const)),
            "certify min_h is not the influence at its argmin")


# --- city --------------------------------------------------------------------

_CERTIFY_LINE = re.compile(r"min_h=(\S+) argmin=\((\S+), (\S+)\)")


def setup_city(seed: int, work: Path) -> Case:
    doc = scenario.make_city(CITY_UNITS, seed=CITY_SCENARIO_SEED, budget=CITY_BUDGET)
    scenario_path = _write_json(work / "scenario.json", doc)
    problem = scenario.load_scenario(str(scenario_path))
    batch = response.SampleBatch.draw(problem.eta, CITY_BATCH, seed)
    fixed = heaviest_cells_measure(problem.eta, CITY_FIXED_ATOMS, problem.budget)
    fixed_path = _write_json(work / "measure.json", fixed.to_json())
    case = Case(problem, work, seed)
    fcfw_cfg = city_config(seed, CITY_FCFW_ITERS)
    dfw_cfg = city_config(seed, CITY_DFW_ITERS)
    certify_argv = ["certify", "--scenario", str(scenario_path), "--measure", str(fixed_path),
                    "--grid", str(CITY_CERTIFY_GRID), "--tol", repr(CITY_CERTIFY_TOL),
                    "--seed", str(seed)]
    kernel = functools.cache(lambda: cli_kernel(case, fixed))

    def sampled(mu):
        return response.objective_mc(mu, batch, problem.curve, problem.norm)

    def check_solve(result):
        mu, trace = result
        check_trace(trace, True)
        check_measure(mu, problem)
        return {"J_final": sampled(mu), "outer_iters": len(trace)}

    def check_certify(result):
        code, text = result
        m = _CERTIFY_LINE.search(text)
        require(m is not None, "certify printed no result line")
        min_h, argmin = float(m.group(1)), np.array([float(m.group(2)), float(m.group(3))])
        want = cli.EXIT_OK if min_h >= -CITY_CERTIFY_TOL else cli.EXIT_NOT_CERTIFIED
        require(code == want, f"certify exit code {code} for min_h {min_h!r}")
        certify_result_check(kernel(), problem, min_h, argmin)
        atoms_h = kernel().influence(fixed.points)
        require(min_h <= float(atoms_h.min()) + 1e-12 * abs(kernel().h_const),
                "certify missed a lower value at a measure atom")
        return {}

    case.ops = [
        Op("solve_s", 2, lambda: solver.fcfw_solve(problem, fcfw_cfg), check_solve),
        Op("dfw_s", 2, lambda: solver.dfw_solve(problem, dfw_cfg), dfw_check(problem, sampled)),
        Op("certify_s", 1, lambda: run_cli(certify_argv), check_certify),
        make_map_op(case, fixed_path, kernel, 1),
    ]
    return case


# --- tri ---------------------------------------------------------------------

def setup_tri(seed: int, work: Path) -> Case:
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, float(np.sqrt(3.0)) / 2.0]]
    doc = {"budget": 1.0, "norm": "l2",
           "eta": {"type": "discrete", "points": pts, "probs": [1 / 3] * 3}}
    scenario_path = _write_json(work / "scenario.json", doc)
    problem = scenario.load_scenario(str(scenario_path))
    uniform = DiscreteMeasure(problem.eta.points, np.full(3, 1 / 3), 1.0)
    uniform_path = _write_json(work / "measure.json", uniform.to_json())
    case = Case(problem, work, seed)
    cfg = tri_config(seed)

    def exact(mu):
        return response.objective_exact(mu, problem.eta, problem.curve, problem.norm)

    def check_solve(result):
        mu, trace = result
        check_trace(trace, True)
        check_measure(mu, problem)
        j = exact(mu)
        est, se = response.simulate_objective(mu, problem.eta, problem.curve, problem.norm,
                                              TRI_SIM_REPS, np.random.default_rng(seed))
        require(abs(est - j) <= 4.0 * se, f"J {j!r} disagrees with simulation {est!r} +- {se!r}")
        case.last["mu"] = mu
        return {"J_final": j, "outer_iters": len(trace)}

    def certify():
        return solver.certify(case.last["mu"], problem, TRI_CERTIFY_GRID, cfg)

    def check_certify(result):
        min_h, argmin = result
        require(min_h >= -TRI_CERTIFY_TOL, f"certificate {min_h!r} below -{TRI_CERTIFY_TOL}")
        mu = case.last["mu"]
        kernel = response.InfluenceKernel(mu.points, mu.weights, *response.demand_of(problem.eta),
                                          problem.curve, problem.norm, budget=problem.budget)
        certify_result_check(kernel, problem, min_h, argmin)
        return {}

    certify_op = Op("certify_s", 5, certify, check_certify)
    map_op = make_map_op(case, uniform_path, functools.cache(lambda: cli_kernel(case, uniform)), 2)
    case.ops = [
        Op("solve_s", 1, lambda: solver.fcfw_solve(problem, cfg), check_solve),
        certify_op,
        map_op,
        Op("dfw_s", 1, lambda: solver.dfw_solve(problem, cfg), dfw_check(problem, exact)),
        certify_op,
        map_op,
    ]
    return case


# --- l1grid ------------------------------------------------------------------

def setup_l1grid(seed: int, work: Path) -> Case:
    city = scenario.load_scenario(
        scenario.make_city(CITY_UNITS, seed=CITY_SCENARIO_SEED, budget=CITY_BUDGET))
    pts = systematic_draw(city.eta, L1_POINTS, np.random.default_rng(seed))
    doc = {"budget": CITY_BUDGET, "norm": "l1",
           "eta": {"type": "discrete", "points": pts.tolist(),
                   "probs": [1.0 / L1_POINTS] * L1_POINTS}}
    scenario_path = _write_json(work / "scenario.json", doc)
    problem = scenario.load_scenario(str(scenario_path))
    at_demand = DiscreteMeasure(problem.eta.points, problem.budget * problem.eta.probs,
                                problem.budget)
    at_demand_path = _write_json(work / "measure.json", at_demand.to_json())
    case = Case(problem, work, seed)
    solve_cfg = solver.SolverConfig(max_outer_iters=L1_ROUNDS, seed=seed)
    dfw_cfg = solver.SolverConfig(max_outer_iters=L1_DFW_ITERS, seed=seed)
    vertices = {tuple(v) for v in l1.build_grid(problem.eta.points).vertices.tolist()}

    def exact(mu):
        return response.objective_exact(mu, problem.eta, problem.curve, problem.norm)

    def check_solve(result):
        mu, trace = result
        check_measure(mu, problem, in_domain=False)
        require(all(tuple(p) in vertices for p in mu.points.tolist()),
                "support off the grid vertices")
        case.last["mu"], case.last["h_star"] = mu, float(trace.h_values()[-1])
        return {"J_final": exact(mu), "outer_iters": len(trace)}

    def certify():
        return solver.certify(case.last["mu"], problem, L1_CERTIFY_GRID, solve_cfg)

    def check_certify(result):
        min_h, _ = result
        h_star = case.last["h_star"]
        require(abs(min_h - h_star) <= 1e-9, f"certify min {min_h!r} != vertex h* {h_star!r}")
        return {}

    # certify right after dfw each time: a certify that follows another
    # certify runs ~1.7x slower (heap state), and a fixed order keeps the
    # measured mix the same in every pass
    dfw = Op("dfw_s", 1, lambda: solver.dfw_solve(problem, dfw_cfg), dfw_check(problem, exact))
    certify_op = Op("certify_s", 1, certify, check_certify)
    map_op = make_map_op(case, at_demand_path,
                         functools.cache(lambda: cli_kernel(case, at_demand)), 2)
    case.ops = [
        Op("solve_s", 1, lambda: l1.l1_solve_on_grid(problem, solve_cfg), check_solve),
        dfw,
        certify_op,
        map_op,
        dfw,
        certify_op,
        map_op,
    ]
    return case


WORKLOADS = {"city": setup_city, "tri": setup_tri, "l1grid": setup_l1grid}
