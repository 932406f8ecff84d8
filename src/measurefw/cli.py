"""Command-line front end: solve, influence maps, certification, oracles.

Exit codes: 0 success, 2 input/schema error, 3 solver precondition violation,
4 certification failed.  All structured outputs are JSON, grids and traces
are CSV, and files are written atomically (temp file + rename).

The environment variable MEASURE_FW_THREADS caps the worker threads of every
large influence sweep, such as the `influence-map` grid and `certify`'s
lattice (0 or unset = auto; see `response.worker_count`); every command
rejects a malformed value with exit 2 before it starts.  The kernel's
fixed-size blocks are also its unit of parallel work, so the thread count
never changes the output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import contains_many
from .measure import DiscreteMeasure, check_budget
from .l1 import l1_solve_on_grid
from .response import InfluenceKernel, simulate_objective, worker_count
from .scenario import ScenarioError, load_scenario, make_city
from .solver import (
    SolverConfig,
    _resolve_demand,
    certify,
    dfw_solve,
    fcfw_solve,
    lattice_points,
    two_point_optimum,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NOT_CERTIFIED = 4


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_measure(path: str) -> DiscreteMeasure:
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"measure file not found: {p}")
    try:
        return DiscreteMeasure.from_json(json.loads(p.read_text()))
    except (json.JSONDecodeError, ValueError) as exc:
        raise ScenarioError(f"malformed measure file: {exc}") from exc


# `solve` option (argparse dest) -> the SolverConfig field it sets
_SOLVE_FLAGS = {"iters": "max_outer_iters", "batch": "mc_batch_size", "tol": "fw_tolerance",
                "restarts": "inner_restarts", "adam_steps": "adam_steps",
                "correction_steps": "correction_steps"}


def _config_from_args(args) -> SolverConfig:
    """SolverConfig from the `solve` flags; a rejected value is an input error."""
    given = {dest: getattr(args, dest) for dest in _SOLVE_FLAGS
             if getattr(args, dest) is not None}
    try:
        return SolverConfig(seed=args.seed, **{_SOLVE_FLAGS[d]: v for d, v in given.items()})
    except ValueError as exc:
        # SolverConfig's messages read "<field> must be ..."
        field, _, reason = str(exc).partition(" ")
        dest = next(d for d in given if _SOLVE_FLAGS[d] == field)
        flag = "--" + dest.replace("_", "-")
        raise ScenarioError(f"{flag} {reason}, got {given[dest]!r}") from exc


def cmd_solve(args) -> int:
    problem = load_scenario(args.scenario)
    config = _config_from_args(args)
    if args.algo == "fcfw":
        measure, trace = fcfw_solve(problem, config)
    elif args.algo == "dfw":
        measure, trace = dfw_solve(problem, config)
    else:
        measure, trace = l1_solve_on_grid(problem, config)
    out = Path(args.out)
    # everything needed to reproduce the run, next to its outputs
    manifest = {
        "command": "solve",
        "argv": args.raw_argv,
        "scenario": args.scenario,
        "scenario_sha256": hashlib.sha256(Path(args.scenario).read_bytes()).hexdigest(),
        "config": asdict(config),
        "seed": config.seed,
        "out": str(out),
        "version": __version__,
    }
    _write_atomic(out / "measure.json", json.dumps(measure.to_json(), indent=2) + "\n")
    _write_atomic(out / "trace.csv", trace.to_csv_text())
    _write_atomic(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out}/measure.json ({measure.n_atoms} atoms), trace.csv "
          f"({len(trace)} rows), manifest.json")
    return EXIT_OK


def _grid_h_values(kernel: InfluenceKernel, pts: np.ndarray) -> np.ndarray:
    # a named layer of its own for the benchmark's tracer
    return kernel.influence(pts)


def cmd_influence_map(args) -> int:
    if args.resolution < 1:
        raise ScenarioError(f"--resolution must be at least 1, got {args.resolution}")
    problem = load_scenario(args.scenario)
    measure = _load_measure(args.measure)
    check_budget(measure, problem.budget)
    demand = _resolve_demand(problem, SolverConfig(seed=args.seed))
    kernel = InfluenceKernel.of(measure, demand, problem.curve, problem.norm)
    pts = lattice_points(problem.domain, args.resolution, inside_only=False)
    inside = contains_many(problem.domain, pts)
    h = np.full(len(pts), np.nan)
    if inside.any():
        h[inside] = _grid_h_values(kernel, pts[inside])
    # str(float) is repr(float), so every value round-trips exactly; 4,096
    # cells at a time keep few Python floats alive at once
    parts = ["x,y,h\n"]
    for lo in range(0, len(pts), 4096):
        rows = slice(lo, lo + 4096)
        cells = h[rows].astype(object)
        cells[~inside[rows]] = ""
        parts.append("".join(map("{},{},{}\n".format, pts[rows, 0].tolist(),
                                 pts[rows, 1].tolist(), cells.tolist())))
    _write_atomic(Path(args.out), "".join(parts))
    print(f"wrote {args.out} ({int(inside.sum())} in-domain cells of {len(pts)})")
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.grid < 1:
        raise ScenarioError(f"--grid must be at least 1, got {args.grid}")
    if not args.tol >= 0:  # also rejects NaN
        raise ScenarioError(f"--tol must be nonnegative, got {args.tol!r}")
    problem = load_scenario(args.scenario)
    measure = _load_measure(args.measure)
    min_h, argmin = certify(measure, problem, args.grid, SolverConfig(seed=args.seed))
    certified = min_h >= -args.tol
    verdict = f"OPTIMAL({args.tol:g})" if certified else "NOT-OPTIMAL"
    print(f"min_h={min_h!r} argmin=({float(argmin[0])!r}, {float(argmin[1])!r}) "
          f"verdict={verdict}")
    return EXIT_OK if certified else EXIT_NOT_CERTIFIED


def cmd_oracle(args) -> int:
    if args.oracle_cmd == "two-point":
        lam1, lam2 = args.lambda1, args.lambda2
        for flag, lam in (("--lambda1", lam1), ("--lambda2", lam2)):
            if not lam >= 0:  # also rejects NaN
                raise ScenarioError(f"{flag} must be nonnegative, got {lam!r}")
        if abs(lam1 + lam2 - 1.0) > 1e-9:
            raise ScenarioError(f"--lambda1 and --lambda2 must sum to 1, got {lam1!r} + {lam2!r}")
        _check_budget_flag(args.budget)
        mu = two_point_optimum(args.y1, args.y2, lam1, lam2, args.budget)
        print(json.dumps(mu.to_json(), indent=2))
        return EXIT_OK
    if args.reps < 1:
        raise ScenarioError(f"--reps must be at least 1, got {args.reps}")
    problem = load_scenario(args.scenario)
    measure = _load_measure(args.measure)
    check_budget(measure, problem.budget)
    rng = np.random.default_rng(args.seed)
    est, se = simulate_objective(measure, problem.eta, problem.curve, problem.norm,
                                 args.reps, rng)
    print(json.dumps({"estimate": est, "stderr": se, "reps": args.reps}))
    return EXIT_OK


def _check_budget_flag(budget: float) -> None:
    if not 0 < budget < math.inf:  # also rejects NaN
        raise ScenarioError(f"--budget must be positive and finite, got {budget!r}")


def cmd_make_city(args) -> int:
    _check_budget_flag(args.budget)
    doc = make_city(args.units, args.seed, budget=args.budget, norm=args.norm)
    _write_atomic(Path(args.out), json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out} ({args.units} area units)")
    return EXIT_OK


def _seed_arg(text: str) -> int:
    if not (text.isascii() and text.isdigit()):  # numpy takes nonnegative integer seeds
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _point_arg(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    point = [float(parts[0]), float(parts[1])]
    if not all(map(math.isfinite, point)):
        raise argparse.ArgumentTypeError(f"coordinates must be finite, got {text!r}")
    return point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measurefw",
        description="Frank-Wolfe solver for volunteer-measure allocation.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("solve", help="run a solver on a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--algo", choices=["fcfw", "dfw", "l1grid"], default="fcfw")
    p.add_argument("--iters", type=int, default=None, help="outer iterations")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--batch", type=int, default=None, help="sample size for continuous eta")
    p.add_argument("--tol", type=float, default=None, help="stop when |h*| drops below")
    p.add_argument("--restarts", type=int, default=None, help="Adam restarts per iteration")
    p.add_argument("--adam-steps", dest="adam_steps", type=int, default=None)
    p.add_argument("--correction-steps", dest="correction_steps", type=int, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("influence-map", help="evaluate the influence function on a grid")
    p.add_argument("--scenario", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.set_defaults(func=cmd_influence_map)

    p = sub.add_parser("certify", help="check the optimality certificate h >= -tol")
    p.add_argument("--scenario", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--tol", type=float, required=True)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("oracle", help="analytic and simulation oracles")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    q = osub.add_parser("two-point", help="analytic optimum for two demand points")
    q.add_argument("--y1", type=_point_arg, required=True, metavar="X,Y")
    q.add_argument("--y2", type=_point_arg, required=True, metavar="X,Y")
    q.add_argument("--lambda1", type=float, required=True)
    q.add_argument("--lambda2", type=float, required=True)
    q.add_argument("--budget", type=float, required=True)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("simulate", help="Monte-Carlo objective estimate")
    q.add_argument("--scenario", required=True)
    q.add_argument("--measure", required=True)
    q.add_argument("--reps", type=int, required=True)
    q.add_argument("--seed", type=_seed_arg, default=0)
    q.set_defaults(func=cmd_oracle)

    p = sub.add_parser("make-city", help="emit a synthetic city scenario")
    p.add_argument("--units", type=int, required=True)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=float, default=1.0)
    p.add_argument("--norm", choices=["l2", "l1"], default="l2")
    p.set_defaults(func=cmd_make_city)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.raw_argv = argv
    try:
        worker_count()  # a malformed MEASURE_FW_THREADS fails before any work
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
