"""measurefw benchmark: end-to-end times and an outside-in layer trace.

    python3 benchmarks/run.py --workload city --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --smoke

Run from the repository root; the library is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones: set-up time and the median wall time of each operation,
measured untraced in passes over every operation for about `--seconds`
seconds (at least three passes), plus the objective of the returned
measures and peak memory.  With `--trace 1` they
are per-layer counts and times from one traced pass; an untraced solve
after it gives the tracing overhead.

The line before the result records the environment.  Both lines, the span
file of a traced run and the inputs and outputs of the operations are kept
under `.bench_work/` in the working directory.

`--smoke` runs every workload once at minimal length, traced and untraced,
and exits non-zero unless every metric named in `BENCHMARK.json` is emitted
with its unit and no operation failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("MEASURE_FW_THREADS", "OPENBLAS_NUM_THREADS")
# A pass calls every operation of a workload at least once; passes take ~3 s
# (tri) to ~14 s (city).  On a shared 2-vCPU VM the speed of a fixed loop
# moves by ~20% in phases of 10-30 s, so every operation gets at least three
# samples spread over the run, and short ones many more.
MIN_PASSES = 3
# After each pass the workload is set up again for at least this long, so
# that the set-up samples (~1 ms on tri, ~15 ms on city) span the run too.
SETUP_SECONDS_PER_PASS = 0.15


def cap_threads() -> dict:
    """Cap grid and BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    record = {"nproc": nproc, "cap": nproc}
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        try:
            n = int(raw)
        except (TypeError, ValueError):
            n = 0
        if not 0 < n <= nproc:  # unset, auto (0), invalid or above the cap
            os.environ[var] = str(nproc)
        record[var] = {"requested": raw, "effective": int(os.environ[var])}
    return record


if not (SRC / "measurefw" / "__init__.py").is_file():
    sys.exit(f"error: no measurefw sources under {SRC}; run from the repository root")
THREADS = cap_threads()
sys.path.insert(0, str(SRC))
import layers  # noqa: E402  (imports numpy, so only after the thread cap)
import workloads  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402


def environment(threads: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "threads": threads}


class Runner:
    """Runs one call and its check; keeps call times, quality values and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.quality: dict[str, float] = {}

    def run(self, op):
        """Time `op.call`, check its output untimed; returns seconds or None."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = op.call()
            elapsed = time.perf_counter() - t0
            found = op.check(result)
        except Exception as exc:  # a failing operation is counted, the run goes on
            self.failed += 1
            print(f"{op.metric} failed: {exc!r}", file=sys.stderr)
            if not isinstance(exc, workloads.CheckFailed):
                traceback.print_exc()
            return None
        for key, value in found.items():
            if key in self.quality and self.quality[key] != value:
                self.failed += 1
                print(f"{key} changed between calls: {self.quality[key]!r} -> {value!r}",
                      file=sys.stderr)
            self.quality[key] = value
        self.samples.setdefault(op.metric, []).append(elapsed)
        return elapsed


def set_up(name: str, seed: int, work: Path, min_seconds: float = 0.0):
    """Set the workload up at least once and for at least `min_seconds`.

    Returns the last case and the time of every set-up.
    """
    times = []
    while not times or sum(times) < min_seconds:
        t0 = time.perf_counter()
        case = workloads.WORKLOADS[name](seed, work)
        times.append(time.perf_counter() - t0)
    return case, times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(name: str, seed: int, seconds: float, work: Path, runner: Runner,
              min_passes: int = MIN_PASSES) -> dict:
    case, setup_times = set_up(name, seed, work)
    start = time.perf_counter()
    passes = 0
    # another pass only if, at the mean pass time so far, it ends within `seconds`
    while passes < min_passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for op in case.ops:
            for _ in range(op.reps):
                runner.run(op)
        setup_times += set_up(name, seed, work, SETUP_SECONDS_PER_PASS)[1]
        passes += 1
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    for metric, values in runner.samples.items():
        metrics[metric] = (statistics.median(values), "s")
    for key in ("J_final", "dfw_J_final"):
        if key in runner.quality:
            metrics[key] = (runner.quality[key], "probability")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


# (layer, summary field, metric suffix, unit) for the per-layer metrics
LAYER_METRICS = [
    *[(layer, field, suffix, unit)
      for layer in ("response.influence_gradient", "response.influence")
      for field, suffix, unit in (("calls", "calls", "count"), ("points", "points", "count"),
                                  ("work", "entries", "count_computed"), ("s", "s", "s"))],
    *[(layer, field, suffix, unit)
      for layer in ("response.kernel_build", "solver.simplex_build", "geometry.pairwise_distance")
      for field, suffix, unit in (("calls", "calls", "count"),
                                  ("work", "entries", "count_computed"), ("s", "s", "s"))],
    ("solver.adam", "calls", "calls", "count"),
    ("solver.adam", "work", "lane_steps", "count_computed"),
    ("solver.adam", "s", "s", "s"),
    *[(layer, field, field, unit)
      for layer in ("solver.subproblem", "solver.corrective", "geometry.project_many",
                    "solver.simplex_project", "scenario.beta", "scenario.beta_prime")
      for field, unit in (("calls", "count"), ("s", "s"))],
    *[(layer, "s", "s", "s") for layer in ("response.ball_masses", "response.tails",
                                           "cli.grid_eval")],
    *[(layer, "self_s", "self_s", "s") for layer in ("solver.subproblem", "solver.corrective",
                                                     "response.kernel_build")],
]
# layers whose busy time should cover nearly all of a traced city solve
SOLVE_TOP_LAYERS = {"solver.subproblem", "solver.corrective", "response.kernel_build"}


def traced_run(name: str, seed: int, work: Path, runner: Runner, run_id: str) -> dict:
    case = set_up(name, seed, work)[0]
    solve_op = next(op for op in case.ops if op.metric == "solve_s")
    runner.run(solve_op)  # warm-up, so that the traced solve does not start cold

    tracer = layers.Tracer(run_id)
    roots = {}

    def traced(op):
        def call():
            span = tracer.open("op." + op.metric.removesuffix("_s"))
            tracer.active = True
            try:
                return op.call()
            finally:
                tracer.active = False
                tracer.close(span)
                roots[op.metric] = span
        return dataclasses.replace(op, call=call)

    undo, absent = layers.install(tracer)
    try:
        for op in {id(op): op for op in case.ops}.values():  # each operation once
            runner.run(traced(op))
    finally:
        undo()
    untraced_solve = runner.run(solve_op)
    for layer in absent:
        print(f"absent layer: {layer} (not found; its metrics are left out)")

    children = layers.children_of(tracer.spans)
    summary = layers.summarize(tracer.spans, children)
    layers.write_spans(tracer.spans, run_id, work / "spans.csv")
    (work / "layers.json").write_text(json.dumps({"run": run_id, "absent": absent, **summary},
                                                 indent=1) + "\n")
    stats, derived = summary["layers"], summary["derived"]
    metrics = {f"{layer}.{suffix}": (stats.get(layer, {}).get(field, 0), unit)
               for layer, field, suffix, unit in LAYER_METRICS if layer not in absent}
    if not {"solver.adam", "solver.subproblem"} & set(absent):
        metrics["solver.adam.win_ratio"] = (
            derived["adam_wins"] / max(derived["subproblems"], 1), "ratio")
    pgd_layers = {"solver.corrective", "solver.simplex_value", "solver.simplex_value_and_grad"}
    if not pgd_layers & set(absent):
        metrics["solver.corrective.grad_evals"] = (derived["pgd_grad_evals"], "count")
        metrics["solver.corrective.value_evals"] = (derived["pgd_value_evals"], "count")
        metrics["solver.corrective.accept_ratio"] = (
            derived["pgd_accepted"] / max(derived["pgd_trials"], 1), "ratio")
    metrics["solver.outer.iters"] = (runner.quality.get("outer_iters", 0), "count")

    solve = roots["solve_s"]
    traced_solve = solve.t1 - solve.t0
    metrics["trace.solve_s"] = (traced_solve, "s")
    if untraced_solve is not None:
        metrics["trace.overhead_s"] = (traced_solve - untraced_solve, "s")
    if not SOLVE_TOP_LAYERS & set(absent):
        metrics["trace.solve_top_layer_share"] = (
            layers.subtree_time(children, solve, SOLVE_TOP_LAYERS) / traced_solve, "ratio")
    if "cli.grid_eval" not in absent:
        mapped = roots["map_s"]
        grid_eval = layers.subtree_time(children, mapped, {"cli.grid_eval"})
        metrics["cli.map_write.s"] = (mapped.t1 - mapped.t0 - grid_eval, "s")
    if "map_grid" in case.last:
        metrics["cli.grid_eval.thread_mismatch_cells"] = (
            workloads.map_mismatch_cells(case.last["map_kernel"], case.last["map_grid"]),
            "count")
    return metrics


def warm_allocator() -> None:
    """Free one 16 MB block, so that glibc's malloc raises its mmap threshold now.

    Until the first such free, arrays between 128 KB and 32 MB are mmapped
    and page-faulted afresh on every call; that made the first pass of some
    operations ~30% slower than later ones (`dfw_s` on `l1grid`), and so
    made medians depend on how many passes fit in a run.
    """
    np.ones(2 << 20).sum()


def run(name: str, seed: int, seconds: float, trace: bool, env: dict,
        min_passes: int = MIN_PASSES) -> dict:
    run_id = f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    work = WORK / f"{name}-s{seed}-t{int(trace)}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner()
    warm_allocator()
    if trace:
        metrics = traced_run(name, seed, work, runner, run_id)
    else:
        metrics = timed_run(name, seed, seconds, work, runner, min_passes)
    (work / "map.csv").unlink(missing_ok=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"run": run_id, "env": env, "quality": runner.quality,
                    "samples": runner.samples, **result},
                   indent=1) + "\n")
    return result


def smoke(env: dict) -> int:
    """Every workload once, untraced and traced; checks metric names, units, failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run(workload["name"], 1, 0.0, trace, env, min_passes=1)
            where = f"{workload['name']} trace={int(trace)}"
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: {result['failed']} failed operations")
            got = result["metrics"]
            for m in wanted:
                if m["name"] not in got:
                    problems.append(f"{where}: missing {m['name']}")
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} in {got[m['name']]['unit']}, "
                                    f"expected {m['unit']}")
            print(f"smoke {where}: {len(got)} metrics, {result['attempted']} operations")
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    env = environment(THREADS)
    if args.smoke:
        return smoke(env)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), env)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
