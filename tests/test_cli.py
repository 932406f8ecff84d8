import json
from pathlib import Path

import numpy as np
import pytest

from measurefw import (
    DeathCurve,
    DiscreteMeasure,
    SolverConfig,
    ScenarioError,
    SolveTrace,
    certify,
    load_scenario,
    two_point_optimum,
)
from measurefw.cli import main
from measurefw.geometry import contains_many
from measurefw.response import _THREAD_MIN_ELEMS, InfluenceKernel
from measurefw.solver import lattice_points

CURVE = DeathCurve()

SQRT3 = 3.0**0.5

THREE_POINT = {
    "budget": 1.0,
    "norm": "l2",
    "eta": {
        "type": "discrete",
        "points": [[0, 0], [1, 0], [0.5, SQRT3 / 2]],
        "probs": [1 / 3, 1 / 3, 1 / 3],
    },
}

TWO_POINT = {
    "budget": 1.0,
    "norm": "l2",
    "eta": {"type": "discrete", "points": [[0, 0], [1, 0]], "probs": [0.5, 0.5]},
}


@pytest.fixture
def three_point_file(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE_POINT))
    return str(path)


@pytest.fixture
def two_point_file(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(json.dumps(TWO_POINT))
    return str(path)


FAST_FLAGS = ["--restarts", "3", "--adam-steps", "30", "--correction-steps", "25"]


def test_solve_writes_outputs(three_point_file, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", "--scenario", three_point_file, "--algo", "fcfw",
               "--iters", "40", "--seed", "1", "--out", str(out), *FAST_FLAGS])
    assert rc == 0
    trace = SolveTrace.read_csv(out / "trace.csv")
    assert len(trace) == 40
    js = trace.j_values()
    assert np.all(np.diff(js) <= 1e-12)
    measure = DiscreteMeasure.from_json(json.loads((out / "measure.json").read_text()))
    assert measure.budget == 1.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["seed"] == 1
    assert manifest["scenario_sha256"]


def test_solve_rerun_reproduces_trace(three_point_file, tmp_path):
    args = ["solve", "--scenario", three_point_file, "--algo", "dfw",
            "--iters", "15", "--seed", "3", *FAST_FLAGS]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    t1 = SolveTrace.read_csv(out1 / "trace.csv")
    t2 = SolveTrace.read_csv(out2 / "trace.csv")
    assert np.array_equal(t1.j_values(), t2.j_values())
    assert np.array_equal(t1.h_values(), t2.h_values())


def test_solve_missing_scenario_exits_2(tmp_path, capsys):
    rc = main(["solve", "--scenario", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_solve_l1grid_on_continuous_eta_exits_3(tmp_path):
    doc = {"budget": 1.0, "norm": "l1",
           "eta": {"type": "uniform_rect", "rect": [0, 0, 1, 1]}}
    path = tmp_path / "cont.json"
    path.write_text(json.dumps(doc))
    rc = main(["solve", "--scenario", str(path), "--algo", "l1grid",
               "--out", str(tmp_path / "o")])
    assert rc == 3


def test_l1grid_solve_atoms_on_grid(tmp_path):
    doc = dict(THREE_POINT, norm="l1")
    path = tmp_path / "l1.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    rc = main(["solve", "--scenario", str(path), "--algo", "l1grid",
               "--iters", "40", "--out", str(out), *FAST_FLAGS])
    assert rc == 0
    measure = DiscreteMeasure.from_json(json.loads((out / "measure.json").read_text()))
    xs = {0.0, 0.5, 1.0}
    ys = {0.0, SQRT3 / 2}
    for x, y in measure.points:
        assert any(abs(x - v) < 1e-12 for v in xs)
        assert any(abs(y - v) < 1e-12 for v in ys)


def _write_measure(path, mu):
    Path(path).write_text(json.dumps(mu.to_json()))


def test_influence_map(two_point_file, tmp_path, capsys):
    mu = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0)
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, mu)
    out = tmp_path / "map.csv"
    rc = main(["influence-map", "--scenario", two_point_file, "--measure", str(mfile),
               "--resolution", "41", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,y,h"
    assert len(lines) == 1 + 41 * 41
    vals = [float(l.split(",")[2]) for l in lines[1:] if l.split(",")[2]]
    assert min(vals) >= -1e-6  # optimal measure: h >= 0 everywhere
    # determinism: re-run produces identical bytes
    out2 = tmp_path / "map2.csv"
    main(["influence-map", "--scenario", two_point_file, "--measure", str(mfile),
          "--resolution", "41", "--out", str(out2)])
    assert out.read_text() == out2.read_text()


def test_influence_map_marks_out_of_domain_cells(three_point_file, tmp_path):
    # the triangle's bounding box has corners outside the hull
    uni = DiscreteMeasure([[0, 0], [1, 0], [0.5, SQRT3 / 2]], [1 / 3] * 3, 1.0)
    mfile = tmp_path / "uni.json"
    _write_measure(mfile, uni)
    out = tmp_path / "tri.csv"
    rc = main(["influence-map", "--scenario", three_point_file, "--measure", str(mfile),
               "--resolution", "21", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()[1:]
    n_empty = sum(1 for l in lines if l.endswith(","))
    assert 0 < n_empty < len(lines)


def test_influence_map_csv_matches_per_cell_repr(three_point_file, tmp_path):
    # 4,900 cells: more than one formatting chunk, on both sides of the domain edge
    mu = DiscreteMeasure([[0.1, 0.1], [0.8, 0.2], [0.5, 0.6]], [0.2, 0.3, 0.5], 1.0)
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, mu)
    out = tmp_path / "map.csv"
    rc = main(["influence-map", "--scenario", three_point_file, "--measure", str(mfile),
               "--resolution", "70", "--out", str(out)])
    assert rc == 0
    problem = load_scenario(three_point_file)
    pts = lattice_points(problem.domain, 70)
    inside = contains_many(problem.domain, pts)
    assert 0 < inside.sum() < len(pts)
    h = InfluenceKernel.of(mu, problem.eta, CURVE, "l2").influence(pts[inside])
    lines, vals = ["x,y,h"], iter(h)
    for (x, y), ok in zip(pts, inside):
        cell = f"{float(x)!r},{float(y)!r},"
        lines.append(cell + repr(float(next(vals))) if ok else cell)
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_invalid_numeric_arguments_exit_2(two_point_file, tmp_path, capsys):
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0))
    common = ["--scenario", two_point_file, "--measure", str(mfile)]
    for resolution in ("0", "-2"):
        out = tmp_path / f"map{resolution}.csv"
        rc = main(["influence-map", *common, "--resolution", resolution, "--out", str(out)])
        assert rc == 2
        assert "--resolution" in capsys.readouterr().err
        assert not out.exists()
    for flag, grid, tol in (("--tol", "20", "-1"), ("--tol", "20", "nan"),
                            ("--grid", "0", "1e-3")):
        rc = main(["certify", *common, "--grid", grid, "--tol", tol])
        assert rc == 2
        assert flag in capsys.readouterr().err
    for flag, value in (("--iters", "0"), ("--batch", "0"), ("--restarts", "0"),
                        ("--tol", "-1"), ("--tol", "nan")):
        out = tmp_path / f"solve{flag}{value}"
        rc = main(["solve", "--scenario", two_point_file, "--out", str(out), flag, value])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_influence_map_single_cell(two_point_file, tmp_path):
    mu = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0)
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, mu)
    out = tmp_path / "one.csv"
    rc = main(["influence-map", "--scenario", two_point_file, "--measure", str(mfile),
               "--resolution", "1", "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 2


def test_influence_map_thread_count_invariance(tmp_path, monkeypatch):
    # 60 x 60 demand grid on the unit square: the kernel's blocks hold 16
    # points, so the 2,304 in-domain cells span 144 blocks
    side = np.linspace(0.0, 1.0, 60)
    gx, gy = np.meshgrid(side, side)
    demand = np.column_stack([gx.ravel(), gy.ravel()])
    probs = np.full(len(demand), 1.0 / len(demand))
    scenario = tmp_path / "grid.json"
    scenario.write_text(json.dumps({"budget": 2.0, "norm": "l2", "eta": {
        "type": "discrete", "points": demand.tolist(), "probs": probs.tolist()}}))
    mu = DiscreteMeasure([[0.2, 0.3], [0.7, 0.6], [0.4, 0.9]], [0.5, 1.0, 0.5], 2.0)
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, mu)
    kernel = InfluenceKernel(mu.points, mu.weights, demand, probs, CURVE, "l2", budget=2.0)
    resolution = 48
    assert resolution**2 > 2048 and resolution**2 > 2 * kernel.block
    outputs = []
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("MEASURE_FW_THREADS", workers)
        out = tmp_path / f"map_{workers}.csv"
        rc = main(["influence-map", "--scenario", str(scenario), "--measure",
                   str(mfile), "--resolution", str(resolution), "--out", str(out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    assert all(o.count(b"\n") == 1 + resolution**2 for o in outputs)
    assert outputs[0] == outputs[1] == outputs[2]


def _grid_certify_case(tmp_path):
    """A 20 x 20 demand grid whose certify lattice at --grid 20 is a threaded sweep."""
    side = np.linspace(0.0, 1.0, 20)
    gx, gy = np.meshgrid(side, side)
    demand = np.column_stack([gx.ravel(), gy.ravel()])
    scenario = tmp_path / "grid20.json"
    scenario.write_text(json.dumps({"budget": 2.0, "norm": "l2", "eta": {
        "type": "discrete", "points": demand.tolist(),
        "probs": np.full(len(demand), 1.0 / len(demand)).tolist()}}))
    mu = DiscreteMeasure([[0.2, 0.3], [0.7, 0.6], [0.4, 0.9]], [0.5, 1.0, 0.5], 2.0)
    mfile = tmp_path / "grid20_mu.json"
    _write_measure(mfile, mu)
    # the lattice, then the pool: the atoms and the demand points
    assert len(demand) * (20 * 20 + 3 + len(demand)) >= _THREAD_MIN_ELEMS
    argv = ["certify", "--scenario", str(scenario), "--measure", str(mfile),
            "--grid", "20", "--tol", "1e-3", "--seed", "3"]
    return load_scenario(str(scenario)), mu, argv


def test_certify_thread_count_invariance(tmp_path, monkeypatch, capsys):
    problem, mu, argv = _grid_certify_case(tmp_path)
    results, runs = [], []
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("MEASURE_FW_THREADS", workers)
        min_h, argmin = certify(mu, problem, 20, SolverConfig(seed=3))
        results.append((min_h, argmin.tobytes()))
        rc = main(argv)
        runs.append((rc, capsys.readouterr().out))
    assert results[0] == results[1] == results[2]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1].startswith(f"min_h={results[0][0]!r} ")


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
def test_malformed_thread_cap_exits_2_from_certify(raw, tmp_path, monkeypatch, capsys,
                                                    two_point_file):
    problem, mu, argv = _grid_certify_case(tmp_path)
    mfile = tmp_path / "two_mu.json"
    _write_measure(mfile, two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0))
    small = ["certify", "--scenario", two_point_file, "--measure", str(mfile),
             "--grid", "5", "--tol", "1e-3"]
    monkeypatch.setenv("MEASURE_FW_THREADS", raw)
    with pytest.raises(ScenarioError, match="MEASURE_FW_THREADS"):
        certify(mu, problem, 20, SolverConfig(seed=3))
    for cmd in (argv, small):
        assert main(cmd) == 2
        captured = capsys.readouterr()
        assert "MEASURE_FW_THREADS" in captured.err
        assert captured.out == ""


def test_nonfinite_query_points_exit_3(tmp_path):
    # the bounding box of these demand points is wider than the largest
    # float, so the certify and map lattices hold non-finite points
    doc = {"budget": 1.0, "norm": "l2", "eta": {
        "type": "discrete", "points": [[-1e308, 0], [1e308, 0], [0, 1e308]],
        "probs": [0.25, 0.25, 0.5]}}
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(doc))
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, DiscreteMeasure([[0.0, 0.0]], [1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["certify", "--scenario", str(scenario), "--measure", str(mfile),
                   "--grid", "5", "--tol", "1e-3"])
        assert rc == 3
        rc = main(["influence-map", "--scenario", str(scenario), "--measure", str(mfile),
                   "--resolution", "5", "--out", str(tmp_path / "map.csv")])
        assert rc == 3


def test_influence_map_budget_mismatch_exits_3(two_point_file, tmp_path):
    mu = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 2.0)  # wrong budget
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, mu)
    rc = main(["influence-map", "--scenario", two_point_file, "--measure", str(mfile),
               "--resolution", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_certify_exit_codes(two_point_file, three_point_file, tmp_path, capsys):
    mu = two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0)
    mfile = tmp_path / "opt.json"
    _write_measure(mfile, mu)
    rc = main(["certify", "--scenario", two_point_file, "--measure", str(mfile),
               "--grid", "80", "--tol", "1e-5"])
    assert rc == 0
    assert "OPTIMAL" in capsys.readouterr().out
    # uniform vertex measure on the triangle fails certification at 1e-3
    uni = DiscreteMeasure([[0, 0], [1, 0], [0.5, SQRT3 / 2]], [1 / 3] * 3, 1.0)
    ufile = tmp_path / "uni.json"
    _write_measure(ufile, uni)
    rc = main(["certify", "--scenario", three_point_file, "--measure", str(ufile),
               "--grid", "60", "--tol", "1e-3"])
    assert rc == 4
    assert "NOT-OPTIMAL" in capsys.readouterr().out
    # an absurdly loose tolerance always certifies
    rc = main(["certify", "--scenario", three_point_file, "--measure", str(ufile),
               "--grid", "60", "--tol", "1e9"])
    assert rc == 0


def test_oracle_two_point(capsys):
    rc = main(["oracle", "two-point", "--y1", "0,0", "--y2", "1,0",
               "--lambda1", "0.5", "--lambda2", "0.5", "--budget", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(a["w"] for a in doc["atoms"]) == [0.5, 0.5]
    rc = main(["oracle", "two-point", "--y1", "0,0", "--y2", "1,0",
               "--lambda1", "1.0", "--lambda2", "0.0", "--budget", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["atoms"]) == 1 and doc["atoms"][0]["w"] == 1.0
    rc = main(["oracle", "two-point", "--y1", "0,0", "--y2", "1,0",
               "--lambda1", "0.9", "--lambda2", "0.3", "--budget", "1"])
    assert rc == 2


def test_oracle_simulate(tmp_path, capsys):
    doc = {"budget": 1.0, "eta": {"type": "discrete", "points": [[0.2, 0.4]], "probs": [1.0]}}
    sfile = tmp_path / "one.json"
    sfile.write_text(json.dumps(doc))
    mu = DiscreteMeasure([[0.2, 0.4]], [1.0])
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, mu)
    rc = main(["oracle", "simulate", "--scenario", str(sfile), "--measure", str(mfile),
               "--reps", "200000", "--seed", "0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["estimate"] - 0.1237857404055591) <= 3 * out["stderr"]


def test_make_city(tmp_path, capsys):
    out = tmp_path / "city.json"
    rc = main(["make-city", "--units", "287", "--seed", "4", "--out", str(out)])
    assert rc == 0
    prob = load_scenario(str(out))
    assert len(prob.eta.rects) == 287
    assert prob.eta.probs.sum() == pytest.approx(1.0, abs=1e-12)
    out2 = tmp_path / "city2.json"
    main(["make-city", "--units", "287", "--seed", "4", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()  # same seed, identical file
    single = tmp_path / "single.json"
    main(["make-city", "--units", "1", "--seed", "0", "--out", str(single)])
    assert len(load_scenario(str(single)).eta.rects) == 1
    rc = main(["make-city", "--units", "0", "--seed", "0", "--out", str(tmp_path / "z.json")])
    assert rc == 2


def test_outputs_round_trip_through_readers(three_point_file, tmp_path):
    out = tmp_path / "run"
    main(["solve", "--scenario", three_point_file, "--iters", "10",
          "--seed", "0", "--out", str(out), *FAST_FLAGS])
    DiscreteMeasure.from_json(json.loads((out / "measure.json").read_text()))
    SolveTrace.read_csv(out / "trace.csv")
    json.loads((out / "manifest.json").read_text())


def _exit_code(argv):
    """main's return value, or the exit status argparse raised for a bad flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_oracle_and_make_city_reject_bad_flags(tmp_path, capsys):
    two_point = ["oracle", "two-point", "--y1", "0,0", "--y2", "1,0", "--lambda1", "0.5",
                 "--lambda2", "0.5", "--budget", "1"]
    for flag, value in (("--lambda1", "nan"), ("--lambda2", "nan"), ("--lambda1", "-0.5"),
                        ("--budget", "nan"), ("--budget", "0"), ("--budget", "inf"),
                        ("--y2", "nan,0"), ("--y1", "0,inf")):
        argv = list(two_point)
        argv[argv.index(flag) + 1] = value
        assert _exit_code(argv) == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
    sfile = tmp_path / "one.json"
    sfile.write_text(json.dumps({"budget": 1.0, "eta": {"type": "discrete",
                                                        "points": [[0.2, 0.4]], "probs": [1.0]}}))
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, DiscreteMeasure([[0.2, 0.4]], [1.0]))
    for reps in ("0", "-3"):
        assert main(["oracle", "simulate", "--scenario", str(sfile), "--measure", str(mfile),
                     "--reps", reps]) == 2
        captured = capsys.readouterr()
        assert "--reps" in captured.err and captured.out == ""
    for budget in ("nan", "-1", "0", "inf"):
        out = tmp_path / f"city{budget}.json"
        assert main(["make-city", "--units", "4", "--out", str(out), "--budget", budget]) == 2
        assert "--budget" in capsys.readouterr().err
        assert not out.exists()


def test_bad_seed_exits_2_from_every_command(two_point_file, tmp_path, capsys):
    mfile = tmp_path / "mu.json"
    _write_measure(mfile, two_point_optimum([0, 0], [1, 0], 0.5, 0.5, 1.0))
    common = ["--scenario", two_point_file, "--measure", str(mfile)]
    out = tmp_path / "out"
    commands = (["make-city", "--units", "4", "--out", str(out)],
                ["solve", "--scenario", two_point_file, "--iters", "2", "--out", str(out)],
                ["certify", *common, "--grid", "10", "--tol", "1e-3"],
                ["influence-map", *common, "--resolution", "4", "--out", str(out)],
                ["oracle", "simulate", *common, "--reps", "10"])
    for argv in commands:
        for seed in ("-1", "1.5", "x"):
            assert _exit_code([*argv, "--seed", seed]) == 2, (argv[0], seed)
            captured = capsys.readouterr()
            assert "--seed" in captured.err and captured.out == ""
            assert not out.exists()


def test_worker_count_follows_affinity_mask(monkeypatch):
    import os

    from measurefw.cli import worker_count

    monkeypatch.delenv("MEASURE_FW_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert worker_count() == 3
    monkeypatch.setenv("MEASURE_FW_THREADS", "0")
    assert worker_count() == 3
    monkeypatch.setenv("MEASURE_FW_THREADS", "7")
    assert worker_count() == 7
    monkeypatch.setenv("MEASURE_FW_THREADS", "0")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert worker_count() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count() == 1
