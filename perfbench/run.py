"""Replicate throughput of pslab on four Monte Carlo workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one pslab command (`clt` or `tails`) on a config generated
from --seed, run in-process through `pslab.cli.main` with one thread. A run
repeats that command in whole rounds until --seconds have passed, then checks
every round's outputs (outside the timed part) and prints one JSON object as
its last line. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it wraps pslab's public functions (see tracer.py) and reports the
per-layer ones. `--workload all` runs every workload in this one process.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
TRACES = os.path.join(HERE, "traces")
SETUP_SPAWNS = 3


def _import_pslab():
    """Import pslab from this checkout's src/, and nowhere else. The modules
    that import pslab themselves (checks, tracer) are imported after this."""
    sys.path.insert(0, SRC)
    try:
        import pslab.cli  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import pslab from {SRC}: {exc}\n")
        raise SystemExit(2)
    if not os.path.abspath(sys.modules["pslab"].__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: pslab was imported from outside {SRC}\n")
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

UNIT_DENSITY = {"kind": "constant", "d": 2}


def _clt(process, kind, q, pairs, r_max, n, replicates, seed):
    return {"process": process, "density": UNIT_DENSITY, "kind": kind, "q": q, "pairs": pairs,
            "n_grid": [n], "replicates": replicates, "r_max": r_max, "q_max": q + 1, "seed": seed}


def _tails(lambda_grid, reps, seed):
    # criterion 9's grid: r = 0.5, q in {0, 1}, L up to 4, window 5, Rips
    return {"lambda_grid": lambda_grid, "r_grid": [0.5], "q_list": [0, 1],
            "L_grid": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], "reps": reps, "window": 5.0,
            "kind": "rips", "d": 2, "seed": seed}


# name -> (pslab command, config of one timed round, config of the untimed warm-up round)
WORKLOADS = {
    "clt-rips-percolated": (
        "clt",
        lambda seed: _clt("poisson", "rips", 1, [[0.8, 1.0], [1.5, 2.0]], 2.0, 1000, 50, seed),
        lambda seed: _clt("poisson", "rips", 1, [[0.8, 1.0], [1.5, 2.0]], 2.0, 50, 50, seed),
    ),
    "clt-cech-binomial": (
        "clt",
        lambda seed: _clt("binomial", "cech", 1, [[0.5, 0.7]], 0.7, 1000, 50, seed),
        lambda seed: _clt("binomial", "cech", 1, [[0.5, 0.7]], 0.7, 50, 50, seed),
    ),
    "radius-tails": (
        "tails",
        lambda seed: _tails([0.25, 0.5, 1.0, 2.0, 4.0], 30, seed),
        lambda seed: _tails([0.25], 2, seed),
    ),
    "clt-binomial-vertices": (
        "clt",
        lambda seed: _clt("binomial", "rips", 0, [[0.0, 0.0]], 0.0, 1000, 200, seed),
        lambda seed: _clt("binomial", "rips", 0, [[0.0, 0.0]], 0.0, 50, 50, seed),
    ),
}


def replicates_per_round(command: str, cfg: dict) -> int:
    """Clouds one command processes: CLT replicates, or tail clouds (each with
    its weak radius and its strong estimates)."""
    if command == "clt":
        return len(cfg["n_grid"]) * cfg["replicates"]
    return len(cfg["lambda_grid"]) * len(cfg["r_grid"]) * cfg["reps"]


# ---------------------------------------------------------------------------
# Checks, outside the timed part
# ---------------------------------------------------------------------------


def verify(name: str, cfg: dict, round_dirs: list[str], seed: int):
    """Raise checks.CheckError unless every round's outputs are correct."""
    import numpy as np

    import checks
    from pslab.filtration import build
    from pslab.persistence import reduce

    hashes = [checks.check_manifest(out) for out in round_dirs]
    for out, listed in zip(round_dirs, hashes):
        # every round runs the same config, so it must write the same bytes
        if listed != hashes[0]:
            raise checks.CheckError(f"{out}: outputs differ from those of {round_dirs[0]}")
    rng = np.random.default_rng(seed)
    out = round_dirs[0]
    if name == "radius-tails":
        checks.check_tails(checks.read_tails(out), cfg)
        r, w = float(cfg["r_grid"][0]), float(cfg["window"])
        for cell in range(len(cfg["lambda_grid"])):
            P = checks.tails_cloud(cfg, cell, int(rng.integers(cfg["reps"])))
            res = checks.radius_replicate(P, r, w, cfg["kind"], cfg["q_list"])
            checks.check_trace_end(P, res["trace"], r, w, cfg["kind"], cfg["q_list"])
            checks.check_weak_below_strong(res["weak"], res["strong"])
        return
    betas = checks.read_replicates(out)
    checks.check_replicate_count(betas, cfg)
    if name == "clt-binomial-vertices":
        checks.check_vertex_betas(betas)
        return
    rep = int(rng.integers(cfg["replicates"]))
    P = checks.replicate_cloud(cfg, 0, rep)
    C = build(P, cfg["kind"], float(cfg["r_max"]), int(cfg["q_max"]))
    D = reduce(C)
    checks.check_replicate_betas(betas, cfg, 0, rep, D)
    if name == "clt-rips-percolated":
        checks.check_components(P, D, "rips", (0.5, 1.0, 1.2, 1.5, 2.0))
        checks.check_sub_windows(P, cfg, side=8.0, count=2, rng=rng)
    else:
        checks.check_cech_times(C, P.points, float(cfg["r_max"]))
        checks.check_sub_windows(P, cfg, side=10.0, count=2, rng=rng)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import pslab's CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pslab.cli"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _write_config(path: str, cfg: dict) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def layer_metrics(tracer, replicates: int, rate: float, output_bytes: int) -> dict:
    total, own = tracer.times()
    c = tracer.counts
    per = {
        "point_process.busy_s": total["point_process.sample"],
        "point_process.points": c["points"],
        "filtration.busy_s": total["filtration.build"],
        "filtration.cells": c["cells"],
        "filtration.cells_q1": c["cells_q1"],
        "filtration.cells_q2": c["cells_q2"],
        "persistence.masks_s": total["persistence.masks"],
        "persistence.reduce_self_s": own["persistence.reduce"],
        "persistence.columns": c["columns"],
        "persistence.zero_columns": c["zero_columns"],
        "persistence.query_s": total["persistence.query"],
        "stabilization.weak_s": total["stabilization.weak"],
        "stabilization.strong_s": total["stabilization.strong"],
        "stabilization.self_s": own["stabilization.weak"] + own["stabilization.strong"],
        "stabilization.probes": c["probes"],
        "stabilization.censored": c["censored"],
        "experiments.self_s": own["experiments.run_clt"] + own["experiments.radius_tail_experiment"],
        "experiments.scores_s": total["experiments.scores"],
        "cli.self_s": own["cli"],
        "cli.output_bytes": output_bytes,
    }
    metrics = {}
    for name, value in per.items():
        unit = "s/rep" if name.endswith("_s") else "count/rep"
        metrics[name] = {"value": value / replicates, "unit": unit}
    build_s = total["filtration.build"]
    metrics["filtration.cells_per_s"] = {"value": c["cells"] / build_s if build_s else 0.0, "unit": "1/s"}
    metrics["traced.replicates_per_s"] = {"value": rate, "unit": "1/s"}
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import pslab.cli

    from checks import CheckError
    from tracer import Tracer

    command, make_cfg, make_warmup = WORKLOADS[name]
    cfg = make_cfg(seed)
    per_round = replicates_per_round(command, cfg)
    work = os.path.join(RESULTS, "work", f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)

    def argv_for(config: dict, label: str) -> list[str]:
        path = _write_config(os.path.join(work, label + ".json"), config)
        return [command, "--config", path, "--out", os.path.join(work, label), "--threads", "1"]

    # pays the first-call costs (lazy imports, allocator growth) once, untimed
    if pslab.cli.main(argv_for(make_warmup(seed), "warmup")) != 0:
        raise SystemExit(f"perfbench: warm-up of {name} failed")

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    round_dirs, walls, cpus, codes = [], [], [], []
    start = time.perf_counter()
    # whole rounds only, and none that would run past the budget: a run ends
    # within about --seconds whatever the round length
    while not walls or time.perf_counter() - start + max(walls) <= seconds:
        label = f"round{len(walls)}"
        argv = argv_for(cfg, label)
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        code = tracer.call("cli", pslab.cli.main, argv) if tracer else pslab.cli.main(argv)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        codes.append(code)
        round_dirs.append(os.path.join(work, label))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stderr.write(f"perfbench: {name} seed {seed}: {per_round} replicates per round, wall "
                     f"{[round(t, 3) for t in walls]} s, cpu {[round(t, 3) for t in cpus]} s\n")
    if tracer:
        tracer.uninstall()

    attempted = per_round * len(walls)
    failed = per_round * sum(1 for code in codes if code != 0)
    done = attempted - failed
    # the median round resists the bursts of a shared machine
    rate = statistics.median(per_round / w for w, code in zip(walls, codes) if code == 0) if done else 0.0
    ok_dirs = [d for d, code in zip(round_dirs, codes) if code == 0]
    correct = True
    try:
        if ok_dirs:
            verify(name, cfg, ok_dirs, seed)
    except CheckError as exc:
        sys.stderr.write(f"perfbench: {name} seed {seed}: check failed: {exc}\n")
        correct = False

    if tracer:
        os.makedirs(TRACES, exist_ok=True)
        tracer.write(os.path.join(TRACES, f"{name}-seed{seed}.json"))
        output_bytes = sum(_dir_bytes(d) for d in ok_dirs)
        metrics = layer_metrics(tracer, max(done, 1), rate, output_bytes)
    else:
        metrics = {
            "replicates_per_s": {"value": rate, "unit": "1/s"},
            "setup_s": {"value": setup_seconds(), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_pslab()
    sys.path.insert(0, HERE)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}), flush=True)
    if len(names) == 1:
        result = results[names[0]]
    else:
        # peak_rss_mb of a workload here is the process's high-water mark so far
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
