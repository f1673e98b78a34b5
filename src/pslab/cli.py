"""Command-line entry points.

Subcommands: sample, complex, persist, radius, alpha, clt, tails, report.
Every command reads a JSON config (--config), honours --seed/--out
overrides, writes its outputs plus a manifest with content hashes, and exits
0 on success, 2 on config errors, 3 on numerical/censoring aborts, 64 on
usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .experiments import (
    CensoringError,
    CltConfig,
    NumericalError,
    covariance_csv,
    estimate_alpha,
    radius_tail_experiment,
    replicates_csv,
    run_clt,
    scores_csv,
)
from .filtration import build
from .persistence import RankQuery, reduce
from .plots import emit_plots
from .point_process import (
    DomainError,
    PointCloud,
    RngSeed,
    cloud_from_csv,
    csv_text,
    density_from_json,
    sample_binomial,
    sample_poisson_homogeneous,
    sample_poisson_inhomogeneous,
    window_from_json,
)
from .stabilization import run_radius_jobs, radius_rows_to_csv

COMMANDS = ("sample", "complex", "persist", "radius", "alpha", "clt", "tails", "report")
USAGE = (
    "usage: pslab <command> [--config PATH] [--seed N] [--out DIR]\n"
    f"commands: {', '.join(COMMANDS)}\n"
)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def write_manifest(out_dir: str, command: str, config: dict, seed: int, started: str, ended: str):
    inventory = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            inventory[name] = _sha256(path)
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "started": started,
        "ended": ended,
        "outputs": inventory,
    }
    _write(out_dir, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_cloud(cfg: dict) -> PointCloud:
    window = window_from_json(cfg["window"])
    if "cloud_csv" in cfg:
        with open(cfg["cloud_csv"]) as fh:
            return cloud_from_csv(fh.read(), window)
    return PointCloud(np.asarray(cfg["points"], dtype=float), window)


def _cmd_sample(cfg: dict, seed: RngSeed, out: str):
    process = cfg["process"]
    if process == "poisson_homogeneous":
        window = window_from_json(cfg["window"])
        cloud = sample_poisson_homogeneous(float(cfg["lambda"]), window, seed)
        density = None
    else:
        density = cfg["density"]
        dens = density_from_json(density)
        if process == "poisson":
            cloud = sample_poisson_inhomogeneous(dens, float(cfg["n"]), seed)
        elif process == "binomial":
            cloud = sample_binomial(int(cfg["n"]), dens, seed)
        else:
            raise DomainError(f"unknown process {process!r}")
    _write(out, "cloud.csv", cloud.to_csv())
    _write(out, "cloud.json", cloud.to_json_envelope(seed, density))


def _cmd_complex(cfg: dict, seed: RngSeed, out: str):
    cloud = _load_cloud(cfg)
    C = build(cloud, cfg.get("kind", "rips"), float(cfg["r_max"]), int(cfg["q_max"]))
    _write(out, "complex.txt", C.to_text())


def _cmd_persist(cfg: dict, seed: RngSeed, out: str):
    cloud = _load_cloud(cfg)
    C = build(cloud, cfg.get("kind", "rips"), float(cfg["r_max"]), int(cfg["q_max"]))
    D = reduce(C)
    _write(out, "diagram.csv", D.to_csv())
    if "queries" in cfg:
        queries = [RankQuery(int(q), float(r), float(s)) for q, r, s in cfg["queries"]]
        rows = ((qr.q, qr.r, qr.s, D.persistent_betti(qr)) for qr in queries)
        _write(out, "queries.csv", csv_text(["q", "r", "s", "betti"], rows))


def _cmd_radius(cfg: dict, seed: RngSeed, out: str):
    jobs = cfg["jobs"]
    for i, job in enumerate(jobs):
        job.setdefault("seed", seed.seed)
        job.setdefault("stream", i)
    _write(out, "radius.csv", radius_rows_to_csv(run_radius_jobs(jobs)))


def _cmd_alpha(cfg: dict, seed: RngSeed, out: str):
    est = estimate_alpha(
        float(cfg["r"]),
        float(cfg["s"]),
        int(cfg["q"]),
        density_from_json(cfg["density"]),
        float(cfg["window_radius"]),
        int(cfg["reps"]),
        seed,
        kind=cfg.get("kind", "rips"),
    )
    _write(out, "alpha.json", json.dumps(dataclasses.asdict(est), indent=2, sort_keys=True) + "\n")


def _cmd_clt(cfg: dict, seed: RngSeed, out: str):
    # run_clt works out its complex's caps: "r_max" and "q_max" are not read
    config = CltConfig(
        process=cfg["process"],
        density=density_from_json(cfg["density"]),
        kind=cfg.get("kind", "rips"),
        queries=[RankQuery(int(cfg["q"]), float(r), float(s)) for r, s in cfg["pairs"]],
        n_grid=cfg["n_grid"],
        replicates=int(cfg["replicates"]),
        seed=seed,
    )
    result = run_clt(config)
    _write(out, "replicates.csv", replicates_csv(result))
    _write(out, "covariance.csv", covariance_csv(result))
    _write(out, "scores.csv", scores_csv(result))


def _cmd_tails(cfg: dict, seed: RngSeed, out: str):
    table = radius_tail_experiment(
        cfg["lambda_grid"],
        cfg["r_grid"],
        [int(q) for q in cfg["q_list"]],
        cfg["L_grid"],
        int(cfg["reps"]),
        float(cfg["window"]),
        seed,
        d=int(cfg.get("d", 2)),
        kind=cfg.get("kind", "rips"),
    )
    _write(out, "tails.csv", table.to_csv())


def _cmd_report(cfg: dict, seed: RngSeed, out: str):
    if not os.path.isdir(out):
        raise NumericalError(f"result directory {out} does not exist")
    query = tuple(cfg["query"]) if cfg and "query" in cfg else None
    try:
        written = emit_plots(out, diagram_query=query)
    except FileNotFoundError as exc:
        raise NumericalError(str(exc)) from exc
    summary = {"plots": sorted(os.path.basename(pth) for pth in written)}
    for name in ("replicates.csv", "covariance.csv", "scores.csv", "tails.csv", "diagram.csv"):
        path = os.path.join(out, name)
        if os.path.exists(path):
            summary[name] = _sha256(path)
    _write(out, "report.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")


HANDLERS = {
    "sample": _cmd_sample,
    "complex": _cmd_complex,
    "persist": _cmd_persist,
    "radius": _cmd_radius,
    "alpha": _cmd_alpha,
    "clt": _cmd_clt,
    "tails": _cmd_tails,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(USAGE)
        return 0 if argv else 64
    command = argv[0]
    if command not in COMMANDS:
        sys.stderr.write(USAGE)
        return 64
    parser = argparse.ArgumentParser(prog=f"pslab {command}", add_help=True)
    parser.add_argument("--config", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    # accepted and ignored: perfbench/run.py and perfbench/selftest.py pass
    # `--threads 1`, and perfbench/ changes only with the benchmark
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        return 64
    out = args.out or os.environ.get("PSLAB_OUT") or "."

    try:
        cfg: dict = {}
        if args.config is not None:
            with open(args.config) as fh:
                cfg = json.load(fh)
        elif command != "report":
            raise DomainError("--config is required")
        seed_val = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        seed = RngSeed(seed_val, int(cfg.get("stream", 0)))
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        HANDLERS[command](cfg, seed, out)
        if command != "report":
            ended = datetime.datetime.now(datetime.timezone.utc).isoformat()
            write_manifest(out, command, cfg, seed_val, started, ended)
        return 0
    except (CensoringError, NumericalError) as exc:
        sys.stderr.write(f"pslab {command}: {exc}\n")
        return 3
    except (DomainError, KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"pslab {command}: config error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
