"""Correctness checks on what a workload's pslab command wrote.

Each check raises `CheckError` when an output disagrees with a computation made
apart from the code path that produced it, or with a property the method must
have. None compares against a stored copy of earlier output. `selftest.py`
shows that each check rejects a corrupted output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from pslab.experiments import sample_scaled_process
from pslab.filtration import build, restrict
from pslab.persistence import (
    ORACLE_CELL_CAP,
    RankQuery,
    connected_component_count,
    persistent_betti_direct,
    reduce,
)
from pslab.point_process import Box, PointCloud, RngSeed, density_from_json, sample_poisson_homogeneous
from pslab.stabilization import AddOneQuery, add_one_cost, strong_radius_estimate, weak_radius


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Every workload
# ---------------------------------------------------------------------------


def check_manifest(out_dir: str) -> dict:
    """Every file of the directory is in the manifest with its sha256; returns the hashes."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        listed = json.load(fh)["outputs"]
    present = sorted(name for name in os.listdir(out_dir) if name != "manifest.json")
    _require(sorted(listed) == present, f"{out_dir}: manifest lists {sorted(listed)}, directory holds {present}")
    for name, digest in listed.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            actual = hashlib.sha256(fh.read()).hexdigest()
        _require(actual == digest, f"{out_dir}/{name}: sha256 {actual} but manifest says {digest}")
    return listed


def read_replicates(out_dir: str) -> dict[tuple[int, int, int], int]:
    """replicates.csv as {(n, rep, pair_index): beta}; each beta an integer >= 0."""
    with open(os.path.join(out_dir, "replicates.csv")) as fh:
        rows = list(csv.DictReader(fh))
    betas = {}
    for row in rows:
        value = float(row["beta"])
        _require(value >= 0 and value == int(value), f"beta {row['beta']} is not an integer >= 0")
        betas[(int(row["n"]), int(row["rep"]), int(row["pair_index"]))] = int(value)
    return betas


def check_replicate_count(betas: dict, cfg: dict):
    expected = len(cfg["n_grid"]) * cfg["replicates"] * len(cfg["pairs"])
    _require(len(betas) == expected, f"replicates.csv has {len(betas)} betas, expected {expected}")


# ---------------------------------------------------------------------------
# CLT workloads
# ---------------------------------------------------------------------------


def replicate_cloud(cfg: dict, n_idx: int, rep: int) -> PointCloud:
    """The cloud of one replicate, drawn from the seed stream run_clt documents."""
    seed = RngSeed(int(cfg["seed"]), int(cfg.get("stream", 0))).derive(n_idx).derive(rep)
    return sample_scaled_process(cfg["process"], density_from_json(cfg["density"]), cfg["n_grid"][n_idx], seed)


def check_replicate_betas(betas: dict, cfg: dict, n_idx: int, rep: int, diagram):
    """The row of the replicate equals the rank query on its recomputed diagram."""
    n = cfg["n_grid"][n_idx]
    for i, (r, s) in enumerate(cfg["pairs"]):
        expected = diagram.persistent_betti(RankQuery(int(cfg["q"]), float(r), float(s)))
        _require(betas[(n, rep, i)] == expected,
                 f"n={n} rep={rep} pair {i}: replicates.csv has {betas[(n, rep, i)]}, recomputed {expected}")


def check_vertex_betas(betas: dict):
    """q = 0 at r = s = 0 under the binomial process: beta counts the n points."""
    for (n, rep, i), beta in betas.items():
        _require(beta == n, f"n={n} rep={rep} pair {i}: beta {beta}, expected {n}")


def sub_windows(P: PointCloud, side: float, count: int, rng: np.random.Generator) -> list[PointCloud]:
    """`count` square sub-windows of the cloud's box at random positions."""
    lo, hi = np.asarray(P.window.lo), np.asarray(P.window.hi)
    out = []
    for _ in range(count):
        corner = lo + rng.random(P.d) * (hi - lo - side)
        keep = np.all((P.points >= corner) & (P.points <= corner + side), axis=1)
        out.append(PointCloud(P.points[keep], Box(tuple(corner), tuple(corner + side))))
    return out


def check_oracle(C, D, queries):
    """reduce's diagram agrees with the dense-elimination oracle."""
    _require(C.n_cells <= ORACLE_CELL_CAP, f"{C.n_cells} cells exceed the oracle cap")
    for query in queries:
        fast, direct = D.persistent_betti(query), persistent_betti_direct(C, query)
        _require(fast == direct, f"{query}: reduce gives {fast}, the oracle {direct}")


def check_components(P: PointCloud, D, kind: str, thresholds):
    """beta_0 at (t, t) counts the components of the geometric graph (union-find)."""
    for t in thresholds:
        beta0 = D.persistent_betti(RankQuery(0, float(t), float(t)))
        comps = connected_component_count(P, float(t), kind)
        _require(beta0 == comps, f"t={t}: beta_0 {beta0}, union-find {comps} components")


def _triangle_radius(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> float:
    """Radius of the smallest ball enclosing a planar triangle, in closed form."""
    sides = sorted(float(np.sqrt(np.dot(u - v, u - v))) for u, v in ((a, b), (b, c), (a, c)))
    if sides[2] ** 2 >= sides[0] ** 2 + sides[1] ** 2:
        return sides[2] / 2.0  # right or obtuse: the longest edge is a diameter
    u, v = b - a, c - a
    area = abs(u[0] * v[1] - u[1] * v[0]) / 2.0
    return sides[0] * sides[1] * sides[2] / (4.0 * area)


def check_cech_times(C, pts: np.ndarray, r_max: float, tol: float = 1e-12):
    """Edges and triangles of a planar Čech complex against a brute-force
    enumeration: an edge enters at half its length, a triangle at its
    closed-form enclosing radius; every simplex within r_max is present."""
    _require(pts.shape[1] == 2, "closed-form triangle radii are for d = 2")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    edges = {(int(i), int(j)): dist[i, j] / 2.0 for i, j in zip(*np.nonzero(np.triu(dist / 2.0 <= r_max, 1)))}
    forward: dict[int, set] = {}
    for i, j in edges:
        forward.setdefault(i, set()).add(j)
    triangles = {}
    for i, j in edges:
        for k in forward.get(i, set()) & forward.get(j, set()):
            t = _triangle_radius(pts[i], pts[j], pts[k])
            if t <= r_max:
                triangles[(i, j, int(k))] = t
    expected = {1: edges, 2: triangles}
    found = {1: {}, 2: {}}
    for v, t, q in zip(C.verts, C.times.tolist(), C.dims.tolist()):
        if q in found:
            found[q][v] = t
    for q, want in expected.items():
        got = found[q]
        # a simplex within tol of the cap may fall on either side of it
        missing = [v for v in set(want) - set(got) if want[v] < r_max - tol]
        extra = [v for v in set(got) - set(want) if got[v] < r_max - tol]
        _require(not missing and not extra, f"dimension {q}: {len(missing)} missing, {len(extra)} extra simplices")
        worst = max((abs(got[v] - want[v]) for v in set(want) & set(got)), default=0.0)
        _require(worst <= tol, f"dimension {q}: entry time off by {worst:.3g} from the closed form")


# ---------------------------------------------------------------------------
# Radius tails
# ---------------------------------------------------------------------------


def read_tails(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "tails.csv")) as fh:
        rows = list(csv.DictReader(fh))
    return [
        {"lambda": float(row["lambda"]), "r": float(row["r"]), "q": int(row["q"]),
         "statistic": row["statistic"], "L": float(row["L"]), "survival": float(row["survival"]),
         "wilson_low": float(row["wilson_low"]), "wilson_high": float(row["wilson_high"])}
        for row in rows
    ]


def _wilson(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    p = k / n
    center = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def check_tails(rows: list[dict], cfg: dict):
    """One row per (lambda, r, q, statistic, L); survival is k/reps, non-increasing
    in L, inside its Wilson interval, and the interval matches the formula."""
    reps = int(cfg["reps"])
    expected = len(cfg["lambda_grid"]) * len(cfg["r_grid"]) * len(cfg["q_list"]) * 2 * len(cfg["L_grid"])
    _require(len(rows) == expected, f"tails.csv has {len(rows)} rows, expected {expected}")
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row["lambda"], row["r"], row["q"], row["statistic"])
        groups.setdefault(key, []).append(row)
        k = round(row["survival"] * reps)
        _require(abs(row["survival"] - k / reps) <= 1e-12, f"{key} L={row['L']}: survival {row['survival']} is not k/{reps}")
        # to round-off: at k = 0 pslab's lower bound is 5.6e-17 for n = 3 and
        # 8.7e-19 for n = 300, not 0
        _require(row["wilson_low"] - 1e-12 <= row["survival"] <= row["wilson_high"] + 1e-12,
                 f"{key} L={row['L']}: survival {row['survival']} outside "
                 f"[{row['wilson_low']}, {row['wilson_high']}]")
        lo, hi = _wilson(k, reps)
        _require(abs(lo - row["wilson_low"]) <= 1e-12 and abs(hi - row["wilson_high"]) <= 1e-12,
                 f"{key} L={row['L']}: Wilson interval ({row['wilson_low']}, {row['wilson_high']}), "
                 f"formula ({lo}, {hi})")
    for key, group in groups.items():
        surv = [row["survival"] for row in sorted(group, key=lambda row: row["L"])]
        _require(all(a >= b for a, b in zip(surv, surv[1:])), f"{key}: survival increases in L: {surv}")


def tails_cloud(cfg: dict, cell: int, rep: int) -> PointCloud:
    """The cloud of one replicate of one (lambda, r) cell of radius_tail_experiment."""
    lam = float(cfg["lambda_grid"][cell // len(cfg["r_grid"])])
    w = float(cfg["window"])
    d = int(cfg.get("d", 2))
    seed = RngSeed(int(cfg["seed"]), int(cfg.get("stream", 0))).derive(cell).derive(rep)
    return sample_poisson_homogeneous(lam, Box((-w,) * d, (w,) * d), seed)


def radius_replicate(P: PointCloud, r: float, window: float, kind: str, q_list) -> dict:
    """Weak radius with its trace and the strong estimates of one cloud, as the tails command computes them."""
    origin, z = np.zeros((1, P.d)), np.zeros(P.d)
    weak, trace = weak_radius(P, origin, z, r, r, kind=kind, window_radius=window, return_trace=True)
    strong = {q: strong_radius_estimate(P, origin, z, r, q, kind, window_radius=window) for q in q_list}
    return {"weak": weak, "trace": trace, "strong": strong}


def check_trace_end(P: PointCloud, trace, r: float, window: float, kind: str, q_list):
    """D1 - D2 at the last probe (the window radius) is the add-one cost of the
    origin on the cloud cut to the window ball, by two full reductions."""
    _require(float(trace.radii[-1]) == window, f"last probe {trace.radii[-1]} is not the window radius {window}")
    ball = restrict(P, np.zeros(P.d), window)
    for q in q_list:
        cost = add_one_cost(AddOneQuery(ball, np.zeros((1, P.d)), q, r, r, kind))
        end = int(trace.d1[-1, q] - trace.d2[-1, q])
        _require(end == cost, f"q={q}: D1 - D2 at the window radius is {end}, the add-one cost {cost}")


def check_weak_below_strong(weak, strong: dict):
    """The weak radius is at most the larger strong estimate (uncensored cases)."""
    if weak.censored or any(est.censored for est in strong.values()):
        return
    top = max(est.value for est in strong.values())
    _require(weak.value <= top + 1e-12, f"weak radius {weak.value} above the strong estimates' maximum {top}")


def check_sub_windows(P: PointCloud, cfg: dict, side: float, count: int, rng: np.random.Generator):
    """On sub-windows small enough for the oracle, reduce agrees with it at the
    workload's pairs, for q and for q = 0."""
    queries = [RankQuery(q, float(r), float(s)) for q in (0, int(cfg["q"])) for r, s in cfg["pairs"]]
    for sub in sub_windows(P, side, count, rng):
        C = build(sub, cfg["kind"], float(cfg["r_max"]), int(cfg["q_max"]))
        check_oracle(C, reduce(C), queries)
