"""Self-tests of the benchmark's checks, at a tiny size.

    python3 perfbench/selftest.py

Runs each workload's pslab command on a tiny config, shows that every check in
checks.py accepts the clean output, then corrupts one output at a time and
shows that the check meant to catch it rejects it. A check that cannot fail
tests nothing. Exits 1 if any case goes the wrong way. Scratch files go to
perfbench/results/selftest and are removed on success.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from pslab.cli import main as pslab_main  # noqa: E402
from pslab.filtration import build  # noqa: E402
from pslab.persistence import reduce  # noqa: E402
from pslab.stabilization import RadiusEstimate  # noqa: E402

WORK = os.path.join(run.RESULTS, "selftest")
failures: list[str] = []


def expect(label: str, fn, *args, rejects: str | None = None):
    """fn(*args) must pass when rejects is None, else raise CheckError whose
    message contains `rejects`."""
    try:
        fn(*args)
    except checks.CheckError as exc:
        if rejects is not None and rejects in str(exc):
            print(f"ok    {label}: rejected ({exc})")
        else:
            failures.append(label)
            print(f"FAIL  {label}: unexpected rejection ({exc})")
        return
    if rejects is None:
        print(f"ok    {label}: accepted")
    else:
        failures.append(label)
        print(f"FAIL  {label}: accepted a corrupted output")


def pslab_run(command: str, cfg: dict, name: str) -> str:
    out = os.path.join(WORK, name)
    path = os.path.join(WORK, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    code = pslab_main([command, "--config", path, "--out", out, "--threads", "1"])
    if code != 0:
        raise SystemExit(f"selftest: pslab {command} on {name} exited {code}")
    return out


def rewrite(path: str, edit):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def copy_dir(src: str, name: str) -> str:
    dst = os.path.join(WORK, name)
    shutil.copytree(src, dst)
    return dst


def set_csv_cell(path: str, row_index: int, column: str, value: str):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
        fields = list(rows[0])
    rows[row_index][column] = value
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def with_extra_point(D, q: int):
    """The diagram plus one class of degree q born at 0 that never dies."""
    return dataclasses.replace(
        D, qs=np.append(D.qs, q), births=np.append(D.births, 0.0), deaths=np.append(D.deaths, np.inf)
    )


def test_manifest_and_replicates(out: str):
    expect("manifest", checks.check_manifest, out)
    bad = copy_dir(out, "bad-bytes")
    rewrite(os.path.join(bad, "replicates.csv"), lambda t: t + "\n")
    expect("manifest vs changed file", checks.check_manifest, bad, rejects="sha256")
    bad = copy_dir(out, "bad-hash")
    rewrite(os.path.join(bad, "manifest.json"), lambda t: t.replace('"replicates.csv": "', '"replicates.csv": "0', 1))
    expect("manifest hash that does not match", checks.check_manifest, bad, rejects="sha256")
    bad = copy_dir(out, "bad-extra")
    open(os.path.join(bad, "stray.csv"), "w").close()
    expect("file missing from the manifest", checks.check_manifest, bad, rejects="manifest lists")
    for label, value in (("non-integer beta", "1.5"), ("negative beta", "-1.0")):
        bad = copy_dir(out, "bad-" + label.replace(" ", "-"))
        set_csv_cell(os.path.join(bad, "replicates.csv"), 0, "beta", value)
        expect(label, checks.read_replicates, bad, rejects="not an integer")


def test_clt_rips():
    cfg = run._clt("poisson", "rips", 1, [[0.8, 1.0], [1.5, 2.0]], 2.0, 60, 50, 7)
    out = pslab_run("clt", cfg, "rips")
    test_manifest_and_replicates(out)
    betas = checks.read_replicates(out)
    expect("replicate count", checks.check_replicate_count, betas, cfg)
    expect("replicate count, one row lost", checks.check_replicate_count,
           {k: v for k, v in list(betas.items())[1:]}, cfg, rejects="expected")
    rep = 3
    P = checks.replicate_cloud(cfg, 0, rep)
    C = build(P, "rips", 2.0, 2)
    D = reduce(C)
    expect("replicate row", checks.check_replicate_betas, betas, cfg, 0, rep, D)
    for pair in range(2):
        off = dict(betas)
        off[(60, rep, pair)] += 1
        expect(f"replicate row, beta of pair {pair} off by 1", checks.check_replicate_betas, off, cfg, 0, rep, D,
               rejects="recomputed")
    thresholds = (0.5, 1.0, 1.2, 1.5, 2.0)
    expect("beta_0 vs union-find", checks.check_components, P, D, "rips", thresholds)
    expect("beta_0 vs union-find, extra component", checks.check_components, P, with_extra_point(D, 0), "rips",
           thresholds, rejects="union-find")
    sub = checks.sub_windows(P, 5.0, 1, np.random.default_rng(0))[0]
    Cs = build(sub, "rips", 2.0, 2)
    queries = [checks.RankQuery(1, r, s) for r, s in cfg["pairs"]]
    expect("oracle on a sub-window", checks.check_oracle, Cs, reduce(Cs), queries)
    expect("oracle on a sub-window, extra q=1 class", checks.check_oracle, Cs, with_extra_point(reduce(Cs), 1),
           queries, rejects="oracle")
    expect("oracle on two random sub-windows", checks.check_sub_windows, P, cfg, 5.0, 2, np.random.default_rng(1))


def test_clt_cech():
    cfg = run._clt("binomial", "cech", 1, [[0.5, 0.7]], 0.7, 60, 50, 7)
    out = pslab_run("clt", cfg, "cech")
    checks.check_manifest(out)
    P = checks.replicate_cloud(cfg, 0, 0)
    C = build(P, "cech", 0.7, 2)
    expect("Čech entry times", checks.check_cech_times, C, P.points, 0.7)
    for q, label in ((1, "edge"), (2, "triangle")):
        i = int(np.flatnonzero(C.dims == q)[0])
        nudged = dataclasses.replace(C, times=C.times.copy())
        nudged.times[i] += 1e-9
        expect(f"Čech {label} time nudged by 1e-9", checks.check_cech_times, nudged, P.points, 0.7,
               rejects="off by")
        keep = np.arange(C.n_cells) != i
        dropped = dataclasses.replace(C, verts=[v for v, k in zip(C.verts, keep) if k], times=C.times[keep],
                                      dims=C.dims[keep])
        expect(f"Čech {label} missing", checks.check_cech_times, dropped, P.points, 0.7, rejects="1 missing")


def test_vertices():
    cfg = run._clt("binomial", "rips", 0, [[0.0, 0.0]], 0.0, 50, 50, 7)
    out = pslab_run("clt", cfg, "vertices")
    betas = checks.read_replicates(out)
    expect("every beta equals n", checks.check_vertex_betas, betas)
    off = dict(betas)
    off[(50, 10, 0)] -= 1
    expect("one beta off by 1", checks.check_vertex_betas, off, rejects="expected 50")


def test_tails():
    cfg = run._tails([0.25, 1.0], 3, 7)
    out = pslab_run("tails", cfg, "tails")
    checks.check_manifest(out)
    path = os.path.join(out, "tails.csv")
    expect("tails table", checks.check_tails, checks.read_tails(out), cfg)
    rows = checks.read_tails(out)
    # a non-monotone group whose rows are each well formed: give the largest L
    # of a group whose survival falls the values of its smallest L
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault((row["lambda"], row["q"], row["statistic"]), []).append(i)
    falling = [g for g in groups.values() if rows[g[0]]["survival"] > rows[g[-1]]["survival"]]
    if not falling:
        failures.append("non-monotone survival row")
        print("FAIL  non-monotone survival row: no falling group to corrupt")
    else:
        first, last = falling[0][0], falling[0][-1]
        bad = [dict(row) for row in rows]
        for key in ("survival", "wilson_low", "wilson_high"):
            bad[last][key] = rows[first][key]
        expect("non-monotone survival row", checks.check_tails, bad, cfg, rejects="increases")
    bad = [dict(row) for row in rows]
    bad[0]["wilson_high"] = bad[0]["survival"] - 1e-3
    expect("survival outside its Wilson interval", checks.check_tails, bad, cfg, rejects="outside")
    bad = [dict(row) for row in rows]
    bad[0]["wilson_low"] = max(0.0, bad[0]["wilson_low"] - 1e-6)
    bad[0]["wilson_high"] = min(1.0, bad[0]["wilson_high"] + 1e-6)
    expect("Wilson interval off the formula", checks.check_tails, bad, cfg, rejects="formula")
    bad = [dict(row) for row in rows]
    bad[0]["survival"] += 0.01
    expect("survival not a multiple of 1/reps", checks.check_tails, bad, cfg, rejects="is not k/")
    expect("tails row lost", checks.check_tails, rows[1:], cfg, rejects="expected")
    set_csv_cell(path, 0, "survival", "0.5")
    expect("tails.csv edited after the manifest", checks.check_manifest, out, rejects="sha256")

    r, w = 0.5, 5.0
    P = checks.tails_cloud(cfg, 1, 0)
    res = checks.radius_replicate(P, r, w, "rips", [0, 1])
    expect("D1 - D2 at the window radius", checks.check_trace_end, P, res["trace"], r, w, "rips", [0, 1])
    for q in (0, 1):
        trace = dataclasses.replace(res["trace"], d1=res["trace"].d1.copy())
        trace.d1[-1, q] += 1
        expect(f"D1 - D2 off by 1 at q={q}", checks.check_trace_end, P, trace, r, w, "rips", [0, 1],
               rejects="add-one cost")
    expect("weak radius below the strong estimates", checks.check_weak_below_strong, res["weak"], res["strong"])
    top = max(est.value for est in res["strong"].values())
    above = RadiusEstimate(top + 0.25, False, res["weak"].margin)
    expect("weak radius above the strong estimates", checks.check_weak_below_strong, above, res["strong"],
           rejects="above")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    test_clt_rips()
    test_clt_cech()
    test_vertices()
    test_tails()
    if failures:
        print(f"{len(failures)} self-test case(s) failed: {failures}")
        return 1
    shutil.rmtree(WORK, ignore_errors=True)
    print("all self-test cases passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
