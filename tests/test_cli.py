import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pslab
from pslab.cli import main
from pslab.filtration import build
from pslab.persistence import RankQuery, diagram_from_csv, reduce
from pslab.plots import emit_plots
from pslab.point_process import Box, PointCloud

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
WINDOW = {"kind": "box", "lo": [-1.0, -1.0], "hi": [2.0, 2.0]}


def _cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _square_persist_cfg(tmp_path, **extra):
    payload = {
        "points": SQUARE,
        "window": WINDOW,
        "kind": "rips",
        "r_max": 2.0,
        "q_max": 2,
        **extra,
    }
    return _cfg(tmp_path, "persist.json", payload)


# -- usage and exit codes -----------------------------------------------------


def test_no_args_usage(capsys):
    assert main([]) == 64
    assert "usage:" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 64
    assert "usage:" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path):
    assert main(["persist", "--out", str(tmp_path)]) == 2


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["persist", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_bad_schema_is_config_error(tmp_path):
    cfg = _cfg(tmp_path, "s.json", {"process": "gamma", "window": WINDOW, "n": 5})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_report_without_inputs_is_numerical_abort(tmp_path):
    assert main(["report", "--out", str(tmp_path)]) == 3
    assert main(["report", "--out", str(tmp_path / "missing")]) == 3


# -- persist end to end -------------------------------------------------------


def test_persist_square_matches_module_oracle(tmp_path):
    cfg = _square_persist_cfg(tmp_path, queries=[[1, 1.0, 1.2]])
    out = tmp_path / "out"
    assert main(["persist", "--config", cfg, "--out", str(out)]) == 0

    D = diagram_from_csv((out / "diagram.csv").read_text(), q_max=2)
    cloud = PointCloud(np.asarray(SQUARE), Box((-1.0, -1.0), (2.0, 2.0)))
    oracle = reduce(build(cloud, "rips", r_max=2.0, q_max=2))
    assert (out / "diagram.csv").read_text() == oracle.to_csv()
    assert D.persistent_betti(RankQuery(1, 1.0, 1.2)) == 1

    lines = (out / "queries.csv").read_text().splitlines()
    assert lines[0] == "q,r,s,betti"
    assert lines[1].split(",")[-1] == "1"


def test_persist_query_at_q_max_is_config_error(tmp_path):
    # at q_max = 1 the square's 1-cycle has no triangle to die at sqrt 2, so
    # beta_1 at (1.2, 1.2) cannot be read from the complex
    cfg = _square_persist_cfg(tmp_path, q_max=1, queries=[[1, 1.2, 1.2]])
    assert main(["persist", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_persist_q0_query_at_q_max_0_is_config_error(tmp_path):
    # no edges at q_max = 0, so beta_0 at s = 1 cannot be read from the complex
    payload = {"points": [[0.0, 0.0], [0.5, 0.0]], "window": WINDOW, "kind": "rips", "r_max": 1.0, "q_max": 0,
               "queries": [[0, 1.0, 1.0]]}
    cfg = _cfg(tmp_path, "persist.json", payload)
    assert main(["persist", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_negative_degree_and_nan_radii_are_config_errors(tmp_path):
    # the configs are written with json's NaN, which json.load reads back
    for i, query in enumerate(([-1, 1.0, 1.2], [1, math.nan, 1.2])):
        cfg = _square_persist_cfg(tmp_path, queries=[query])
        assert main(["persist", "--config", cfg, "--out", str(tmp_path / f"persist_{i}")]) == 2
    cfg = _cfg(tmp_path, "clt.json", {**CLT_DEGENERATE, "n_grid": [30], "replicates": 50, "r_max": math.nan})
    assert main(["clt", "--config", cfg, "--out", str(tmp_path / "clt")]) == 2


def test_manifest_inventory_hashes(tmp_path):
    cfg = _square_persist_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["persist", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "persist"
    assert manifest["version"]
    names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert sorted(manifest["outputs"]) == names
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


# -- sample -------------------------------------------------------------------


def test_sample_deterministic_and_seed_override(tmp_path):
    cfg = _cfg(tmp_path, "s.json", {"process": "poisson_homogeneous", "lambda": 2.0, "window": WINDOW, "seed": 4})
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["sample", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(b)]) == 0
    assert main(["sample", "--config", cfg, "--out", str(c), "--seed", "5"]) == 0
    assert (a / "cloud.csv").read_bytes() == (b / "cloud.csv").read_bytes()
    assert (a / "cloud.csv").read_bytes() != (c / "cloud.csv").read_bytes()
    assert (a / "cloud.csv").read_text().splitlines()[0] == "x0,x1"
    envelope = json.loads((a / "cloud.json").read_text())
    assert envelope["seed"] == {"seed": 4, "stream": 0}


def test_pslab_out_env(tmp_path, monkeypatch):
    cfg = _cfg(tmp_path, "s.json", {"process": "binomial", "n": 5, "density": {"kind": "constant", "d": 2}})
    dest = tmp_path / "envout"
    monkeypatch.setenv("PSLAB_OUT", str(dest))
    assert main(["sample", "--config", cfg]) == 0
    assert (dest / "cloud.csv").exists()


# -- complex / radius / alpha -------------------------------------------------


def test_complex_command(tmp_path):
    cfg = _cfg(tmp_path, "c.json", {"points": SQUARE, "window": WINDOW, "kind": "rips", "r_max": 1.5, "q_max": 2})
    out = tmp_path / "out"
    assert main(["complex", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "complex.txt").read_text()
    cloud = PointCloud(np.asarray(SQUARE), Box((-1.0, -1.0), (2.0, 2.0)))
    assert text == build(cloud, "rips", 1.5, 2).to_text()


def test_radius_command(tmp_path):
    jobs = [
        {"mode": "weak", "lambda": 1.0, "window_radius": 5.0, "r": 0.5, "s": 0.7},
        {"mode": "strong", "lambda": 1.0, "window_radius": 5.0, "r": 0.5, "q": 0},
        {"lambda": 1.0, "window_radius": 5.0, "r": 0.5, "s": 0.7, "stream": 0},  # no mode: the first job's
    ]
    cfg = _cfg(tmp_path, "r.json", {"jobs": jobs, "seed": 3})
    out = tmp_path / "out"
    assert main(["radius", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "radius.csv").read_text().splitlines()
    assert lines[0] == "z,r,s,value,censored"
    assert len(lines) == 4 and lines[3] == lines[1]


@pytest.mark.parametrize(
    "job, message",
    [
        ({"mode": "wek", "r": 0.5, "s": 0.7}, "unknown radius mode 'wek'"),
        ({"mode": "strong", "r": 0.5, "q": 5}, "homology degrees [5] must lie in 0..1"),
        ({"mode": "strong", "r": 0.5, "q": -1}, "homology degrees [-1] must lie in 0..1"),
        ({"mode": "weak", "r": 0.5, "s": 0.7, "z": [0.0, 0.0, 0.0]}, "2 coordinates"),
        ({"mode": "strong", "r": 0.5, "q": 1, "Q": [[0.0]]}, "2 coordinates"),
    ],
)
def test_radius_job_with_unknown_mode_or_bad_degree_or_dimension_is_config_error(tmp_path, capsys, job, message):
    """A job whose mode is neither weak nor strong, whose degree has no
    column in d = 2, or whose z or Q has the wrong dimension exits 2 with
    one line naming it."""
    cfg = _cfg(tmp_path, "r.json", {"jobs": [{"lambda": 1.0, "window_radius": 3.0, **job}], "seed": 3})
    assert main(["radius", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_alpha_command_degenerate(tmp_path):
    cfg = _cfg(
        tmp_path,
        "a.json",
        {"r": 0.0, "s": 0.0, "q": 0, "density": {"kind": "constant", "d": 2}, "window_radius": 3.0, "reps": 50},
    )
    out = tmp_path / "out"
    assert main(["alpha", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "alpha.json").read_text())
    assert payload["value"] == 1.0
    assert payload["censored_fraction"] == 0.0


def test_alpha_zero_replicates_is_config_error(tmp_path):
    # one replicate is refused too: its standard error would read 0
    for reps in (0, 1):
        cfg = _cfg(
            tmp_path,
            "a.json",
            {"r": 0.0, "s": 0.0, "q": 0, "density": {"kind": "constant", "d": 2}, "window_radius": 3.0, "reps": reps},
        )
        assert main(["alpha", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


# -- clt ----------------------------------------------------------------------


CLT_DEGENERATE = {
    "process": "poisson",
    "density": {"kind": "constant", "d": 2},
    "q": 0,
    "pairs": [[0.0, 0.0]],
    "n_grid": [100],
    "replicates": 400,
    "r_max": 0.0,
    "q_max": 1,
    "seed": 12,
}


def test_clt_degenerate_covariance(tmp_path):
    cfg = _cfg(tmp_path, "clt.json", CLT_DEGENERATE)
    out = tmp_path / "out"
    assert main(["clt", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "covariance.csv").read_text().splitlines()
    assert rows[0] == "n,i,j,value"
    value = float(rows[1].split(",")[-1])
    assert 0.85 <= value <= 1.15
    assert (out / "replicates.csv").read_text().splitlines()[0] == "n,rep,pair_index,beta,standardized"
    assert (out / "scores.csv").read_text().splitlines()[0] == "n,label,ad,ks,skewness,excess_kurtosis"


def test_clt_threads_byte_identical(tmp_path):
    # `--threads` is ignored, and kept only so that the benchmark's `--threads 1`
    # still parses; this test guards that the flag is accepted
    cfg = _cfg(tmp_path, "clt.json", {**CLT_DEGENERATE, "pairs": [[0.3, 0.4]], "n_grid": [30], "replicates": 50, "r_max": 0.4})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["clt", "--config", cfg, "--out", str(a), "--threads", "1"]) == 0
    assert main(["clt", "--config", cfg, "--out", str(b), "--threads", "2"]) == 0
    for name in ("replicates.csv", "covariance.csv", "scores.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# -- tails and report ----------------------------------------------------------


def test_tails_command_and_flat_curve(tmp_path):
    cfg = _cfg(
        tmp_path,
        "t.json",
        {"lambda_grid": [0.0], "r_grid": [0.5], "q_list": [0], "L_grid": [0.5, 1.0], "reps": 20, "window": 3.0},
    )
    out = tmp_path / "out"
    assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "tails.csv").read_text().splitlines()
    assert lines[0] == "lambda,r,q,statistic,L,survival,wilson_low,wilson_high"
    assert all(float(line.split(",")[5]) == 0.0 for line in lines[1:])
    assert main(["report", "--out", str(out)]) == 0
    assert "<svg" in (out / "survival.svg").read_text()


def test_tails_zero_replicates_is_config_error(tmp_path):
    cfg = _cfg(
        tmp_path,
        "t.json",
        {"lambda_grid": [1.0], "r_grid": [0.5], "q_list": [0], "L_grid": [0.5, 1.0], "reps": 0, "window": 3.0},
    )
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_tails_degree_at_d_is_config_error(tmp_path, capsys):
    cfg = _cfg(
        tmp_path,
        "t.json",
        {"lambda_grid": [1.0], "r_grid": [0.5], "q_list": [0, 2], "L_grid": [0.5, 1.0], "reps": 2, "window": 3.0, "d": 2},
    )
    assert main(["tails", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "homology degrees" in err and "Traceback" not in err


def test_report_round_trip_byte_identical(tmp_path):
    cfg = _cfg(tmp_path, "clt.json", {**CLT_DEGENERATE, "pairs": [[0.3, 0.4]], "n_grid": [30], "replicates": 50, "r_max": 0.4})
    out = tmp_path / "out"
    assert main(["clt", "--config", cfg, "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir() if p.suffix in (".svg", ".json") and p.name != "manifest.json"}
    assert main(["report", "--out", str(out)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob
    report = json.loads((out / "report.json").read_text())
    assert any(name.startswith("qq_") for name in report["plots"])


def test_clt_and_report_never_import_scipy_stats(tmp_path):
    # scipy.stats costs about half of the CLI's start-up time and 30 MB; the
    # scores and Q-Q quantiles come from scipy.special. A fresh interpreter
    # runs clt and report and then looks at what was imported.
    cfg = _cfg(tmp_path, "clt.json", {**CLT_DEGENERATE, "pairs": [[0.3, 0.4]], "n_grid": [30], "replicates": 50, "r_max": 0.4})
    out = str(tmp_path / "out")
    script = "\n".join([
        "import sys",
        "from pslab.cli import main",
        f"assert main(['clt', '--config', {cfg!r}, '--out', {out!r}]) == 0",
        f"assert main(['report', '--out', {out!r}]) == 0",
        "assert 'scipy.stats' not in sys.modules",
    ])
    src = os.path.dirname(os.path.dirname(pslab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert any(name.startswith("qq_") for name in os.listdir(out))


# -- plot examples --------------------------------------------------------------


def test_diagram_plot_query_rectangle(tmp_path):
    cfg = _square_persist_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["persist", "--config", cfg, "--out", str(out)]) == 0
    rcfg = _cfg(tmp_path, "report.json.cfg", {"query": [1.0, 1.2]})
    assert main(["report", "--config", rcfg, "--out", str(out)]) == 0
    svg = (out / "diagram.svg").read_text()
    assert "#ffcccc" in svg

    D = diagram_from_csv((out / "diagram.csv").read_text(), q_max=2)
    inside = sum(
        1
        for q, b, dth in zip(D.qs, D.births, D.deaths)
        if q == 1 and b <= 1.0 and (math.isinf(dth) or dth > 1.2)
    )
    assert inside == D.persistent_betti(RankQuery(1, 1.0, 1.2)) == 1


def test_diagram_plot_empty_diagram(tmp_path):
    (tmp_path / "diagram.csv").write_text("q,birth,death\n")
    written = emit_plots(str(tmp_path))
    assert any(os.path.basename(p) == "diagram.svg" for p in written)
    svg = (tmp_path / "diagram.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg
