"""The output bytes are the contract: every CSV/JSON file the CLI writes on
small fixed configs must keep the sha256 recorded here.

A change that moves any of these hashes must say why in CHANGES.md and
update GOLDEN in the same commit.  Outputs that go through the normal
distribution's special functions in `scipy.special` (`scores.csv`, from
`ndtr` and `log_ndtr`, and the report's QQ plots, from `ndtri`) are left
out: their last bits belong to scipy's implementation, so a scipy upgrade
alone could move such a hash.  `manifest.json` is left out because it holds
wall-clock timestamps.
"""

import hashlib
import json
import math

import numpy as np

from pslab.cli import main

WINDOW = {"kind": "box", "lo": [-1.0, -1.0], "hi": [4.0, 4.0]}
POINTS = (np.random.default_rng(2024).random((30, 2)) * 3.0).tolist()
DENSITY = {"kind": "constant", "d": 2}
TAILS = {
    "lambda_grid": [0.5, 1.0],
    "r_grid": [0.3, 0.6],
    "q_list": [0, 1],
    "L_grid": [0.25, 0.5, 1.0, 2.0],
    "window": 3.5,
    "seed": 9,
}

CONFIGS = {
    "sample-poisson": ("sample", {"process": "poisson_homogeneous", "lambda": 2.0, "window": WINDOW, "seed": 4}),
    "sample-binomial": ("sample", {"process": "binomial", "n": 40, "density": DENSITY, "seed": 7}),
    "complex-rips": ("complex", {"points": POINTS, "window": WINDOW, "kind": "rips", "r_max": 1.0, "q_max": 2}),
    "complex-cech": ("complex", {"points": POINTS, "window": WINDOW, "kind": "cech", "r_max": 0.6, "q_max": 3}),
    "persist": (
        "persist",
        {
            "points": POINTS,
            "window": WINDOW,
            "kind": "rips",
            "r_max": 1.2,
            "q_max": 2,
            "queries": [[0, 0.0, 0.0], [0, 0.4, 0.9], [1, 0.51, 0.55], [1, 0.75, 0.9], [1, 0.3, 1.2]],
        },
    ),
    "radius": (
        "radius",
        {
            "seed": 3,
            "jobs": [
                {"mode": "weak", "lambda": 1.0, "window_radius": 4.0, "r": 0.5, "s": 0.7},
                {"mode": "weak", "lambda": 2.0, "window_radius": 2.0, "r": 0.4, "s": 0.6, "z": [0.1, -0.2]},
                {"mode": "strong", "lambda": 1.0, "window_radius": 4.0, "r": 0.5, "q": 0},
                {"mode": "strong", "lambda": 2.0, "window_radius": 3.0, "r": 0.4, "q": 1, "kind": "cech"},
            ],
        },
    ),
    "alpha": (
        "alpha",
        {"r": 0.3, "s": 0.5, "q": 0, "density": DENSITY, "window_radius": 3.0, "reps": 20, "seed": 5},
    ),
    "clt": (
        "clt",
        {
            "process": "poisson",
            "density": DENSITY,
            "q": 0,
            "pairs": [[0.3, 0.5], [0.6, 0.8]],
            "n_grid": [20, 40],
            "replicates": 50,
            "r_max": 0.8,
            "q_max": 1,
            "seed": 11,
        },
    ),
    "tails-3": ("tails", {**TAILS, "reps": 3}),
    "tails-30": ("tails", {**TAILS, "reps": 30}),
}

# sha256 of every output, recorded with numpy 2.4 and scipy 1.17
GOLDEN = {
    "sample-poisson/cloud.csv": "453f40d6a3e2b16d5c82918c5819eebd253466bc6b5415456ebf0d7c609faf61",
    "sample-poisson/cloud.json": "655d6dbcee3e7357316950f1b2527bc015cf09c2167c2d7bc6277e2ea3aa3a96",
    "sample-binomial/cloud.csv": "f6e82e0388dce71ffe98b3ee185865a5d795ab38079bbe3bc175a41650dc4635",
    "sample-binomial/cloud.json": "12a63e77cd4ee8d5875ab494ae0027c6ce839fb0338bbed54a14573d57c1ac2a",
    "complex-rips/complex.txt": "6271e91ee3031dcc9f248e14808300337278704fb6f19d900ec7b3664425a0df",
    "complex-cech/complex.txt": "f0fe20ecc5962f9ef238dfe48f8eaef9af5e7a36f6ea248d8243daeedc3559bb",
    "persist/diagram.csv": "64916ca9bd9cd4b47767160ceb67b4d5a0102ceb0761ac91c916a2362ca309f1",
    "persist/queries.csv": "7343a0cb801d768a42d8b2d17bf832c7bff6eaced3bc31d754cbf69c96732d91",
    "radius/radius.csv": "9ef583803e965ce7f27eaf55e86e18082463fccb683812cb424cb4c9c0f07ba2",
    "alpha/alpha.json": "dfdfe6d076ffef797a242c43176b2c3c6396cf8f02a7d9181decffbd5245e85d",
    "clt/covariance.csv": "af8e855ef4cb13fad0d0c218e48904cd5831cd0aee725caa0d45929ef542ed40",
    "clt/replicates.csv": "5c3d0a051d1536dfb2a57b062a74915b559e35c6d029565f4c15013508b65525",
    "tails-3/tails.csv": "ccb8e20495d908baca825cb4d5ddb45812d8298154b39fefad599c555fa7703e",
    "tails-30/tails.csv": "6303c492d142f630b50e6f8e166c7e5e215be6843f384063db930d4002807692",
}


def _hashes(tmp_path) -> dict:
    out = {}
    for name, (command, cfg) in CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        dest = tmp_path / name
        assert main([command, "--config", str(path), "--out", str(dest)]) == 0, name
        for f in sorted(dest.iterdir()):
            if f.name not in ("manifest.json", "scores.csv"):
                out[f"{name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def test_csv_text_cell_rule():
    from pslab.point_process import csv_text

    rows = [
        [np.float64(0.1), np.int64(-3), np.bool_(True), math.inf, math.nan],
        [1e-17, 7, False, np.float64(-math.inf), "a;b"],
    ]
    assert csv_text(["x", "n", "flag", "big", "label"], rows) == (
        "x,n,flag,big,label\n0.1,-3,true,inf,nan\n1e-17,7,false,-inf,a;b\n"
    )
    assert csv_text(["x"], []) == "x\n"


def test_output_hashes(tmp_path):
    assert _hashes(tmp_path) == GOLDEN
