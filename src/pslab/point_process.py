"""Sampling of Poisson, binomial, blocked and coupled point processes on boxes.

All samplers are pure functions of (parameters, seed): the same RngSeed always
reproduces the same cloud, bit for bit.  The inhomogeneous sampler realises a
marked-thinning coupling: with a shared seed and a shared sup_bound, clouds for
pointwise-ordered densities are nested.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

REJECTION_CAP = 10**6  # rejected attempts allowed before any one binomial point
_BLOCK_ROWS_MIN, _BLOCK_ROWS_MAX = 64, 2**16  # attempts drawn at once by sample_binomial


class DomainError(ValueError):
    """Invalid parameter for a sampling or geometric operation."""


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, str):
        return v
    raise TypeError(f"no CSV cell rule for {type(v).__name__}")


def csv_text(header: Sequence[str], rows) -> str:
    """The one CSV format of every table pslab writes: a header row, "\n" line
    ends, booleans as true/false, integers in decimal, floats as the repr of
    a Python float (so inf and nan print as such) and strings as given."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buf.getvalue()


@dataclass(frozen=True)
class RngSeed:
    """A (seed, stream) pair; distinct streams are statistically independent."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))

    def derive(self, index: int) -> "RngSeed":
        """Per-replicate stream so batch results do not depend on scheduling."""
        return RngSeed(self.seed, self.stream * 1_000_003 + index + 1)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by inclusive lower/upper corners."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DomainError("box corners must share dimension")
        if any(h < l for l, h in zip(self.lo, self.hi)):
            raise DomainError("box upper corner below lower corner")

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.asarray(self.hi) - np.asarray(self.lo)))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def to_json(self) -> dict:
        return {"kind": "box", "lo": list(self.lo), "hi": list(self.hi)}


@dataclass(frozen=True)
class BallWindow:
    """Closed Euclidean ball window."""

    center: tuple[float, ...]
    radius: float

    @property
    def d(self) -> int:
        return len(self.center)

    def to_json(self) -> dict:
        return {"kind": "ball", "center": list(self.center), "radius": self.radius}


Window = Box | BallWindow


def unit_box(d: int) -> Box:
    return Box((0.0,) * d, (1.0,) * d)


def window_from_json(obj: dict) -> Window:
    if obj["kind"] == "box":
        return Box(tuple(obj["lo"]), tuple(obj["hi"]))
    if obj["kind"] == "ball":
        return BallWindow(tuple(obj["center"]), float(obj["radius"]))
    raise DomainError(f"unknown window kind {obj['kind']!r}")


@dataclass(frozen=True)
class PointCloud:
    """A finite simple point set together with its sampling window."""

    points: np.ndarray  # shape (n, d)
    window: Window

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            pts = pts.reshape(0, self.window.d) if pts.size == 0 else pts.reshape(1, -1)
        object.__setattr__(self, "points", pts)
        if not np.all(np.isfinite(pts)):
            raise DomainError("point coordinates must be finite")
        if pts.shape[1] != self.window.d:
            raise DomainError("point dimension does not match window")

    @property
    def d(self) -> int:
        return self.window.d

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def translate(self, v) -> "PointCloud":
        v = np.asarray(v, dtype=float)
        if isinstance(self.window, Box):
            w: Window = Box(tuple(np.asarray(self.window.lo) + v), tuple(np.asarray(self.window.hi) + v))
        else:
            w = BallWindow(tuple(np.asarray(self.window.center) + v), self.window.radius)
        return PointCloud(self.points + v, w)

    def scale(self, a: float) -> "PointCloud":
        if a <= 0:
            raise DomainError("scale factor must be positive")
        if isinstance(self.window, Box):
            w: Window = Box(tuple(a * np.asarray(self.window.lo)), tuple(a * np.asarray(self.window.hi)))
        else:
            w = BallWindow(tuple(a * np.asarray(self.window.center)), a * self.window.radius)
        return PointCloud(a * self.points, w)

    def to_csv(self) -> str:
        return csv_text([f"x{i}" for i in range(self.d)], self.points)

    def to_json_envelope(self, seed: RngSeed | None = None, density: dict | None = None) -> str:
        obj = {
            "window": self.window.to_json(),
            "seed": None if seed is None else {"seed": seed.seed, "stream": seed.stream},
            "density": density,
            "points": [[float(x) for x in row] for row in self.points],
        }
        return json.dumps(obj, indent=2, sort_keys=True)


def cloud_from_csv(text: str, window: Window) -> PointCloud:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if header != [f"x{i}" for i in range(len(header))]:
        raise DomainError("unexpected point-cloud CSV header")
    pts = np.array([[float(x) for x in row] for row in body], dtype=float)
    if pts.size == 0:
        pts = np.empty((0, window.d))
    return PointCloud(pts, window)


# ---------------------------------------------------------------------------
# Densities on the unit cube
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Density:
    """A probability density on [0,1]^d, bounded away from 0 and infinity.

    The evaluator is row-wise: given an (N, d) array it returns the N values
    of the density at its rows, shape (N,).  Samplers evaluate whole blocks
    of points in one call.
    """

    d: int
    sup_bound: float
    inf_bound: float
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.inf_bound <= 0:
            raise DomainError("density must be bounded away from zero")
        if self.sup_bound < self.inf_bound:
            raise DomainError("sup_bound below inf_bound")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        values = np.asarray(self.evaluator(x), dtype=float)
        if values.shape != (x.shape[0],):
            raise DomainError(f"density evaluator returned shape {values.shape} for {x.shape[0]} rows, not one value per row")
        return values


def constant_density(d: int) -> Density:
    return Density(
        d=d,
        sup_bound=1.0,
        inf_bound=1.0,
        evaluator=lambda x: np.ones(x.shape[0]),
    )


@dataclass(frozen=True)
class BlockedDensity:
    """Piecewise-constant density on the regular m^d grid of subcubes of [0,1]^d."""

    d: int
    m: int
    weights: tuple[float, ...]  # one positive weight per cell, C-order over the grid

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("grid resolution must be positive")
        if len(self.weights) != self.m**self.d:
            raise DomainError("need one weight per grid cell")
        if any(w <= 0 for w in self.weights):
            raise DomainError("blocked density weights must be positive")
        total = sum(self.weights) * self.m ** (-self.d)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"blocked density does not integrate to 1 (got {total})")

    def cell_index(self, x: np.ndarray) -> np.ndarray:
        idx = np.clip((np.atleast_2d(x) * self.m).astype(int), 0, self.m - 1)
        flat = np.zeros(idx.shape[0], dtype=int)
        for k in range(self.d):
            flat = flat * self.m + idx[:, k]
        return flat

    def as_density(self) -> Density:
        w = np.asarray(self.weights, dtype=float)
        return Density(
            d=self.d,
            sup_bound=float(w.max()),
            inf_bound=float(w.min()),
            evaluator=lambda x: w[self.cell_index(x)],
        )


def density_from_json(obj: dict) -> Density:
    d = int(obj["d"])
    if obj["kind"] == "constant":
        return constant_density(d)
    if obj["kind"] == "blocked":
        return BlockedDensity(d, int(obj["m"]), tuple(float(w) for w in obj["weights"])).as_density()
    raise DomainError(f"unknown density kind {obj['kind']!r}")


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------


def sample_poisson_homogeneous(lam: float, box: Box, seed: RngSeed) -> PointCloud:
    """Homogeneous Poisson process of intensity lam on a box."""
    if lam < 0:
        raise DomainError("intensity must be nonnegative")
    if box.volume <= 0:
        raise DomainError("box must have positive volume")
    rng = seed.generator()
    n = int(rng.poisson(lam * box.volume))
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    pts = lo + rng.random((n, box.d)) * (hi - lo)
    return PointCloud(pts, box)


def sample_poisson_inhomogeneous(density: Density, n: float, seed: RngSeed) -> PointCloud:
    """Poisson process with intensity measure n * density on [0,1]^d.

    Realised by thinning a driving homogeneous process of intensity
    n * sup_bound with independent uniform marks t in [0, sup_bound): a driving
    point (x, t) survives iff t <= density(x).  Two calls that share the seed
    and the sup_bound therefore share the driving marks, which couples the
    resulting clouds (kappa <= kappa' pointwise gives nested clouds).
    """
    if n <= 0:
        raise DomainError("expected point count must be positive")
    box = unit_box(density.d)
    rng = seed.generator()
    total = int(rng.poisson(n * density.sup_bound))
    xs = rng.random((total, density.d))
    marks = rng.random(total) * density.sup_bound
    keep = marks <= density(xs) if total else np.zeros(0, dtype=bool)
    return PointCloud(xs[keep], box)


def sample_binomial(n: int, density: Density, seed: RngSeed) -> PointCloud:
    """Exactly n i.i.d. points with the given density (rejection sampling).

    Attempt j is row j of a block rng.random((rows, d + 1)): a point in its
    first d doubles and a mark in its last, the same doubles as one
    rng.random(d) and one rng.random() per attempt.  Rows are accepted in
    order while mark * sup_bound <= density(point); the generator is local to
    the call, so rows drawn past the n-th acceptance are never seen.  It raises
    DomainError once REJECTION_CAP rows in a row, counted across blocks, are
    rejected before one point.
    """
    if n < 0:
        raise DomainError("point count must be nonnegative")
    d, sup = density.d, density.sup_bound
    rng = seed.generator()
    pts = np.empty((n, d))
    got = run = 0  # points accepted; rejected rows since the last acceptance
    while got < n:
        # about one block for the missing points, doubling while a run of
        # rejections outgrows it, and bounded however loose the sup_bound is
        rows = int(min(_BLOCK_ROWS_MAX, max(_BLOCK_ROWS_MIN, 1.25 * (n - got) * sup, run)))
        u = rng.random((rows, d + 1))
        hit = np.flatnonzero(u[:, d] * sup <= density(u[:, :d]))[: n - got]
        gaps = np.diff(hit, prepend=-1 - run) - 1  # rejected rows before each hit
        run = rows - 1 - int(hit[-1]) if hit.size else run + rows
        pts[got : got + hit.size] = u[hit, :d]
        got += hit.size
        if gaps.max(initial=0) >= REJECTION_CAP or (got < n and run >= REJECTION_CAP):
            raise DomainError("rejection sampling exceeded retry cap; density is inconsistent with sup_bound")
    return PointCloud(pts, unit_box(d))


def lattice_cube(z: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Half-open unit cube Q(z) = (-1/2, 1/2]^d + z, returned as (lo, hi)."""
    z = np.asarray(z, dtype=float)
    return z - 0.5, z + 0.5


def in_lattice_cube(pts: np.ndarray, z: Sequence[float]) -> np.ndarray:
    lo, hi = lattice_cube(z)
    if pts.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return np.all((pts > lo) & (pts <= hi), axis=1)


def swap_window(P: PointCloud, P_prime: PointCloud, z: Sequence[float]) -> PointCloud:
    """Replace the points of P inside Q(z) with those of P_prime inside Q(z)."""
    if P.d != P_prime.d:
        raise DomainError("clouds must share dimension")
    keep = P.points[~in_lattice_cube(P.points, z)]
    swapped_in = P_prime.points[in_lattice_cube(P_prime.points, z)]
    pts = np.vstack([keep, swapped_in]) if keep.size or swapped_in.size else np.empty((0, P.d))
    return PointCloud(pts, P.window)
