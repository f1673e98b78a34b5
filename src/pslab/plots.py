"""Deterministic SVG plot emission: no display dependency, stable bytes.

All numbers are formatted with %.6g so identical inputs produce identical
files.
"""

from __future__ import annotations

import csv
import math
import os

from scipy.special import ndtri

WIDTH, HEIGHT = 480, 360
MARGIN = 48
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _f(v: float) -> str:
    return "%.6g" % v


class Canvas:
    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.parts: list[str] = []
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel

    def add(self, s: str):
        self.parts.append(s)

    def line(self, x1, y1, x2, y2, color="#333333", width=1.0, dashed=False):
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.add(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{color}" stroke-width="{_f(width)}"{dash}/>'
        )

    def circle(self, x, y, r=2.5, color="#1f77b4"):
        self.add(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="{_f(r)}" fill="{color}"/>')

    def rect(self, x, y, w, h, fill="#cccccc", opacity=0.4):
        self.add(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}" fill-opacity="{_f(opacity)}"/>'
        )

    def text(self, x, y, s, size=12, anchor="middle"):
        self.add(f'<text x="{_f(x)}" y="{_f(y)}" font-size="{size}" text-anchor="{anchor}" font-family="sans-serif">{s}</text>')

    def polyline(self, pts, color="#1f77b4", width=1.5):
        coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in pts)
        self.add(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{_f(width)}"/>')

    def render(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
        )
        frame = Canvas("", "", "")
        frame.line(MARGIN, HEIGHT - MARGIN, WIDTH - MARGIN, HEIGHT - MARGIN)
        frame.line(MARGIN, MARGIN, MARGIN, HEIGHT - MARGIN)
        frame.text(WIDTH / 2, 24, self.title, size=14)
        frame.text(WIDTH / 2, HEIGHT - 10, self.xlabel)
        frame.text(14, HEIGHT / 2, self.ylabel)
        return head + "\n".join(frame.parts + self.parts) + "\n</svg>\n"


class Scale:
    """Affine map from data coordinates to the plot frame (y inverted)."""

    def __init__(self, xlo, xhi, ylo, yhi):
        self.xlo, self.xhi = xlo, max(xhi, xlo + 1e-12)
        self.ylo, self.yhi = ylo, max(yhi, ylo + 1e-12)

    def x(self, v):
        return MARGIN + (v - self.xlo) / (self.xhi - self.xlo) * (WIDTH - 2 * MARGIN)

    def y(self, v):
        return HEIGHT - MARGIN - (v - self.ylo) / (self.yhi - self.ylo) * (HEIGHT - 2 * MARGIN)


def qq_plot(samples, title: str) -> str:
    xs = sorted(samples)
    n = len(xs)
    mean = sum(xs) / n
    var = sum((v - mean) ** 2 for v in xs) / max(n - 1, 1)
    sd = math.sqrt(var) if var > 0 else 1.0
    zs = [(v - mean) / sd for v in xs]
    qs = [float(ndtri((i - 0.5) / n)) for i in range(1, n + 1)]
    lo = min(qs[0], zs[0], -3.0)
    hi = max(qs[-1], zs[-1], 3.0)
    sc = Scale(lo, hi, lo, hi)
    c = Canvas(title, "normal quantiles", "sample quantiles")
    c.line(sc.x(lo), sc.y(lo), sc.x(hi), sc.y(hi), color="#999999", dashed=True)
    for qv, zv in zip(qs, zs):
        c.circle(sc.x(qv), sc.y(zv))
    return c.render()


def survival_plot(rows: list[dict], title: str = "radius tail survival") -> str:
    """Log-y survival curves, one per (lambda, r, q, statistic) cell."""
    floor = 1e-3
    groups: dict[tuple, list] = {}
    for row in rows:
        key = (row["lambda"], row["r"], row["q"], row["statistic"])
        groups.setdefault(key, []).append((float(row["L"]), float(row["survival"])))
    all_l = [L for pts in groups.values() for L, _ in pts] or [0.0, 1.0]
    sc = Scale(min(all_l), max(all_l), math.log10(floor), 0.0)
    c = Canvas(title, "L", "log10 P(radius > L)")
    for k, key in enumerate(sorted(groups)):
        pts = sorted(groups[key])
        line = [(sc.x(L), sc.y(math.log10(max(s, floor)))) for L, s in pts]
        color = PALETTE[k % len(PALETTE)]
        c.polyline(line, color=color)
    return c.render()


def variance_vs_n_plot(rows: list[dict], title: str = "n^{-1} variance vs n") -> str:
    """Diagonal covariance entries per n, one curve per coordinate."""
    groups: dict[int, list] = {}
    for row in rows:
        if int(row["i"]) == int(row["j"]):
            groups.setdefault(int(row["i"]), []).append((int(row["n"]), float(row["value"])))
    ns = [n for pts in groups.values() for n, _ in pts] or [1]
    vs = [v for pts in groups.values() for _, v in pts] or [0.0, 1.0]
    sc = Scale(min(ns), max(ns), min(min(vs), 0.0), max(max(vs), 1e-12))
    c = Canvas(title, "n", "variance")
    for k, i in enumerate(sorted(groups)):
        pts = sorted(groups[i])
        c.polyline([(sc.x(n), sc.y(v)) for n, v in pts], color=PALETTE[k % len(PALETTE)])
        for n, v in pts:
            c.circle(sc.x(n), sc.y(v), color=PALETTE[k % len(PALETTE)])
    return c.render()


def diagram_plot(rows: list[dict], query: tuple | None = None, title: str = "persistence diagram") -> str:
    """Birth/death scatter; a query (r,s) shades the counted rectangle with a
    dashed lower edge (death = s excluded) and solid left edge."""
    finite = [float(r["death"]) for r in rows if not math.isinf(float(r["death"]))]
    births = [float(r["birth"]) for r in rows]
    top = max(finite + births + [query[1] if query else 0.0, 1.0]) * 1.25
    hi = max(births + [query[0] if query else 0.0, 1.0]) * 1.1
    sc = Scale(0.0, max(hi, top), 0.0, top)
    c = Canvas(title, "birth", "death")
    c.line(sc.x(0), sc.y(0), sc.x(min(hi, top)), sc.y(min(hi, top)), color="#999999")
    if query is not None:
        r, s = query
        c.rect(sc.x(0), sc.y(top), sc.x(r) - sc.x(0), sc.y(s) - sc.y(top), fill="#ffcccc")
        c.line(sc.x(0), sc.y(s), sc.x(r), sc.y(s), color="#d62728", dashed=True)
        c.line(sc.x(0), sc.y(s), sc.x(0), sc.y(top), color="#d62728")
    for row in rows:
        q = int(row["q"])
        d = float(row["death"])
        y = sc.y(top) if math.isinf(d) else sc.y(d)
        c.circle(sc.x(float(row["birth"])), y, color=PALETTE[q % len(PALETTE)])
    return c.render()


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def emit_plots(result_dir: str, diagram_query: tuple | None = None) -> list[str]:
    """Render every plot the directory's CSVs support; returns written paths."""
    written = []

    def save(name: str, svg: str):
        path = os.path.join(result_dir, name)
        with open(path, "w", newline="") as fh:
            fh.write(svg)
        written.append(path)

    rep_path = os.path.join(result_dir, "replicates.csv")
    if os.path.exists(rep_path):
        rows = _read_csv(rep_path)
        if rows:
            n_max = max(int(r["n"]) for r in rows)
            pair_ids = sorted({int(r["pair_index"]) for r in rows})
            for i in pair_ids:
                samples = [
                    float(r["standardized"]) for r in rows if int(r["n"]) == n_max and int(r["pair_index"]) == i
                ]
                if len(samples) >= 3:
                    save(f"qq_{i}.svg", qq_plot(samples, f"QQ plot, pair {i}, n={n_max}"))
    tails_path = os.path.join(result_dir, "tails.csv")
    if os.path.exists(tails_path):
        save("survival.svg", survival_plot(_read_csv(tails_path)))
    cov_path = os.path.join(result_dir, "covariance.csv")
    if os.path.exists(cov_path):
        save("variance_vs_n.svg", variance_vs_n_plot(_read_csv(cov_path)))
    diag_path = os.path.join(result_dir, "diagram.csv")
    if os.path.exists(diag_path):
        save("diagram.svg", diagram_plot(_read_csv(diag_path), diagram_query))
    if not written:
        raise FileNotFoundError(f"no plottable CSV files in {result_dir}")
    return written
