"""Static SVG rendering of study summaries: boxplot panels and prior-vs-prior scatters.

Everything is drawn from the aggregated summary table (not raw rows), with
fixed geometry and no timestamps or generated ids, so the same summary always
yields the same bytes.  Each drawn box lives in its own ``<g class="box">``
group, which keeps the output easy to assert on.
"""

from __future__ import annotations

import itertools
from typing import Sequence

PANEL_W = 380
PANEL_H = 280
MARGIN_L = 52
MARGIN_B = 42
MARGIN_T = 30
MARGIN_R = 14

_PRIOR_COLORS = {"wi": "#4477aa", "st": "#ee6677", "si": "#228833"}


def _color(prior: str) -> str:
    return _PRIOR_COLORS.get(prior, "#888888")


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".") if value == value else "0"


def _axes(x0: float, y0: float, title: str, x_label: str, y_label: str) -> tuple[tuple, list[str]]:
    """The plot area ``(left, top, right, bottom)`` of the panel at ``(x0, y0)``, and its frame and labels."""
    left = x0 + MARGIN_L
    top = y0 + MARGIN_T
    right = x0 + PANEL_W - MARGIN_R
    bottom = y0 + PANEL_H - MARGIN_B
    return (left, top, right, bottom), [
        f'<rect x="{left}" y="{top}" width="{right - left}" height="{bottom - top}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
        f'<text x="{x0 + PANEL_W / 2:.1f}" y="{y0 + 18}" text-anchor="middle" '
        f'font-size="13" font-weight="bold">{title}</text>',
        f'<text x="{x0 + PANEL_W / 2:.1f}" y="{y0 + PANEL_H - 8}" text-anchor="middle" '
        f'font-size="11">{x_label}</text>',
        f'<text x="{x0 + 14}" y="{y0 + PANEL_H / 2:.1f}" text-anchor="middle" font-size="11" '
        f'transform="rotate(-90 {x0 + 14} {y0 + PANEL_H / 2:.1f})">{y_label}</text>',
    ]


def _box_panel(rows: Sequence[dict], metric: str, x0: float, y0: float) -> list[str]:
    """One boxplot panel: groups on the x axis are sample sizes, boxes are priors."""
    rows = [r for r in rows if r["metric"] == metric]
    (left, top, right, bottom), parts = _axes(x0, y0, f"separation study: {metric}", "observations", metric)

    def sy(v: float) -> float:
        return bottom - max(0.0, min(1.0, v)) * (bottom - top)

    for frac in (0.0, 0.5, 1.0):
        parts.append(
            f'<text x="{left - 6}" y="{sy(frac) + 4:.1f}" text-anchor="end" font-size="10">'
            f"{_fmt(frac)}</text>"
        )
    if not rows:
        return parts

    sizes = sorted({r["n_obs"] for r in rows})
    priors = sorted({r["prior_name"] for r in rows})
    group_w = (right - left) / len(sizes)
    box_w = min(26.0, group_w / (len(priors) + 1))
    for gi, n_obs in enumerate(sizes):
        gx = left + (gi + 0.5) * group_w
        parts.append(
            f'<text x="{gx:.1f}" y="{bottom + 16}" text-anchor="middle" font-size="10">{n_obs}</text>'
        )
        for pi, prior in enumerate(priors):
            match = [r for r in rows if r["n_obs"] == n_obs and r["prior_name"] == prior]
            if not match:
                continue
            rec = match[0]
            cx = gx + (pi - (len(priors) - 1) / 2) * (box_w + 6)
            color = _color(prior)
            y_lo, y_q1, y_med, y_q3, y_hi = (
                sy(rec["lo"]),
                sy(rec["q1"]),
                sy(rec["median"]),
                sy(rec["q3"]),
                sy(rec["hi"]),
            )
            parts.append(
                f'<g class="box" fill="{color}" stroke="{color}">'
                f'<line x1="{cx:.1f}" y1="{y_lo:.1f}" x2="{cx:.1f}" y2="{y_hi:.1f}" stroke-width="1"/>'
                f'<rect x="{cx - box_w / 2:.1f}" y="{y_q3:.1f}" width="{box_w:.1f}" '
                f'height="{max(y_q1 - y_q3, 0.5):.1f}" fill-opacity="0.35" stroke-width="1"/>'
                f'<line x1="{cx - box_w / 2:.1f}" y1="{y_med:.1f}" x2="{cx + box_w / 2:.1f}" '
                f'y2="{y_med:.1f}" stroke-width="2"/>'
                "</g>"
            )
    for pi, prior in enumerate(priors):
        lx = left + 10 + pi * 70
        parts.append(
            f'<rect x="{lx}" y="{top + 6}" width="10" height="10" fill="{_color(prior)}" '
            'fill-opacity="0.5"/>'
            f'<text x="{lx + 14}" y="{top + 15}" font-size="10">{prior}</text>'
        )
    return parts


def _scatter_panel(
    rows: Sequence[dict], prior_x: str, prior_y: str, x0: float, y0: float
) -> list[str]:
    """Mean normalized parent counts of two priors per cell, with the identity diagonal."""
    (left, top, right, bottom), parts = _axes(
        x0,
        y0,
        "lindley study: fitted/true edges",
        f"{prior_x} normalized parents",
        f"{prior_y} normalized parents",
    )

    by_cell: dict[tuple, dict[str, float]] = {}
    for r in rows:
        by_cell.setdefault((r["density"], r["n_obs"]), {})[r["prior_name"]] = r["mean"]
    points = [
        (vals[prior_x], vals[prior_y])
        for _, vals in sorted(by_cell.items())
        if prior_x in vals and prior_y in vals
    ]
    limit = max([1.25] + [max(px, py) * 1.1 for px, py in points])

    def sx(v: float) -> float:
        return left + max(0.0, min(limit, v)) / limit * (right - left)

    def sy(v: float) -> float:
        return bottom - max(0.0, min(limit, v)) / limit * (bottom - top)

    parts.append(
        f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(limit):.1f}" y2="{sy(limit):.1f}" '
        'stroke="#999" stroke-dasharray="4,3" stroke-width="1"/>'
    )
    for tick in (0.0, 1.0):
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{bottom + 16}" text-anchor="middle" font-size="10">'
            f"{_fmt(tick)}</text>"
        )
        parts.append(
            f'<text x="{left - 6}" y="{sy(tick) + 4:.1f}" text-anchor="end" font-size="10">'
            f"{_fmt(tick)}</text>"
        )
    for px, py in points:
        parts.append(
            f'<circle class="pt" cx="{sx(px):.1f}" cy="{sy(py):.1f}" r="3.5" '
            'fill="#cc3311" fill-opacity="0.8"/>'
        )
    return parts


def render_summary_svg(summary: Sequence[dict]) -> str:
    """Render a summary table (as produced by ``summarize_rows``) to SVG text.

    Separation cells become TPR and FPR boxplot panels; Lindley cells become
    one scatter panel per unordered prior pair.  An empty summary still yields
    a valid document with one empty axes frame.
    """
    separation = [r for r in summary if r["study"] == "separation"]
    lindley = [
        r for r in summary if r["study"] == "lindley" and r["metric"] == "normalized_parents"
    ]

    panel_specs = []
    if separation:
        panel_specs.append(("box", separation, "tpr"))
        panel_specs.append(("box", separation, "fpr"))
    if lindley:
        priors = sorted({r["prior_name"] for r in lindley})
        for prior_x, prior_y in itertools.combinations(priors, 2):
            panel_specs.append(("scatter", lindley, (prior_x, prior_y)))
        if len(priors) == 1:
            panel_specs.append(("scatter", lindley, (priors[0], priors[0])))
    if not panel_specs:
        panel_specs.append(("box", [], "tpr"))

    per_row = 2
    n_rows = (len(panel_specs) + per_row - 1) // per_row
    width = PANEL_W * min(per_row, len(panel_specs))
    height = PANEL_H * n_rows
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for i, (kind, rows, extra) in enumerate(panel_specs):
        x0 = (i % per_row) * PANEL_W
        y0 = (i // per_row) * PANEL_H
        if kind == "box":
            parts.extend(_box_panel(rows, extra, x0, y0))
        else:
            parts.extend(_scatter_panel(rows, extra[0], extra[1], x0, y0))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
