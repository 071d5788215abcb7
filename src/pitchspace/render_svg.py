"""Deterministic SVG rendering of space-score frames.

Attackers are drawn in the red family, defenders in blue; dominance regions
are tinted by the owner's score through a linear colormap, offside-excluded
players are drawn hollow without a score label, and the ball gets its own
glyph. Identical inputs produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from xml.sax.saxutils import escape

from .dominance import ATTACKING, DEFENDING, DominanceField, SpaceScoreTable
from .match_io import TrackedFrame

SCALE = 8.0  # px per meter
MARGIN = 20.0
ATTACK_RGB = (211, 47, 47)
DEFEND_RGB = (30, 136, 229)
PITCH_RGB = (43, 109, 61)


@dataclass
class RenderOptions:
    show_voronoi_boundaries: bool = False
    show_scores: bool = True
    score_min: float | None = None
    score_max: float | None = None

    def __post_init__(self) -> None:
        if (
            self.score_min is not None
            and self.score_max is not None
            and not self.score_min < self.score_max
        ):
            raise ValueError("colormap range must satisfy min < max")


def _mix(base: tuple[int, int, int], t: float) -> str:
    """Linear white-to-base ramp; a floor keeps low scores visible."""
    t = 0.15 + 0.85 * min(max(t, 0.0), 1.0)
    r, g, b = (round(255 + (c - 255) * t) for c in base)
    return f"#{r:02x}{g:02x}{b:02x}"


def _score_range(scores: SpaceScoreTable, opts: RenderOptions) -> tuple[float, float]:
    vals = [e.score for e in scores if not e.excluded_offside]
    lo = opts.score_min if opts.score_min is not None else (min(vals) if vals else 0.0)
    hi = opts.score_max if opts.score_max is not None else (max(vals) if vals else 1.0)
    if not lo < hi:
        hi = lo + 1.0
    return lo, hi


def render_frame_svg(
    frame: TrackedFrame,
    scores: SpaceScoreTable,
    field: DominanceField,
    opts: RenderOptions,
) -> str:
    """Render one oriented frame (teams labeled attacking/defending) to SVG text."""
    teams = {p.player_id: p.team for p in frame.players}
    bad = [t for t in teams.values() if t not in (ATTACKING, DEFENDING)]
    if bad:
        raise ValueError(f"frame must be role-labeled (attacking/defending), got {bad[0]!r}")
    pitch = field.pitch
    lo, hi = _score_range(scores, opts)

    def fx(x: float) -> str:
        return f"{MARGIN + (x + pitch.half_length) * SCALE:.2f}"

    def fy(y: float) -> str:
        return f"{MARGIN + (pitch.half_width - y) * SCALE:.2f}"

    width = 2 * MARGIN + pitch.length * SCALE
    height = 2 * MARGIN + pitch.width * SCALE
    out: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#1a3a23"/>',
    ]

    # Dominance regions, row-run-length encoded into rects.
    xs, ys = pitch.cell_centers()
    cell = pitch.grid_cell
    colors = {}
    for pid, entry in scores.entries.items():
        base = DEFEND_RGB if teams.get(pid) == DEFENDING else ATTACK_RGB
        colors[pid] = _mix(base, (entry.score - lo) / (hi - lo))
    out.append('<g class="regions" opacity="0.6">')
    for iy in range(field.owner.shape[0]):
        row = field.owner[iy]
        start = 0
        for ix in range(1, len(row) + 1):
            if ix == len(row) or row[ix] != row[start]:
                pid = field.player_ids[int(row[start])]
                x0 = xs[start] - cell / 2
                y0 = ys[iy] + cell / 2
                out.append(
                    f'<rect x="{fx(x0)}" y="{fy(y0)}" '
                    f'width="{(ix - start) * cell * SCALE:.2f}" height="{cell * SCALE:.2f}" '
                    f'fill="{colors[pid]}"/>'
                )
                start = ix
    out.append("</g>")

    if opts.show_voronoi_boundaries:
        segs: list[str] = []
        ow = field.owner
        for iy in range(ow.shape[0]):
            for ix in range(ow.shape[1] - 1):
                if ow[iy, ix] != ow[iy, ix + 1]:
                    x = xs[ix] + cell / 2
                    segs.append(
                        f"M{fx(x)} {fy(ys[iy] - cell / 2)} L{fx(x)} {fy(ys[iy] + cell / 2)}"
                    )
        for iy in range(ow.shape[0] - 1):
            for ix in range(ow.shape[1]):
                if ow[iy, ix] != ow[iy + 1, ix]:
                    y = ys[iy] + cell / 2
                    segs.append(
                        f"M{fx(xs[ix] - cell / 2)} {fy(y)} L{fx(xs[ix] + cell / 2)} {fy(y)}"
                    )
        out.append(
            f'<path class="boundaries" d="{" ".join(segs)}" stroke="#ffffff" '
            'stroke-width="0.8" fill="none" opacity="0.7"/>'
        )

    # Pitch markings.
    out.append(
        f'<rect x="{fx(-pitch.half_length)}" y="{fy(pitch.half_width)}" '
        f'width="{pitch.length * SCALE:.2f}" height="{pitch.width * SCALE:.2f}" '
        'fill="none" stroke="#e8e8e8" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{fx(0)}" y1="{fy(pitch.half_width)}" x2="{fx(0)}" '
        f'y2="{fy(-pitch.half_width)}" stroke="#e8e8e8" stroke-width="1.5"/>'
    )
    out.append(
        f'<circle cx="{fx(0)}" cy="{fy(0)}" r="{9.15 * SCALE:.2f}" '
        'fill="none" stroke="#e8e8e8" stroke-width="1.5"/>'
    )

    for p in sorted(frame.players, key=lambda q: q.player_id):
        entry = scores.entries.get(p.player_id)
        base = DEFEND_RGB if p.team == DEFENDING else ATTACK_RGB
        stroke = f"#{base[0]:02x}{base[1]:02x}{base[2]:02x}"
        pid = escape(p.player_id)
        out.append(f'<g class="glyph player" id="p-{pid}">')
        if entry is not None and entry.excluded_offside:
            # Offside players are excluded from the calculation: hollow, no score.
            out.append(
                f'<circle cx="{fx(p.pos.x)}" cy="{fy(p.pos.y)}" r="{1.2 * SCALE:.2f}" '
                f'fill="none" stroke="{stroke}" stroke-width="2.0" stroke-dasharray="3 2"/>'
            )
        else:
            fill = colors.get(p.player_id, stroke)
            out.append(
                f'<circle cx="{fx(p.pos.x)}" cy="{fy(p.pos.y)}" r="{1.2 * SCALE:.2f}" '
                f'fill="{fill}" stroke="{stroke}" stroke-width="1.5"/>'
            )
            if opts.show_scores and entry is not None:
                out.append(
                    f'<text x="{fx(p.pos.x)}" y="{fy(p.pos.y - 2.4)}" class="score" '
                    'font-family="monospace" font-size="10" fill="#ffffff" '
                    f'text-anchor="middle">{entry.score:.1f}</text>'
                )
        out.append("</g>")

    out.append('<g class="glyph ball">')
    out.append(
        f'<circle cx="{fx(frame.ball.pos.x)}" cy="{fy(frame.ball.pos.y)}" '
        f'r="{0.6 * SCALE:.2f}" fill="#ffffff" stroke="#111111" stroke-width="1.5"/>'
    )
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_animation_svg(rendered_frames: list[str], frame_seconds: float = 0.1) -> str:
    """Concatenate per-frame SVG bodies into one timed document.

    Each frame becomes a hidden group revealed for its time slot (plays once).
    """
    if not rendered_frames:
        raise ValueError("no frames to animate")
    first = rendered_frames[0].splitlines()
    svg_open = first[1]
    out = ['<?xml version="1.0" encoding="UTF-8"?>', svg_open]
    for i, doc in enumerate(rendered_frames):
        body = doc.splitlines()[2:-1]  # strip xml decl, <svg>, </svg>
        begin = i * frame_seconds
        out.append(f'<g display="none">')
        out.append(
            f'<set attributeName="display" to="inline" begin="{begin:.2f}s" '
            f'dur="{frame_seconds:.2f}s"/>'
        )
        out.extend(body)
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
