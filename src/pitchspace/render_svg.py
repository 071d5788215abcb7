"""Deterministic SVG rendering of space-score frames.

Attackers are drawn in the red family, defenders in blue; dominance regions
are tinted by the owner's score through a linear colormap, offside-excluded
players are drawn hollow without a score label, and the ball gets its own
glyph. Identical inputs produce byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .dominance import ATTACKING, DEFENDING, DominanceField, SpaceScoreTable
from .match_io import TrackedFrame
from .pitch import PitchSpec

SCALE = 8.0  # px per meter
MARGIN = 20.0
ATTACK_RGB = (211, 47, 47)
DEFEND_RGB = (30, 136, 229)
_STROKES = {team_is_defending: "#{:02x}{:02x}{:02x}".format(*rgb)
            for team_is_defending, rgb in ((False, ATTACK_RGB), (True, DEFEND_RGB))}
_PLAYER_R = f"{1.2 * SCALE:.2f}"  # player glyph radius, px
# the attribute-value escapes of a player id; the loader has already rejected
# every character XML 1.0 forbids
_ID_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;"})


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
    r, g, b = base  # unrolled: a generator here costs a fifth of the call
    r, g, b = round(255 + (r - 255) * t), round(255 + (g - 255) * t), round(255 + (b - 255) * t)
    return f"#{r:02x}{g:02x}{b:02x}"


def _score_range(scores: SpaceScoreTable, opts: RenderOptions) -> tuple[float, float]:
    vals = [e.score for e in scores if not e.excluded_offside]
    lo = opts.score_min if opts.score_min is not None else (min(vals) if vals else 0.0)
    hi = opts.score_max if opts.score_max is not None else (max(vals) if vals else 1.0)
    if not lo < hi:
        hi = lo + 1.0
    return lo, hi


def _fx(pitch: PitchSpec, x: float) -> str:
    return f"{MARGIN + (x + pitch.half_length) * SCALE:.2f}"


def _fy(pitch: PitchSpec, y: float) -> str:
    return f"{MARGIN + (pitch.half_width - y) * SCALE:.2f}"


@lru_cache(maxsize=32)
def _grid_labels(pitch: PitchSpec) -> tuple[tuple[str, ...], ...]:
    """Pixel strings of the cell edges (x_left, x_right, y_top, y_bottom):
    they depend only on the pitch, so they are formatted once per pitch."""
    xs, ys = pitch.cell_centers()
    cell = pitch.grid_cell
    return (
        tuple(_fx(pitch, x - cell / 2) for x in xs),
        tuple(_fx(pitch, x + cell / 2) for x in xs),
        tuple(_fy(pitch, y + cell / 2) for y in ys),
        tuple(_fy(pitch, y - cell / 2) for y in ys),
    )


@lru_cache(maxsize=32)
def _rect_fragments(pitch: PitchSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed text of a region rect, as read-only object arrays: from its
    start to its y per cell column, from its y to its width per cell row, and
    from its width to its fill per run width in cells (0 to nx)."""
    x_left, _, y_top, _ = _grid_labels(pitch)
    cell = pitch.grid_cell
    height = f"{cell * SCALE:.2f}"
    fragments = (
        [f'<rect x="{x}" y="' for x in x_left],
        [f'{y}" width="' for y in y_top],
        [f'{n * cell * SCALE:.2f}" height="{height}" fill="' for n in range(pitch.nx + 1)],
    )
    arrays = tuple(np.array(f, dtype=object) for f in fragments)
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=32)
def _pitch_text(pitch: PitchSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The lines that depend only on the pitch: the document header, up to
    the background, and the pitch markings."""
    fx, fy = partial(_fx, pitch), partial(_fy, pitch)
    width = 2 * MARGIN + pitch.length * SCALE
    height = 2 * MARGIN + pitch.width * SCALE
    header = (
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#1a3a23"/>',
    )
    markings = (
        f'<rect x="{fx(-pitch.half_length)}" y="{fy(pitch.half_width)}" '
        f'width="{pitch.length * SCALE:.2f}" height="{pitch.width * SCALE:.2f}" '
        'fill="none" stroke="#e8e8e8" stroke-width="1.5"/>',
        f'<line x1="{fx(0)}" y1="{fy(pitch.half_width)}" x2="{fx(0)}" '
        f'y2="{fy(-pitch.half_width)}" stroke="#e8e8e8" stroke-width="1.5"/>',
        f'<circle cx="{fx(0)}" cy="{fy(0)}" r="{9.15 * SCALE:.2f}" '
        'fill="none" stroke="#e8e8e8" stroke-width="1.5"/>',
    )
    return header, markings


def render_frame_svg(
    frame: TrackedFrame,
    scores: SpaceScoreTable,
    field: DominanceField,
    opts: RenderOptions,
) -> str:
    """Render one oriented frame (teams labeled attacking/defending) to SVG text."""
    teams = dict(zip(frame.ids, frame.teams.tolist()))
    bad = [t for t in teams.values() if t not in (ATTACKING, DEFENDING)]
    if bad:
        raise ValueError(f"frame must be role-labeled (attacking/defending), got {bad[0]!r}")
    pitch = field.pitch
    lo, hi = _score_range(scores, opts)
    fx, fy = partial(_fx, pitch), partial(_fy, pitch)
    header, markings = _pitch_text(pitch)
    out: list[str] = list(header)

    # Dominance regions: one rect per row run of the field. Each rect joins
    # fragments formatted once per pitch (per column, row and run width) and
    # once per owner, so no number is formatted per cell or per run.
    x_left, x_right, y_top, y_bottom = _grid_labels(pitch)
    colors = {}
    for pid, entry in scores.entries.items():
        base = DEFEND_RGB if teams.get(pid) == DEFENDING else ATTACK_RGB
        colors[pid] = _mix(base, (entry.score - lo) / (hi - lo))
    ends = np.array([f'{colors[pid]}"/>' for pid in field.player_ids], dtype=object)
    ow = field.owner
    run_row, start, stop = field.runs
    at_x, at_y, at_width = _rect_fragments(pitch)
    out.append('<g class="regions" opacity="0.6">')
    out.extend(map("".join, zip(
        at_x[start].tolist(), at_y[run_row].tolist(), at_width[stop - start].tolist(),
        ends[ow[run_row, start]].tolist(),
    )))
    out.append("</g>")

    if opts.show_voronoi_boundaries:
        # Vertical segments (row neighbours differ: where a run opens inside
        # a row), then horizontal ones (column neighbours differ), each in
        # row-major order.
        inner = start > 0
        vertical = zip(run_row[inner].tolist(), (start[inner] - 1).tolist())
        cuts = np.flatnonzero(ow[:-1] != ow[1:])
        horizontal = zip(*(a.tolist() for a in np.divmod(cuts, pitch.nx)))
        segs = [f"M{x_right[ix]} {y_bottom[iy]} L{x_right[ix]} {y_top[iy]}" for iy, ix in vertical]
        segs += [f"M{x_left[ix]} {y_top[iy]} L{x_right[ix]} {y_top[iy]}" for iy, ix in horizontal]
        out.append(
            f'<path class="boundaries" d="{" ".join(segs)}" stroke="#ffffff" '
            'stroke-width="0.8" fill="none" opacity="0.7"/>'
        )

    out.extend(markings)

    for pid, (x, y) in sorted(zip(frame.ids, frame.xy.tolist())):  # ids are unique
        entry = scores.entries.get(pid)
        stroke = _STROKES[teams[pid] == DEFENDING]
        cx, cy = fx(x), fy(y)
        out.append(f'<g class="glyph player" id="p-{pid.translate(_ID_ESCAPES)}">')
        if entry is not None and entry.excluded_offside:
            # Offside players are excluded from the calculation: hollow, no score.
            out.append(
                f'<circle cx="{cx}" cy="{cy}" r="{_PLAYER_R}" '
                f'fill="none" stroke="{stroke}" stroke-width="2.0" stroke-dasharray="3 2"/>'
            )
        else:
            fill = colors.get(pid, stroke)
            out.append(
                f'<circle cx="{cx}" cy="{cy}" r="{_PLAYER_R}" '
                f'fill="{fill}" stroke="{stroke}" stroke-width="1.5"/>'
            )
            if opts.show_scores and entry is not None:
                out.append(
                    f'<text x="{cx}" y="{fy(y - 2.4)}" class="score" '
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
