"""Plain-text rendering of experiment results.

Everything the paper shows as a figure is reproduced here as an ASCII
table or series dump — the repository has no plotting dependency, and
the numbers (not the pixels) are what a reproduction is compared on.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

__all__ = [
    "format_table",
    "format_series",
    "format_histogram",
]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as a fixed-width ASCII table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for value in row:
            if isinstance(value, float):
                rendered.append(float_format.format(value))
            else:
                rendered.append(str(value))
        rendered_rows.append(rendered)
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    name: str, values: Sequence[float], max_points: int = 20, width: int = 40
) -> str:
    """Render a numeric series as a downsampled ASCII sparkline block."""
    if not values:
        return f"{name}: (empty)"
    step = max(1, len(values) // max_points)
    sampled = list(values[::step])
    lo, hi = min(sampled), max(sampled)
    span = hi - lo if hi > lo else 1.0
    lines = [f"{name} (n={len(values)}, min={lo:.3g}, max={hi:.3g})"]
    for i, v in enumerate(sampled):
        bar = "#" * max(1, int((v - lo) / span * width))
        lines.append(f"  [{i * step:>6d}] {v:>10.3g} {bar}")
    return "\n".join(lines)


def format_histogram(
    name: str,
    values: Sequence[float],
    n_bins: int = 12,
    width: int = 40,
) -> str:
    """Render a value histogram as ASCII bars (distribution snapshots)."""
    if not values:
        return f"{name}: (empty)"
    lo, hi = min(values), max(values)
    if hi <= lo:
        return f"{name}: all values = {lo:.4g} (n={len(values)})"
    span = (hi - lo) / n_bins
    counts = [0] * n_bins
    for v in values:
        idx = min(int((v - lo) / span), n_bins - 1)
        counts[idx] += 1
    peak = max(counts)
    lines = [f"{name} (n={len(values)}, min={lo:.4g}, max={hi:.4g})"]
    for i, count in enumerate(counts):
        left = lo + i * span
        bar = "#" * max(0, int(count / peak * width)) if peak else ""
        lines.append(f"  {left:>12.4g} | {bar} {count}")
    return "\n".join(lines)
