"""Attribution and counter reports over a :class:`~repro.obs.trace.Tracer`.

The attribution answers ROADMAP's standing question — *where does
kernel wall-clock time actually go?* — by billing the host time spent
inside each dispatched callable to the subsystem that defines it
(``hw.nic``, ``sim.timer``, ``hw.cpu``, ...). The counters section is
the metrics registry instrumentation points feed.
"""

from __future__ import annotations

from .trace import Tracer

__all__ = ["render_attribution", "render_counters", "render_report"]


def render_attribution(tracer: Tracer, top_sites: int = 8) -> str:
    """Kernel time by subsystem (and the hottest dispatch sites)."""
    total = tracer.total_wall_ns()
    if not total:
        return "attribution: no dispatches traced"
    lines = [
        f"kernel time attribution ({tracer.dispatches} dispatches, "
        f"{total / 1e6:.1f} ms inside handlers):"
    ]
    for subsystem, ns in sorted(tracer.wall_ns.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {subsystem:<24} {ns / 1e6:9.2f} ms  {100.0 * ns / total:5.1f}%"
        )
    lines.append(f"top cost center: {tracer.top_cost_center()}")
    sites = sorted(tracer.wall_ns_sites.items(), key=lambda kv: -kv[1])[:top_sites]
    if sites:
        lines.append("hottest sites:")
        for site, ns in sites:
            lines.append(
                f"  {site:<44} {ns / 1e6:9.2f} ms  {100.0 * ns / total:5.1f}%"
            )
    return "\n".join(lines)


def render_counters(tracer: Tracer) -> str:
    """The counter registry as aligned text."""
    if not tracer.counters:
        return "counters: none recorded"
    lines = ["counters:"]
    for name, value in sorted(tracer.counters.items()):
        lines.append(f"  {name:<32} {value:>12,}")
    return "\n".join(lines)


def render_report(tracer: Tracer) -> str:
    """The full plain-text report: attribution + counters + buffer state."""
    parts = [render_attribution(tracer), render_counters(tracer)]
    if tracer.dropped:
        parts.append(
            f"ring buffer wrapped: {tracer.dropped} oldest records dropped "
            f"(kept {len(tracer)})"
        )
    return "\n\n".join(parts)
