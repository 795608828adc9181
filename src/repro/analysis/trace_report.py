"""Summarize and validate Chrome trace-event JSON produced by ``repro.obs``.

The trace-report layer closes the observability loop without leaving the
terminal: ``python -m repro trace-report --input trace.json`` prints the
top-N longest spans, a per-unit occupancy timeline (busy share per time
bucket, rendered as a block-character sparkline) and the per-iteration batch
composition table -- the same questions a Perfetto session answers, reduced
to text.

``validate_chrome_trace`` checks the structural contract of the trace-event
format (the schema Perfetto and ``chrome://tracing`` load) and is what the
CI trace-smoke step runs against every exported trace.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "load_trace",
    "validate_chrome_trace",
    "trace_summary",
    "format_trace_summary",
]

#: Event phases the recorder emits (complete, metadata, flow start/finish).
_KNOWN_PHASES = {"X", "M", "s", "f"}

#: Sparkline glyphs from idle to fully busy.
_SPARK = " ▁▂▃▄▅▆▇█"

#: Buckets in the per-unit occupancy timeline.
_TIMELINE_BUCKETS = 24


def load_trace(path: Union[str, Path]) -> Dict[str, object]:
    """Parse a trace-event JSON file (object form with ``traceEvents``)."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def validate_chrome_trace(trace: object) -> List[str]:
    """Structural errors that would break loading the trace in a viewer.

    Checks the JSON-object trace format: a ``traceEvents`` list whose
    entries carry a known ``ph``, integer ``pid``/``tid``, and -- for
    complete ("X") events -- a name plus non-negative ``ts``/``dur``.  Flow
    events must carry an ``id``.  Returns a list of human-readable errors,
    empty when the trace is well-formed.
    """
    errors: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace has no 'traceEvents' list"]
    for index, event in enumerate(events):
        label = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{label}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{label}: unknown phase {ph!r}")
            continue
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                errors.append(f"{label}: missing integer {field!r}")
        if ph == "X":
            if not event.get("name"):
                errors.append(f"{label}: complete event without a name")
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    errors.append(f"{label}: bad {field!r} {value!r}")
        elif ph in ("s", "f"):
            if "id" not in event:
                errors.append(f"{label}: flow event without an id")
            if not isinstance(event.get("ts"), (int, float)):
                errors.append(f"{label}: flow event without a timestamp")
    return errors


def _names(events: List[dict]) -> Tuple[Dict[int, str], Dict[Tuple[int, int], str]]:
    """(pid -> process name, (pid, tid) -> track name) from metadata events."""
    processes: Dict[int, str] = {}
    tracks: Dict[Tuple[int, int], str] = {}
    for event in events:
        if event.get("ph") != "M":
            continue
        name = (event.get("args") or {}).get("name")
        if event.get("name") == "process_name":
            processes[event["pid"]] = name
        elif event.get("name") == "thread_name":
            tracks[(event["pid"], event["tid"])] = name
    return processes, tracks


def _sparkline(busy: List[float]) -> str:
    """Render per-bucket busy fractions (0..1) as block characters."""
    glyphs = []
    for fraction in busy:
        level = min(len(_SPARK) - 1, int(round(fraction * (len(_SPARK) - 1))))
        if fraction > 0 and level == 0:
            level = 1  # visible floor: busy-at-all beats blank
        glyphs.append(_SPARK[level])
    return "".join(glyphs)


def trace_summary(trace: Dict[str, object], top: int = 10) -> Dict[str, object]:
    """Digest a recorded trace: top spans, unit occupancy timeline, iterations.

    Only simulated-time processes contribute (the wall-clock ``profile``
    process uses a different timebase and is reported solely by its span
    count).  ``makespan_ts`` is the latest span end across the simulated
    processes; unit occupancy is measured against it.  A unit span's busy
    time is its duration, or its ``busy_cycles`` arg when it has one.
    """
    events = trace.get("traceEvents", [])
    processes, tracks = _names(events)

    spans = []
    unit_busy = []
    profile_spans = 0
    for event in events:
        if event.get("ph") != "X":
            continue
        process = processes.get(event["pid"], str(event["pid"]))
        if process == "profile":
            profile_spans += 1
            continue
        span = {
            "name": event["name"],
            "process": process,
            "track": tracks.get((event["pid"], event["tid"]), str(event["tid"])),
            "ts": event["ts"],
            "dur": event["dur"],
            "cat": event.get("cat", ""),
        }
        spans.append(span)
        if process == "units":
            # A synthesized span (a memoized or extrapolated stretch) lasts
            # the whole stretch; its ``busy_cycles`` arg is the unit's
            # actual busy time inside it.
            unit_busy.append((span, (event.get("args") or {}).get("busy_cycles")))

    makespan = max((span["ts"] + span["dur"] for span in spans), default=0)

    units: Dict[str, Dict[str, object]] = {}
    for span, busy in unit_busy:
        entry = units.setdefault(
            span["track"], {"busy": 0, "spans": 0, "buckets": [0.0] * _TIMELINE_BUCKETS}
        )
        entry["busy"] += span["dur"] if busy is None else busy
        entry["spans"] += 1
        if makespan > 0:
            # Attribute the span's busy time to the timeline buckets it
            # overlaps, in proportion to the overlap.
            width = makespan / _TIMELINE_BUCKETS
            start, end = span["ts"], span["ts"] + span["dur"]
            first = min(_TIMELINE_BUCKETS - 1, int(start // width))
            last = min(_TIMELINE_BUCKETS - 1, int(max(start, end - 1) // width))
            for bucket in range(first, last + 1):
                lo = bucket * width
                hi = lo + width
                overlap = max(0.0, min(end, hi) - max(start, lo))
                if busy is not None and overlap:
                    overlap *= busy / span["dur"]
                entry["buckets"][bucket] += overlap / width

    unit_occupancy = {
        track: {
            "busy": entry["busy"],
            "spans": entry["spans"],
            "occupancy_percent": 100.0 * entry["busy"] / makespan if makespan else 0.0,
            "timeline": _sparkline([min(1.0, b) for b in entry["buckets"]]),
        }
        for track, entry in sorted(units.items())
    }

    iterations = [
        {
            "name": span["name"],
            "ts": span["ts"],
            "dur": span["dur"],
            "args": next(
                (
                    event.get("args", {})
                    for event in events
                    if event.get("ph") == "X"
                    and event.get("name") == span["name"]
                    and event.get("ts") == span["ts"]
                    and processes.get(event["pid"]) == "scheduler"
                ),
                {},
            ),
        }
        for span in sorted(
            (s for s in spans if s["process"] == "scheduler"),
            key=lambda s: s["ts"],
        )
    ]

    top_spans = sorted(spans, key=lambda s: (-s["dur"], s["ts"], s["name"]))[:top]
    flow_events = sum(1 for event in events if event.get("ph") in ("s", "f"))
    return {
        "events": len(events),
        "spans": len(spans),
        "profile_spans": profile_spans,
        "flow_events": flow_events,
        "makespan_ts": makespan,
        "top_spans": top_spans,
        "unit_occupancy": unit_occupancy,
        "iterations": iterations,
    }


def format_trace_summary(summary: Dict[str, object], title: Optional[str] = None) -> str:
    """Human-readable rendering of :func:`trace_summary` for the CLI."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"{summary['events']} events: {summary['spans']} spans, "
        f"{summary['flow_events']} flow events, "
        f"{summary['profile_spans']} profile spans; "
        f"makespan {summary['makespan_ts']:,} cycles"
    )
    if summary["unit_occupancy"]:
        lines.append("")
        lines.append("unit occupancy timeline:")
        width = max(len(track) for track in summary["unit_occupancy"])
        for track, entry in summary["unit_occupancy"].items():
            lines.append(
                f"  {track:<{width}}  |{entry['timeline']}|  "
                f"{entry['occupancy_percent']:5.1f}%  "
                f"({entry['spans']} spans, {entry['busy']:,} busy cycles)"
            )
    if summary["top_spans"]:
        lines.append("")
        lines.append(f"top {len(summary['top_spans'])} spans:")
        for span in summary["top_spans"]:
            lines.append(
                f"  {span['dur']:>12,}  {span['name']}  "
                f"[{span['process']}/{span['track']}] @ {span['ts']:,}"
            )
    if summary["iterations"]:
        lines.append("")
        lines.append("iterations:")
        for entry in summary["iterations"]:
            args = entry["args"]
            requests = ",".join(args.get("requests", []))
            lines.append(
                f"  {entry['name']}: start {entry['ts']:,}, "
                f"{entry['dur']:,} cycles, batch {args.get('batch', '?')}"
                + (f" [{requests}]" if requests else "")
                + (f" memo={args['memo']}" if "memo" in args else "")
            )
    return "\n".join(lines)
