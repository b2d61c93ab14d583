"""Text renderings of metric snapshots.

A *snapshot* is the plain-dict form produced by
:meth:`~repro.observability.metrics.MetricsRegistry.snapshot` — one
entry per ``(metric name, label set)``, sorted, JSON-friendly.  Two
pure functions render it:

- :func:`to_json_lines` — one JSON object per metric entry, optionally
  preceded by a ``{"record": "header", ...}`` line (the
  ``repro ... --metrics-out`` format);
- :func:`render_prometheus` — the Prometheus-style text exposition.

Callers write the text where they need it; the CLI writes the JSON
lines to its ``--metrics-out`` file.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional

__all__ = [
    "to_json_lines",
    "render_prometheus",
    "sanitize_value",
]

Snapshot = List[Dict[str, object]]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_value(value):
    """Make a metric value strict-JSON safe (inf/nan become strings)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # 'inf', '-inf', 'nan'
    return value


def _sanitize_entry(entry: Dict[str, object]) -> Dict[str, object]:
    out = {}
    for key, value in entry.items():
        if isinstance(value, list):
            value = [
                {k: sanitize_value(v) for k, v in item.items()}
                if isinstance(item, dict) else sanitize_value(item)
                for item in value
            ]
        else:
            value = sanitize_value(value)
        out[key] = value
    return out


def to_json_lines(
    snapshot: Snapshot, *, header: Optional[Dict[str, object]] = None
) -> str:
    """Render a snapshot as JSON lines (one strict-JSON object per line).

    ``header`` (run parameters, trace name, cache info, ...) becomes a
    leading ``{"record": "header", ...}`` line; every metric entry gets
    ``"record": "metric"``.  Non-finite values are stringified so the
    output parses under strict JSON readers.
    """
    lines = []
    if header is not None:
        lines.append(json.dumps(
            {"record": "header", **_sanitize_entry(header)},
            sort_keys=True,
        ))
    for entry in snapshot:
        lines.append(json.dumps(
            {"record": "metric", **_sanitize_entry(entry)},
            sort_keys=True,
        ))
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [
        f'{_prom_name(str(k))}="{v}"' for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _prom_number(value) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return format(value, "g")


def render_prometheus(snapshot: Snapshot) -> str:
    """Render a snapshot in the Prometheus text exposition style.

    Counters/gauges emit one sample; summaries and timers emit
    ``_count``/``_sum``/``_min``/``_max``; histograms emit cumulative
    ``_bucket{le=...}`` samples plus ``_sum``/``_count``.  Metric names
    have non-identifier characters folded to ``_``.
    """
    lines: List[str] = []
    seen_types = set()
    for entry in snapshot:
        name = _prom_name(str(entry["name"]))
        kind = entry["kind"]
        labels = entry.get("labels") or {}
        if name not in seen_types:
            prom_type = {
                "counter": "counter",
                "gauge": "gauge",
                "summary": "summary",
                "timer": "summary",
                "histogram": "histogram",
            }[kind]
            lines.append(f"# TYPE {name} {prom_type}")
            seen_types.add(name)
        if kind in ("counter", "gauge"):
            lines.append(
                f"{name}{_prom_labels(labels)} "
                f"{_prom_number(entry['value'])}"
            )
        elif kind in ("summary", "timer"):
            label_str = _prom_labels(labels)
            lines.append(
                f"{name}_count{label_str} {_prom_number(entry['count'])}"
            )
            lines.append(
                f"{name}_sum{label_str} {_prom_number(entry['total'])}"
            )
            lines.append(
                f"{name}_min{label_str} {_prom_number(entry['min'])}"
            )
            lines.append(
                f"{name}_max{label_str} {_prom_number(entry['max'])}"
            )
        elif kind == "histogram":
            cumulative = 0
            for bucket in entry["buckets"]:
                cumulative += int(bucket["count"])
                le = bucket["le"]
                le_str = "+Inf" if le == "+Inf" else _prom_number(le)
                le_label = 'le="' + le_str + '"'
                lines.append(
                    f"{name}_bucket{_prom_labels(labels, le_label)} "
                    f"{cumulative}"
                )
            lines.append(
                f"{name}_sum{_prom_labels(labels)} "
                f"{_prom_number(entry['total'])}"
            )
            lines.append(
                f"{name}_count{_prom_labels(labels)} "
                f"{_prom_number(entry['count'])}"
            )
    return "\n".join(lines) + ("\n" if lines else "")

