"""Prometheus text exposition (v0.0.4) and the node HTTP endpoint.

``render_prometheus`` turns a :class:`~repro.obs.registry.MetricsRegistry`
into the plain-text format every Prometheus-compatible scraper speaks;
``handle_http_request`` implements the tiny request router the node
daemons mount on their existing listen port (the framed protocol and
HTTP are disambiguated by sniffing the first bytes of a connection --
see ``repro.runtime.aio_transport.FrameConnection``).  No sockets here: this module is pure
bytes-in/bytes-out so it is trivially testable.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional, Tuple

from .registry import MetricsRegistry

__all__ = [
    "CONTENT_TYPE_PROM",
    "render_prometheus",
    "render_json",
    "handle_http_request",
]

CONTENT_TYPE_PROM = "text/plain; version=0.0.4; charset=utf-8"


def _fmt_value(v: float) -> str:
    # Prometheus accepts both, but whole numbers read better unpadded.
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(float(v))


def _fmt_labels(labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = [*labels.items(), *extra]
    if not items:
        return ""
    body = ",".join(
        f'{k}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in items
    )
    return "{" + body + "}"


def _fmt_le(bound: float) -> str:
    return _fmt_value(bound)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The full registry in Prometheus text exposition format v0.0.4."""
    lines = []
    for fam in registry.families():
        if fam.help:
            lines.append(f"# HELP {fam.name} {fam.help}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for key, child in sorted(fam.children()):
            labels = dict(zip(fam.labelnames, key))
            if fam.kind == "histogram":
                cumulative = child.cumulative()
                for bound, c in zip(child.bounds, cumulative):
                    lines.append(
                        f"{fam.name}_bucket"
                        f"{_fmt_labels(labels, (('le', _fmt_le(bound)),))} {c}"
                    )
                lines.append(
                    f'{fam.name}_bucket{_fmt_labels(labels, (("le", "+Inf"),))} '
                    f"{child.count}"
                )
                lines.append(f"{fam.name}_sum{_fmt_labels(labels)} {_fmt_value(child.sum)}")
                lines.append(f"{fam.name}_count{_fmt_labels(labels)} {child.count}")
            elif fam.kind == "gauge":
                lines.append(f"{fam.name}{_fmt_labels(labels)} {_fmt_value(child.read())}")
            else:
                lines.append(f"{fam.name}{_fmt_labels(labels)} {_fmt_value(child.value)}")
    return "\n".join(lines) + "\n"


def render_json(registry: MetricsRegistry) -> str:
    return json.dumps(registry.snapshot(), sort_keys=True)


def _http_response(
    status: str, content_type: str, body: bytes
) -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def handle_http_request(
    request_line: str,
    registry: MetricsRegistry,
    health: Optional[Callable[[], Dict[str, Any]]] = None,
) -> bytes:
    """Route one HTTP request line to a full response.

    Supports exactly what a scraper needs: ``GET /metrics`` (Prometheus
    text), ``GET /metrics.json`` (the registry snapshot, consumed by
    ``repro top``), and ``GET /healthz`` (liveness JSON from the
    ``health`` callable).  ``HEAD`` gets headers only; everything else
    is 404/405.
    """
    parts = request_line.split()
    if len(parts) < 2:
        return _http_response("400 Bad Request", "text/plain", b"bad request\n")
    method, path = parts[0], parts[1].split("?", 1)[0]
    if method not in ("GET", "HEAD"):
        return _http_response("405 Method Not Allowed", "text/plain", b"GET only\n")

    if path == "/metrics":
        body = render_prometheus(registry).encode("utf-8")
        ctype = CONTENT_TYPE_PROM
    elif path == "/metrics.json":
        body = render_json(registry).encode("utf-8")
        ctype = "application/json"
    elif path == "/healthz":
        payload = health() if health is not None else {"ok": True}
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        ctype = "application/json"
    else:
        return _http_response("404 Not Found", "text/plain", b"not found\n")

    if method == "HEAD":
        # Headers advertise the body a GET would return, body omitted.
        head = _http_response("200 OK", ctype, body)
        return head[: len(head) - len(body)]
    return _http_response("200 OK", ctype, body)
