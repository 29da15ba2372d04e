"""A minimal HTTP/1.1 reader/writer over ``asyncio`` streams.

The transport deliberately avoids third-party HTTP stacks so the service can
be deployed (and CI-tested) anywhere a Python interpreter runs.  The subset
implemented here is exactly what the SLADE service needs:

* request line + headers + ``Content-Length`` bodies (no chunked uploads,
  no multipart, no TLS — put a real proxy in front for those);
* persistent connections (HTTP/1.1 keep-alive, honouring
  ``Connection: close``);
* response rendering with correct ``Content-Length`` framing.

Malformed traffic raises :class:`ProtocolError` with a suggested status
code; the server converts it into a structured error envelope rather than
dropping the connection silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

if TYPE_CHECKING:  # only stream annotations need asyncio here
    import asyncio

#: Upper bound on accepted request bodies (16 MiB covers very large batch
#: payloads while bounding memory per connection).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Upper bound on one header line / the request line.
MAX_LINE_BYTES = 16 * 1024

#: Upper bound on the number of request headers.
MAX_HEADERS = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


class ProtocolError(Exception):
    """The peer sent something that is not valid HTTP/1.x.

    ``status`` is the response code the server should answer with before
    closing the connection.
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should persist after the response."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)


async def _read_line(reader: "asyncio.StreamReader", limit: int) -> bytes:
    try:
        line = await reader.readline()
    except ValueError:
        # StreamReader raises ValueError when a line overruns its internal
        # buffer limit before our own check can run.
        raise ProtocolError("header line too long", status=431) from None
    if len(line) > limit:
        raise ProtocolError("header line too long", status=431)
    return line


async def read_request(
    reader: "asyncio.StreamReader", max_body: int = MAX_BODY_BYTES
) -> Optional[HttpRequest]:
    """Read one request from the stream; ``None`` on clean EOF.

    Raises :class:`ProtocolError` on malformed framing (bad request line,
    unsupported version, oversized body, non-integer ``Content-Length``).
    """
    request_line = await _read_line(reader, MAX_LINE_BYTES)
    if not request_line:
        return None
    try:
        text = request_line.decode("ascii").rstrip("\r\n")
    except UnicodeDecodeError:
        raise ProtocolError("request line is not ASCII") from None
    if not text:
        return None
    parts = text.split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {text!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise ProtocolError(f"unsupported protocol version {version!r}", status=505)

    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader, MAX_LINE_BYTES)
        if line in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError("too many request headers", status=431)
        decoded = line.decode("latin-1").rstrip("\r\n")
        name, sep, value = decoded.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(f"malformed header line: {decoded!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    raw_length = headers.get("content-length")
    if headers.get("transfer-encoding"):
        raise ProtocolError("chunked request bodies are not supported")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError:
            raise ProtocolError(f"invalid Content-Length {raw_length!r}") from None
        if length < 0:
            raise ProtocolError(f"invalid Content-Length {raw_length!r}")
        if length > max_body:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the {max_body}-byte limit",
                status=413,
            )
        body = await reader.readexactly(length)

    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return HttpRequest(
        method=method.upper(),
        path=split.path or "/",
        query=query,
        headers=headers,
        body=body,
        version=version,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialise one response with correct ``Content-Length`` framing."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("ascii") + body


def split_host_port(spec: str, default_port: int = 8080) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` CLI spec (``:PORT`` binds every interface)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        return spec or "127.0.0.1", default_port
    if not port_text.isdigit():
        raise ValueError(f"invalid port in {spec!r}")
    port = int(port_text)
    if port > 65535:
        raise ValueError(f"port {port} out of range in {spec!r}")
    return host or "0.0.0.0", port
