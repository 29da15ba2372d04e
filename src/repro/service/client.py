"""Stdlib HTTP clients for the SLADE service transport.

:class:`SladeHttpClient` wraps ``urllib`` so tests, examples, benchmarks and
the CI smoke job can drive a running ``repro serve --http`` server without
any third-party dependency.  Every call returns an :class:`HttpReply` — the
status code, headers, and parsed JSON payload — and *never* raises on 4xx/5xx
responses: admission rejections and validation failures are data (structured
error envelopes), not exceptions, matching the service layer's philosophy.

:class:`AsyncSladeHttpClient` is the concurrent counterpart: an asyncio
HTTP/1.1 client holding one persistent keep-alive connection, so the load
harness (:mod:`repro.loadgen`) can keep hundreds of requests in flight from
one event loop without a thread per connection.  It returns the same
:class:`HttpReply` shape with the same never-raise-on-4xx/5xx contract.

Both clients share one request-encoding / path-building / header-building
pipeline (:func:`_payload_dict`, :func:`_solve_path`, :func:`_build_headers`,
:func:`_build_reply`), so a feature added to the wire surface — per-request
deadlines, auth tokens, the ``/v2`` routes — lands in both at once instead
of drifting apart.  Requests default to the ``/v2`` routes; pass
``api_version="v1"`` to pin the legacy alias.

Typical use::

    from repro.service.client import SladeHttpClient

    client = SladeHttpClient("http://127.0.0.1:8080", tenant="team-a")
    reply = client.solve({"kind": "solve_request", "version": 1,
                          "n": 1000, "threshold": 0.9,
                          "bins": [[1, 0.9, 0.10], [2, 0.85, 0.18]]},
                         deadline_ms=50)
    reply.raise_for_status()
    print(reply.payload["total_cost"], reply.payload["provenance"])
"""

from __future__ import annotations

import asyncio
import json
import socket
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.errors import SladeError
from repro.service.api import SolveRequest, SolveResponse

#: Payloads accepted wherever a solve request is expected.
RequestLike = Union[SolveRequest, Dict[str, Any]]


class TransportError(SladeError):
    """The server could not be reached or did not speak HTTP."""


@dataclass
class HttpReply:
    """One HTTP exchange: status, headers, and the parsed JSON payload."""

    status: int
    payload: Any
    headers: Dict[str, str] = field(default_factory=dict)
    text: str = ""

    @property
    def ok(self) -> bool:
        """Whether the transport accepted the request (2xx)."""
        return 200 <= self.status < 300

    def raise_for_status(self) -> "HttpReply":
        """Raise :class:`TransportError` on a non-2xx status; else return self."""
        if not self.ok:
            detail = ""
            if isinstance(self.payload, dict) and self.payload.get("error"):
                detail = f": {self.payload['error']}"
            raise TransportError(f"HTTP {self.status}{detail}")
        return self

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Case-insensitive response header lookup."""
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return default

    def solve_response(self) -> SolveResponse:
        """Decode the payload as one structured :class:`SolveResponse`."""
        from repro.io.serialization import solve_response_from_dict

        return solve_response_from_dict(self.payload)


class SladeHttpClient:
    """Drive a SLADE HTTP server over ``urllib`` (no external packages).

    Parameters
    ----------
    base_url:
        The server prefix, e.g. ``"http://127.0.0.1:8080"``.
    tenant:
        Default admission identity, sent as the ``X-Tenant`` header on every
        request; per-call ``tenant=`` arguments override it.
    timeout:
        Socket timeout in seconds for each call.
    auth_token:
        Shared secret for servers started with ``repro serve --auth-token``;
        sent as ``Authorization: Bearer <token>`` on every request.
    api_version:
        Route prefix for solve endpoints — ``"v2"`` (default) or ``"v1"``.
    """

    def __init__(
        self,
        base_url: str,
        tenant: Optional[str] = None,
        timeout: float = 60.0,
        auth_token: Optional[str] = None,
        api_version: str = "v2",
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout
        self.auth_token = auth_token
        self.api_version = _check_api_version(api_version)
        # A proxy-free opener: localhost servers must not be routed through
        # an environment's HTTP(S)_PROXY.
        self._opener = urllib.request.build_opener(
            urllib.request.ProxyHandler({})
        )

    # -- endpoints -------------------------------------------------------------

    def solve(
        self,
        request: RequestLike,
        tenant: Optional[str] = None,
        include_plan: Optional[bool] = None,
        deadline_ms: Optional[float] = None,
    ) -> HttpReply:
        """POST one solve request to ``/{v}/solve``.

        ``deadline_ms`` stamps (or overrides) the request's latency budget;
        the server answers best-so-far within it, or a structured 503 when
        it expires before any feasible plan exists.
        """
        path = _solve_path(self.api_version, False, include_plan)
        body = _payload_dict(request, deadline_ms=deadline_ms)
        return self._request("POST", path, body, tenant)

    def solve_batch(
        self,
        requests: List[RequestLike],
        tenant: Optional[str] = None,
        include_plan: Optional[bool] = None,
        deadline_ms: Optional[float] = None,
    ) -> HttpReply:
        """POST a request list to ``/{v}/solve/batch``.

        ``deadline_ms`` applies per item (each entry gets the same budget,
        measured from server receipt) unless an entry carries its own.
        """
        path = _solve_path(self.api_version, True, include_plan)
        body = {
            "requests": [
                _payload_dict(entry, deadline_ms=deadline_ms)
                for entry in requests
            ]
        }
        return self._request("POST", path, body, tenant)

    def feedback(
        self,
        payload: Dict[str, Any],
        tenant: Optional[str] = None,
    ) -> HttpReply:
        """POST execution outcomes to ``/v2/feedback``.

        ``payload`` carries the menu the outcomes were measured against and
        the per-cardinality probe results::

            {"bins": <bin-set dict or [[l, r, c], ...]>,
             "observations": [[cardinality, correct], ...]}
        """
        return self._request("POST", "/v2/feedback", payload, tenant)

    def healthz(self) -> HttpReply:
        """GET the liveness document."""
        return self._request("GET", "/healthz", None, None)

    def metrics(self, fmt: str = "json") -> HttpReply:
        """GET the telemetry snapshot (``fmt="text"`` for Prometheus lines)."""
        path = "/metrics" if fmt == "text" else "/metrics?format=json"
        return self._request("GET", path, None, None)

    # -- plumbing --------------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        tenant: Optional[str],
    ) -> HttpReply:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        effective_tenant = tenant if tenant is not None else self.tenant
        headers = _build_headers(effective_tenant, self.auth_token)
        req = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with self._opener.open(req, timeout=self.timeout) as raw:
                return self._reply(raw.status, dict(raw.headers), raw.read())
        except urllib.error.HTTPError as exc:
            # 4xx/5xx still carry a structured envelope body.
            return self._reply(exc.code, dict(exc.headers or {}), exc.read())
        except (urllib.error.URLError, socket.timeout, ConnectionError) as exc:
            raise TransportError(f"cannot reach {self.base_url}: {exc}") from exc

    def _reply(self, status: int, headers: Dict[str, str], raw: bytes) -> HttpReply:
        return _build_reply(status, headers, raw)


def _build_reply(status: int, headers: Dict[str, str], raw: bytes) -> HttpReply:
    """Decode one raw exchange into the shared :class:`HttpReply` shape."""
    text = raw.decode("utf-8", errors="replace")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    return HttpReply(status=status, payload=payload, headers=headers, text=text)


def _payload_dict(
    request: RequestLike, deadline_ms: Optional[float] = None
) -> Dict[str, Any]:
    """Normalise a request-like value into a JSON-ready dictionary.

    ``deadline_ms`` is injected when the payload does not already carry its
    own budget, so a per-call default never silently overrides an explicit
    per-request one.
    """
    if isinstance(request, SolveRequest):
        from repro.io.serialization import solve_request_to_dict

        payload = solve_request_to_dict(request)
    else:
        payload = dict(request)
    if deadline_ms is not None and payload.get("deadline_ms") is None:
        payload["deadline_ms"] = deadline_ms
    return payload


def _solve_path(
    api_version: str, batch: bool, include_plan: Optional[bool]
) -> str:
    """Build the solve route for one call — shared by both clients."""
    path = f"/{api_version}/solve/batch" if batch else f"/{api_version}/solve"
    if include_plan is not None:
        path += f"?plan={'1' if include_plan else '0'}"
    return path


def _build_headers(
    tenant: Optional[str], auth_token: Optional[str]
) -> Dict[str, str]:
    """Request headers for one call — shared by both clients."""
    headers = {"Content-Type": "application/json"}
    if tenant:
        headers["X-Tenant"] = tenant
    if auth_token:
        headers["Authorization"] = f"Bearer {auth_token}"
    return headers


def _check_api_version(api_version: str) -> str:
    if api_version not in ("v1", "v2"):
        raise ValueError(
            f"api_version must be 'v1' or 'v2', got {api_version!r}"
        )
    return api_version


class AsyncSladeHttpClient:
    """An asyncio HTTP/1.1 client holding one keep-alive connection.

    The synchronous :class:`SladeHttpClient` opens a fresh ``urllib``
    connection per call and blocks a thread while it waits; an open-loop load
    generator needs hundreds of requests in flight at once, which only an
    event loop can hold cheaply.  This client speaks the same minimal
    HTTP/1.1 the transport serves (``Content-Length`` framing, keep-alive),
    reuses its single connection across calls, and transparently reconnects
    — retrying once — when a reused connection turns out to be dead.

    All coroutine methods must be awaited from one event loop at a time; for
    N-way concurrency open N clients (see
    :func:`repro.loadgen.runner.run_load_test`).

    Typical use::

        client = AsyncSladeHttpClient("http://127.0.0.1:8080", tenant="a")
        try:
            reply = await client.solve({"kind": "solve_request", ...})
        finally:
            await client.close()
    """

    def __init__(
        self,
        base_url: str,
        tenant: Optional[str] = None,
        timeout: float = 60.0,
        auth_token: Optional[str] = None,
        api_version: str = "v2",
    ) -> None:
        parts = urllib.parse.urlsplit(base_url if "//" in base_url
                                      else f"http://{base_url}")
        if parts.scheme not in ("", "http") or not parts.hostname:
            raise TransportError(f"unsupported base URL: {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.tenant = tenant
        self.timeout = timeout
        self.auth_token = auth_token
        self.api_version = _check_api_version(api_version)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    # -- endpoints -------------------------------------------------------------

    async def solve(
        self,
        request: RequestLike,
        tenant: Optional[str] = None,
        include_plan: Optional[bool] = None,
        deadline_ms: Optional[float] = None,
    ) -> HttpReply:
        """POST one solve request to ``/{v}/solve``.

        Same semantics as :meth:`SladeHttpClient.solve`: ``deadline_ms``
        stamps the request's latency budget unless the payload already
        carries one.
        """
        path = _solve_path(self.api_version, False, include_plan)
        body = _payload_dict(request, deadline_ms=deadline_ms)
        return await self._request("POST", path, body, tenant)

    async def healthz(self) -> HttpReply:
        """GET the liveness document."""
        return await self._request("GET", "/healthz", None, None)

    async def metrics(self, fmt: str = "json") -> HttpReply:
        """GET the telemetry snapshot (``fmt="text"`` for Prometheus lines)."""
        path = "/metrics" if fmt == "text" else "/metrics?format=json"
        return await self._request("GET", path, None, None)

    async def close(self) -> None:
        """Close the persistent connection (safe to call repeatedly)."""
        await self._drop_connection()

    # -- plumbing --------------------------------------------------------------

    async def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        tenant: Optional[str],
    ) -> HttpReply:
        data = json.dumps(body).encode("utf-8") if body is not None else b""
        effective_tenant = tenant if tenant is not None else self.tenant
        for attempt in (0, 1):
            reused = self._writer is not None
            try:
                return await asyncio.wait_for(
                    self._exchange(method, path, data, effective_tenant),
                    timeout=self.timeout,
                )
            except asyncio.TimeoutError as exc:
                await self._drop_connection()
                raise TransportError(
                    f"timed out after {self.timeout:g}s waiting for "
                    f"{self.host}:{self.port}"
                ) from exc
            except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                await self._drop_connection()
                # A server is allowed to close an idle keep-alive connection
                # between our calls; only a fresh connection failing is an
                # actual transport error.
                if reused and attempt == 0:
                    continue
                raise TransportError(
                    f"cannot reach {self.host}:{self.port}: {exc}"
                ) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    async def _exchange(
        self, method: str, path: str, data: bytes, tenant: Optional[str]
    ) -> HttpReply:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        assert self._reader is not None and self._writer is not None
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(data)}",
            "Connection: keep-alive",
        ]
        lines.extend(
            f"{name}: {value}"
            for name, value in _build_headers(tenant, self.auth_token).items()
        )
        self._writer.write("\r\n".join(lines).encode("ascii") + b"\r\n\r\n" + data)
        await self._writer.drain()
        status, headers, raw = await self._read_response(self._reader)
        reply = _build_reply(status, headers, raw)
        if reply.header("connection", "keep-alive").lower() == "close":
            await self._drop_connection()
        return reply

    async def _read_response(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Dict[str, str], bytes]:
        status_line = (await reader.readline()).decode("ascii", errors="replace")
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ConnectionError(f"malformed status line: {status_line!r}")
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("ascii", errors="replace")
            if line in ("\r\n", "\n", ""):
                break
            name, _sep, value = line.partition(":")
            headers[name.strip()] = value.strip()
        length_text = next(
            (v for k, v in headers.items() if k.lower() == "content-length"), None
        )
        if length_text is None:
            raise ConnectionError("response carries no Content-Length")
        raw = await reader.readexactly(int(length_text))
        return status, headers, raw

    async def _drop_connection(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown
                pass
