"""The benchmark's own HTTP/1.1 client and the server process it drives.

The client is deliberately minimal (keep-alive, Content-Length bodies, no
pipelining) and shares no code with ``repro.loadgen`` or
``repro.service.client``, so a change to those modules cannot move the
instrument.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

#: Longest wait for one response (large-n's biggest request takes ~11 s).
CALL_TIMEOUT_S = 60.0

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


class Connection:
    """One keep-alive HTTP/1.1 connection on the running event loop."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=1 << 20
        )

    async def call(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request; return ``(status, body)``.

        Status 0 means the link broke or no answer came within
        ``CALL_TIMEOUT_S``; the connection is then reopened on the next call.
        """
        try:
            return await asyncio.wait_for(self._exchange(method, path, body), CALL_TIMEOUT_S)
        except (OSError, asyncio.IncompleteReadError, asyncio.TimeoutError,
                IndexError, ValueError):
            await self.close()
            return 0, b""

    async def _exchange(self, method: str, path: str, body: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            await self._connect()
        assert self._reader is not None and self._writer is not None
        self._writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        payload = await self._reader.readexactly(length)
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


def get_json(host: str, port: int, path: str, timeout: float = 10.0) -> Dict:
    """A blocking GET returning the decoded JSON body (setup and scrapes)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode()
        )
        data = b""
        while b"\r\n\r\n" not in data:
            data += _recv(sock)
        head, _, body = data.partition(b"\r\n\r\n")
        length = int(re.search(rb"(?im)^content-length:\s*(\d+)", head).group(1))
        while len(body) < length:
            body += _recv(sock)
    status = int(head.split(b" ", 2)[1])
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)


def _recv(sock: socket.socket) -> bytes:
    chunk = sock.recv(1 << 16)
    if not chunk:
        raise ConnectionError("connection closed mid-response")
    return chunk


class ServerProcess:
    """``repro serve --http 127.0.0.1:0`` with default flags, as a child process."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for the first ``/healthz`` 200; return the seconds taken."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self.host, self.port = "", 0
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--http", "127.0.0.1:0"],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log,
            )
        deadline = started + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_path.read_text(errors="replace")[-500:]
                )
            if not self.port:
                match = _LISTENING.search(self.log_path.read_text(errors="replace"))
                if match:
                    self.host, self.port = match.group(1), int(match.group(2))
            if self.port:
                try:
                    if get_json(self.host, self.port, "/healthz", 1.0).get("status") == "ok":
                        return time.perf_counter() - started
                except (OSError, RuntimeError, ValueError):
                    pass
            time.sleep(0.002)
        raise RuntimeError("server did not become healthy in time")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``) in MB."""
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+)\s+kB", status).group(1))
        return kib / 1024.0

    def stop(self) -> None:
        """SIGTERM, wait for the drain, SIGKILL as a last resort."""
        proc, self.proc = self.proc, None
        if proc is None or proc.poll() is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
