"""Clients for the advisor daemon.

* :class:`ServeClient` — a synchronous keep-alive client on stdlib
  :mod:`http.client`; what tests, the check suite and interactive use
  reach for.
* :func:`post_json` — a single-shot async request on raw ``asyncio``
  streams (``Connection: close``), the building block of the open-loop
  load generator, which must fire requests on a schedule without a
  connection pool serialising them.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket

__all__ = ["ServeClient", "ServeUnavailable", "post_json"]


class ServeUnavailable(ConnectionError):
    """The daemon did not answer (refused, closed early, or timed out)."""


class ServeClient:
    """Synchronous JSON client with one keep-alive connection."""

    def __init__(self, host: str, port: int,
                 timeout: float = 10.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        return self._conn

    def request(self, method: str, path: str,
                payload: dict | None = None) -> tuple:
        """``(status_code, decoded_json_body)``; retries once on a
        dropped keep-alive connection."""
        body = json.dumps(payload).encode() if payload is not None \
            else None
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                data = resp.read()
                if resp.will_close:
                    self.close()
                return resp.status, json.loads(data)
            except (http.client.HTTPException, ConnectionError,
                    socket.timeout, TimeoutError, OSError) as e:
                self.close()
                if attempt or isinstance(e, (socket.timeout,
                                             TimeoutError)):
                    raise ServeUnavailable(
                        f"{method} {path} on {self.host}:{self.port} "
                        f"failed: {e}") from e

    def advise(self, matrix: str, arch: str | None = None,
               kernel: str = "1d", iterations: float | None = None,
               top: int | None = None, client: str | None = None,
               request_id=None, workload: str | None = None) -> tuple:
        """``(status_code, body)`` of one advise round trip."""
        payload = {"matrix": matrix, "kernel": kernel}
        if workload is not None:
            payload["workload"] = workload
        if request_id is not None:
            payload["id"] = request_id
        if arch is not None:
            payload["arch"] = arch
        if iterations is not None:
            payload["iterations"] = iterations
        if top is not None:
            payload["top"] = top
        if client is not None:
            payload["client"] = client
        return self.request("POST", "/advise", payload)

    def healthz(self) -> dict:
        status, body = self.request("GET", "/healthz")
        if status != 200:
            raise ServeUnavailable(f"/healthz returned {status}")
        return body

    def metricsz(self) -> dict:
        status, body = self.request("GET", "/metricsz")
        if status != 200:
            raise ServeUnavailable(f"/metricsz returned {status}")
        return body

    def close(self) -> None:
        if self._conn is not None:
            conn, self._conn = self._conn, None
            try:
                conn.close()
            except OSError:  # pragma: no cover - best effort
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# async single-shot requests (the load generator's primitive)
# ----------------------------------------------------------------------
async def _roundtrip(host: str, port: int, request: bytes,
                     timeout: float) -> tuple:
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout)
    except (OSError, asyncio.TimeoutError) as e:
        raise ServeUnavailable(f"connect {host}:{port}: {e}") from e
    try:
        writer.write(request)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    except (OSError, asyncio.TimeoutError) as e:
        raise ServeUnavailable(f"request to {host}:{port}: {e}") from e
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, asyncio.TimeoutError):  # pragma: no cover
            pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2 or not status_line[1].isdigit():
        raise ServeUnavailable(
            f"malformed response from {host}:{port}: {head[:80]!r}")
    try:
        return int(status_line[1]), json.loads(body)
    except ValueError as e:
        raise ServeUnavailable(
            f"non-JSON response body from {host}:{port}: {e}") from e


async def post_json(host: str, port: int, path: str, payload: dict,
                    timeout: float = 10.0) -> tuple:
    """One ``POST`` with ``Connection: close``; ``(status, body)``."""
    body = json.dumps(payload).encode()
    request = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body
    return await _roundtrip(host, port, request, timeout)
