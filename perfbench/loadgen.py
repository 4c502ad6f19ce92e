"""Open-loop HTTP load generator: one process, a few keep-alive connections.

The whole send schedule (due time and body of every request) is fixed before
the first byte is sent.  A single ``selectors`` loop sends each request as
soon as it is due and a connection is free, so a slow server delays later
requests (their latency counts from the due time) instead of slowing the
offered load.  Every request carries ``X-Bench-Rid`` so server-side spans of
a traced run can be joined to it.
"""

from __future__ import annotations

import gc
import selectors
import socket
import time

RID_HEADER = "X-Bench-Rid"


class _Conn:
    __slots__ = ("sock", "buf", "req", "free_since")

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf = bytearray()
        self.req = None
        self.free_since = 0.0


def _request_bytes(host: str, path: str, body: bytes, rid: int) -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{RID_HEADER}: {rid}\r\n\r\n"
    )
    return head.encode("ascii") + body


def _parse_response(buf: bytearray):
    """``(status, body, consumed)`` of one complete response, else ``None``."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    total = end + 4 + length
    if len(buf) < total:
        return None
    return status, bytes(buf[end + 4 : total]), total


class OpenLoopClient:
    """``n_conns`` keep-alive connections reused across schedules."""

    def __init__(self, host: str, port: int, n_conns: int) -> None:
        self.host, self.port = host, port
        # select(2) takes its timeout in microseconds; epoll rounds it up to
        # whole milliseconds, which would make every send up to 1 ms late.
        self.sel = selectors.SelectSelector()
        self.conns: list[_Conn] = []
        for _ in range(n_conns):
            self._open()

    def _open(self) -> _Conn:
        conn = _Conn(self.host, self.port)
        conn.free_since = time.perf_counter()
        self.sel.register(conn.sock, selectors.EVENT_READ, conn)
        self.conns.append(conn)
        return conn

    def _drop(self, conn: _Conn) -> _Conn:
        """Close a broken connection and open its replacement."""
        self.sel.unregister(conn.sock)
        conn.sock.close()
        self.conns.remove(conn)
        return self._open()

    def close(self) -> None:
        for conn in self.conns:
            self.sel.unregister(conn.sock)
            conn.sock.close()
        self.conns = []
        self.sel.close()

    def run(self, path: str, bodies, schedule, rid_base: int = 0, drain_s: float = 5.0):
        """Send ``schedule`` (``[(due_offset_s, body_index), ...]``, sorted).

        Returns one record per request: ``[due, ready, sent, done, status,
        body]`` in ``perf_counter`` seconds, where ``ready`` is when the
        request was due and a connection was free for it.  A request that
        failed at the transport, or got no answer within ``drain_s`` of the
        last due time, has ``done=None`` and ``status=0``.  Returns only
        once every request is answered or given up on.
        """
        # A collection in this process would stall sends and reads alike and
        # show up as server latency; a run allocates little, so skip them.
        gc.collect()
        gc.disable()
        try:
            return self._run(path, bodies, schedule, rid_base, drain_s)
        finally:
            gc.enable()

    def _run(self, path, bodies, schedule, rid_base, drain_s):
        start = time.perf_counter() + 0.02
        total = len(schedule)
        records: list = [None] * total
        free = [c for c in self.conns if c.req is None]
        nxt = done = 0
        deadline = start + (schedule[-1][0] if schedule else 0.0) + drain_s
        while done < total:
            now = time.perf_counter()
            if now > deadline:
                break
            while nxt < total and free and start + schedule[nxt][0] <= now:
                conn = free.pop()
                due = start + schedule[nxt][0]
                data = _request_bytes(self.host, path, bodies[schedule[nxt][1]], rid_base + nxt)
                records[nxt] = [due, max(due, conn.free_since), 0.0, None, 0, None]
                try:
                    conn.sock.setblocking(True)
                    conn.sock.sendall(data)
                    conn.sock.setblocking(False)
                except OSError:
                    done += 1
                    free.append(self._drop(conn))
                else:
                    records[nxt][2] = time.perf_counter()
                    conn.req = nxt
                nxt += 1
                now = time.perf_counter()
            if nxt < total and free:
                timeout = max(0.0, start + schedule[nxt][0] - time.perf_counter())
            else:
                timeout = max(0.0, deadline - time.perf_counter())
            for key, _mask in self.sel.select(timeout):
                conn = key.data
                try:
                    chunk = conn.sock.recv(65536)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    if conn.req is not None:
                        done += 1
                    elif conn in free:
                        free.remove(conn)
                    free.append(self._drop(conn))
                    continue
                conn.buf += chunk
                parsed = _parse_response(conn.buf)
                if parsed is None or conn.req is None:
                    continue
                status, body, consumed = parsed
                del conn.buf[:consumed]
                finished = time.perf_counter()
                records[conn.req][3:6] = [finished, status, body]
                conn.req = None
                conn.free_since = finished
                done += 1
                free.append(conn)
        for conn in list(self.conns):  # abandoned at the deadline
            if conn.req is not None:
                self._drop(conn)
        for i in range(total):
            if records[i] is None:  # never sent before the deadline
                due = start + schedule[i][0]
                records[i] = [due, due, due, None, 0, None]
        return records
