"""A minimal threaded TCP listener for NDJSON telemetry streams.

The receiving half of :class:`~repro.telemetry.sink.TcpSink`: accepts
any number of senders (sequentially re-accepting as they disconnect),
splits the byte stream on newlines, and appends each decoded event to an
in-memory list and optionally an NDJSON file.  It exists for two
callers -- the chaos tests, which kill and restart it mid-campaign to
prove the sink's reconnect/spill behaviour, and ``repro.cli telemetry
serve``, the ops-facing collector the CI transport leg runs.

Deliberately not a production event store: one accept loop, no auth, no
rotation.  ``docs/service.md`` discusses what a real deployment would
put here instead.
"""

from __future__ import annotations

import socket
import threading
from typing import Dict, List, Optional

from repro.telemetry.events import decode_line


class TelemetryListener:
    """Accept telemetry connections on ``host:port``; collect events.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` after
    ``start()``).  ``stop()`` unblocks the accept loop and joins the
    thread; the listener can be started again afterwards on a new socket,
    which is exactly the kill/restart cycle the loss-bound test drives.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 path: Optional[str] = None) -> None:
        self.host = host
        self.port = int(port)
        self.path = path
        self.events: List[Dict[str, object]] = []
        #: connections read to a clean end of stream (the sender closed),
        #: counted after their last event is in ``events``; across restarts.
        self.connections_drained = 0
        self._server: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._handle = None
        self._lock = threading.Lock()

    def start(self) -> "TelemetryListener":
        if self._thread is not None:
            raise RuntimeError("listener already running")
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen(8)
        server.settimeout(0.1)  # bounded accept waits so stop() is prompt
        self.port = server.getsockname()[1]
        self._server = server
        self._stopping.clear()
        if self.path:
            self._handle = open(self.path, "ab")
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._server is not None:
            self._server.close()
            self._server = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryListener":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ accept loop
    def _serve(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # server socket closed under us
            with conn:
                self._pump(conn)

    def _pump(self, conn: socket.socket) -> None:
        conn.settimeout(0.1)
        residue = b""
        while not self._stopping.is_set():
            try:
                chunk = conn.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                with self._lock:
                    self.connections_drained += 1
                return  # sender closed cleanly
            residue += chunk
            while b"\n" in residue:
                line, residue = residue.split(b"\n", 1)
                self._ingest(line)

    def _ingest(self, line: bytes) -> None:
        event = decode_line(line)
        if event is None:
            return
        with self._lock:
            self.events.append(event)
            if self._handle is not None:
                self._handle.write(line + b"\n")
                self._handle.flush()

    def snapshot(self) -> List[Dict[str, object]]:
        """A thread-safe copy of everything received so far."""
        with self._lock:
            return list(self.events)


__all__ = ["TelemetryListener"]
