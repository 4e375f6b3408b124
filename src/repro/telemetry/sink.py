"""Pluggable telemetry sinks: file, reconnecting TCP, and the recorder.

The design rule every sink obeys: **the campaign never blocks and never
fails because a sink is down.**  :class:`TcpSink` in particular is built
for the listener dying mid-campaign -- it buffers boundedly while
disconnected, reconnects with jittered-exponential backoff (a dedicated
:class:`~repro.exec.faults.Backoff` instance, reset on every successful
connect), and overflows to a local spill file (or a drop counter) rather
than growing without bound or stalling the hot path.  Loss is accounted,
not hidden: ``stats()`` reports exactly how many events were sent,
spilled, and dropped, and ``docs/service.md`` documents the bound on
events that can be lost in flight when a listener is killed.

:class:`TelemetryRecorder` is the campaign-facing wrapper: it stamps the
event envelope (``seq``/``ts``) and swallows *any* sink exception into an
error counter, so call sites emit unconditionally.

Fault sites ``sink.connect`` and ``sink.write`` make every failure path
here deterministically reproducible (``docs/robustness.md``).
"""

from __future__ import annotations

import socket
import time
from typing import Dict, List, Optional, Tuple

from repro.exec import faults
from repro.telemetry.events import encode_event, make_event

#: events held in memory while a TCP sink is disconnected; the oldest
#: overflow to the spill file (or the drop counter) beyond this.
DEFAULT_BUFFER_LIMIT = 1024

#: per-attempt TCP connect timeout -- kept short because a connect runs
#: inline on the dispatcher's emit path while the sink is down.
DEFAULT_CONNECT_TIMEOUT = 0.25


class TelemetrySink:
    """Interface: ``emit`` one encoded event; ``stats`` accounts for it."""

    def emit(self, event: Dict[str, object]) -> None:
        raise NotImplementedError

    def flush(self) -> None:  # pragma: no cover - trivial default
        pass

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def stats(self) -> Dict[str, object]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class FileSink(TelemetrySink):
    """Append NDJSON events to a local file (opened lazily, line-buffered)."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._handle = None
        self._sent = 0

    def emit(self, event: Dict[str, object]) -> None:
        for rule in faults.fire(faults.SITE_SINK_WRITE, sink="file", path=self.path):
            faults.perform(rule)
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(encode_event(event))
        self._handle.flush()
        self._sent += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def stats(self) -> Dict[str, object]:
        return {"sink": self.describe(), "sent": self._sent}

    def describe(self) -> str:
        return f"file:{self.path}"


class TcpSink(TelemetrySink):
    """Stream NDJSON to a TCP listener; degrade, never block.

    Lifecycle of one event: it is appended to the in-memory buffer, the
    buffer is bounded (oldest events overflow to ``spill_path`` or the
    ``dropped`` counter), then a drain pass sends as much of the buffer
    as the current connection accepts.  While disconnected the drain pass
    attempts a reconnect at most once per backoff window -- a gate on a
    monotonic timestamp, so the emit path never sleeps -- and each
    successful connect resets the backoff schedule.

    Loss bound (documented in ``docs/service.md``): events handed to
    ``socket.sendall`` count as ``sent`` but can still die in kernel
    socket buffers if the listener is killed before reading them; at most
    one buffer window of sent-but-unread events can be lost that way.
    Everything else is accounted -- still buffered, spilled, or dropped.
    ``close()`` makes one final drain attempt and spills the remainder,
    so a finished campaign leaves no events in limbo.
    """

    def __init__(
        self,
        host: str,
        port: int,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
        spill_path: Optional[str] = None,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        backoff: Optional[faults.Backoff] = None,
    ) -> None:
        if buffer_limit < 1:
            raise ValueError("buffer_limit must be >= 1")
        self.host = host
        self.port = int(port)
        self.buffer_limit = buffer_limit
        self.spill_path = spill_path
        self.connect_timeout = connect_timeout
        self.backoff = backoff or faults.Backoff(
            base=0.05, cap=2.0, seed=faults.stable_seed(f"{host}:{port}"))
        self._sock: Optional[socket.socket] = None
        self._buffer: List[bytes] = []
        self._next_attempt = 0.0  # monotonic gate on reconnect attempts
        self._spill_handle = None
        self._counters = {
            "sent": 0,
            "spilled": 0,
            "dropped": 0,
            "reconnects": 0,
            "connect_failures": 0,
            "disconnects": 0,
        }

    # ------------------------------------------------------------ connection
    def _connect(self) -> bool:
        """One connect attempt; schedules the next one on failure."""
        try:
            for rule in faults.fire(faults.SITE_SINK_CONNECT,
                                    host=self.host, port=self.port):
                faults.perform(rule)
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout)
        except OSError:
            self._counters["connect_failures"] += 1
            self._next_attempt = time.monotonic() + self.backoff.next()
            return False
        sock.settimeout(self.connect_timeout)
        self._sock = sock
        self._counters["reconnects"] += 1
        self.backoff.reset()  # next outage escalates from base again
        return True

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
            self._counters["disconnects"] += 1
        self._next_attempt = time.monotonic() + self.backoff.next()

    # ----------------------------------------------------------------- spill
    def _overflow(self, line: bytes) -> None:
        if self.spill_path is None:
            self._counters["dropped"] += 1
            return
        try:
            if self._spill_handle is None:
                self._spill_handle = open(self.spill_path, "ab")
            self._spill_handle.write(line)
            self._spill_handle.flush()
            self._counters["spilled"] += 1
        except OSError:
            self._counters["dropped"] += 1

    def _drain(self, force_connect: bool = False) -> None:
        if self._sock is None:
            if not force_connect and time.monotonic() < self._next_attempt:
                return
            if not self._connect():
                return
        while self._buffer:
            line = self._buffer[0]
            try:
                for rule in faults.fire(faults.SITE_SINK_WRITE, sink="tcp",
                                        host=self.host, port=self.port):
                    faults.perform(rule)
                self._sock.sendall(line)
            except OSError:
                self._disconnect()
                return
            self._buffer.pop(0)
            self._counters["sent"] += 1

    # ------------------------------------------------------------------- API
    def emit(self, event: Dict[str, object]) -> None:
        self._buffer.append(encode_event(event))
        while len(self._buffer) > self.buffer_limit:
            self._overflow(self._buffer.pop(0))
        self._drain()

    def flush(self) -> None:
        self._drain()

    def close(self) -> None:
        # Final chance for buffered events: one connect attempt regardless
        # of the backoff gate, then spill whatever the wire refused.
        self._drain(force_connect=True)
        for line in self._buffer:
            self._overflow(line)
        self._buffer.clear()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        if self._spill_handle is not None:
            self._spill_handle.close()
            self._spill_handle = None

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {"sink": self.describe()}
        stats.update(self._counters)
        stats["buffered"] = len(self._buffer)
        return stats

    def describe(self) -> str:
        return f"tcp:{self.host}:{self.port}"


class TelemetryRecorder:
    """Campaign-facing wrapper: stamps the envelope, never raises.

    Call sites ``record(...)`` unconditionally; any sink exception is
    swallowed into the ``errors`` counter so observability can never
    break a run.  A recorder around ``sink=None`` is a pure no-op (the
    disabled path costs one attribute check per call site).
    """

    def __init__(self, sink: Optional[TelemetrySink]) -> None:
        self.sink = sink
        self._seq = 0
        self._events = 0
        self._errors = 0

    @property
    def enabled(self) -> bool:
        return self.sink is not None

    def record(self, kind: str, **fields: object) -> None:
        if self.sink is None:
            return
        event = make_event(kind, seq=self._seq, ts=time.time(), **fields)
        self._seq += 1
        try:
            self.sink.emit(event)
            self._events += 1
        except Exception:
            self._errors += 1

    def close(self) -> None:
        if self.sink is None:
            return
        try:
            self.sink.close()
        except Exception:
            self._errors += 1

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {"events": self._events, "errors": self._errors}
        if self.sink is not None:
            try:
                stats.update(self.sink.stats())
            except Exception:
                pass
        return stats


def tcp_address(spec: str) -> Tuple[str, int]:
    """``(host, port)`` of a ``tcp:HOST:PORT`` sink spec; ``ValueError``
    if it does not have that form (the port range is not checked)."""
    host, sep, port = spec[len("tcp:"):].rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"bad telemetry spec {spec!r}: expected tcp:HOST:PORT")
    return host, int(port)


def parse_sink_spec(
    spec: str,
    spill_path: Optional[str] = None,
    buffer_limit: int = DEFAULT_BUFFER_LIMIT,
) -> TelemetrySink:
    """Build a sink from a CLI spec: ``tcp:HOST:PORT``, ``file:PATH``, or
    a bare path (treated as ``file:``)."""
    if spec.startswith("tcp:"):
        host, port = tcp_address(spec)
        return TcpSink(host, port, buffer_limit=buffer_limit,
                       spill_path=spill_path)
    if spec.startswith("file:"):
        return FileSink(spec[len("file:"):])
    return FileSink(spec)


__all__ = [
    "DEFAULT_BUFFER_LIMIT",
    "DEFAULT_CONNECT_TIMEOUT",
    "FileSink",
    "TcpSink",
    "TelemetryRecorder",
    "TelemetrySink",
    "parse_sink_spec",
    "tcp_address",
]
