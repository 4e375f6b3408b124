"""Telemetry sinks: schema, file/TCP delivery, reconnect, spill, loss bounds.

The acceptance-critical test here is
``TestTcpSink.test_listener_kill_restart_loss_is_bounded``: kill the
listener mid-stream, restart it, and prove that every emitted event is
either received, spilled, or inside the documented sent-but-unread
window -- never silently gone.
"""

import json
import time

import pytest

from repro.exec import faults
from repro.exec.faults import FaultPlan, FaultRule
from repro.telemetry import (
    KINDS,
    DEFAULT_BUFFER_LIMIT,
    FileSink,
    TcpSink,
    TelemetryListener,
    TelemetryRecorder,
    TelemetrySink,
    decode_line,
    encode_event,
    make_event,
    parse_sink_spec,
)


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    yield
    faults.uninstall()


def _fast_backoff():
    """A near-zero schedule so reconnect gates never slow a test down."""
    return faults.Backoff(base=0.001, cap=0.002, jitter=0.0)


def _event(seq, **fields):
    return make_event("trial", seq=seq, ts=0.0, **fields)


class TestEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry event kind"):
            make_event("no_such_kind", seq=0, ts=0.0)

    def test_encode_decode_round_trip(self):
        event = _event(3, coverage=12, bugs=["V5"])
        line = encode_event(event)
        assert line.endswith(b"\n")
        assert decode_line(line) == event

    def test_decode_tolerates_torn_and_blank_lines(self):
        line = encode_event(_event(0, coverage=1))
        assert decode_line(line[: len(line) // 2]) is None
        assert decode_line(b"") is None
        assert decode_line(b"   \n") is None
        assert decode_line(b"[1, 2]\n") is None  # non-object JSON

    def test_every_kind_constant_is_registered(self):
        assert {"run_start", "trial", "recovery", "worker_spawn",
                "worker_exit", "worker_restart", "host_degraded",
                "run_finish"} == set(KINDS)


class TestFileSink:
    def test_appends_ndjson_lines(self, tmp_path):
        path = tmp_path / "events.ndjson"
        sink = FileSink(str(path))
        sink.emit(_event(0, coverage=1))
        sink.emit(_event(1, coverage=2))
        sink.close()
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2
        assert [decode_line(line)["seq"] for line in lines] == [0, 1]
        assert sink.stats() == {"sink": f"file:{path}", "sent": 2}

    def test_reopens_after_close(self, tmp_path):
        path = tmp_path / "events.ndjson"
        sink = FileSink(str(path))
        sink.emit(_event(0))
        sink.close()
        sink.emit(_event(1))  # lazily reopens in append mode
        sink.close()
        assert len(path.read_bytes().splitlines()) == 2

    def test_write_fault_raises_into_caller(self, tmp_path):
        faults.install(FaultPlan(rules=(
            FaultRule(site=faults.SITE_SINK_WRITE, action="oserror"),
        )).injector())
        sink = FileSink(str(tmp_path / "events.ndjson"))
        with pytest.raises(OSError):
            sink.emit(_event(0))


class TestParseSinkSpec:
    def test_tcp_spec(self):
        sink = parse_sink_spec("tcp:127.0.0.1:9900", spill_path="spill.ndjson")
        assert isinstance(sink, TcpSink)
        assert (sink.host, sink.port, sink.spill_path) == (
            "127.0.0.1", 9900, "spill.ndjson")
        assert sink.buffer_limit == DEFAULT_BUFFER_LIMIT

    def test_file_and_bare_path_specs(self, tmp_path):
        explicit = parse_sink_spec(f"file:{tmp_path}/a.ndjson")
        bare = parse_sink_spec(f"{tmp_path}/b.ndjson")
        assert isinstance(explicit, FileSink)
        assert isinstance(bare, FileSink)

    def test_bad_tcp_spec_rejected(self):
        for spec in ("tcp:nohost", "tcp::9900", "tcp:host:notaport"):
            with pytest.raises(ValueError, match="expected tcp:HOST:PORT"):
                parse_sink_spec(spec)


class _ExplodingSink(TelemetrySink):
    def emit(self, event):
        raise RuntimeError("sink is on fire")

    def close(self):
        raise RuntimeError("still on fire")

    def stats(self):
        raise RuntimeError("even stats burn")

    def describe(self):
        return "exploding"


class TestRecorder:
    def test_disabled_recorder_is_a_noop(self, monkeypatch):
        built = []
        monkeypatch.setattr("repro.telemetry.sink.make_event",
                            lambda *args, **fields: built.append(args))
        recorder = TelemetryRecorder(None)
        assert not recorder.enabled
        recorder.record("trial", coverage=1)
        recorder.close()
        assert recorder.stats() == {"events": 0, "errors": 0}
        assert built == []  # no event is even built

    def test_stamps_monotonic_seq(self, tmp_path):
        path = tmp_path / "events.ndjson"
        recorder = TelemetryRecorder(FileSink(str(path)))
        recorder.record("run_start", specs=1, trials=2, backend="serial")
        recorder.record("trial", coverage=3)
        recorder.close()
        events = [decode_line(line) for line in path.read_bytes().splitlines()]
        assert [event["seq"] for event in events] == [0, 1]
        assert all(isinstance(event["ts"], float) for event in events)

    def test_never_raises_into_the_campaign(self):
        recorder = TelemetryRecorder(_ExplodingSink())
        recorder.record("trial", coverage=1)  # emit explodes: swallowed
        recorder.close()  # close explodes: swallowed
        stats = recorder.stats()  # stats explodes: partial result, no raise
        assert stats["events"] == 0
        assert stats["errors"] == 2

    def test_unknown_kind_is_an_error_not_a_crash(self, tmp_path):
        recorder = TelemetryRecorder(FileSink(str(tmp_path / "e.ndjson")))
        with pytest.raises(ValueError):
            # make_event validation happens before the sink and is a
            # programming error at the call site, so it does surface.
            recorder.record("bogus_kind")


class TestTcpSink:
    def test_delivers_to_listener(self):
        with TelemetryListener() as listener:
            sink = TcpSink("127.0.0.1", listener.port, backoff=_fast_backoff())
            for seq in range(5):
                sink.emit(_event(seq, coverage=seq))
            sink.close()
            deadline = time.monotonic() + 5.0
            while (len(listener.snapshot()) < 5
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            received = listener.snapshot()
        assert [event["seq"] for event in received] == list(range(5))
        stats = sink.stats()
        assert stats["sent"] == 5
        assert stats["spilled"] == stats["dropped"] == 0

    def test_listener_counts_connections_drained_to_eof(self):
        """Closed senders count once their last event is in; a connection
        cut by ``stop()`` does not count."""
        listener = TelemetryListener().start()
        for seq in range(2):
            sink = TcpSink("127.0.0.1", listener.port, backoff=_fast_backoff())
            sink.emit(_event(seq))
            sink.close()
        deadline = time.monotonic() + 5.0
        while (listener.connections_drained < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert listener.connections_drained == 2
        assert [event["seq"] for event in listener.snapshot()] == [0, 1]
        sink = TcpSink("127.0.0.1", listener.port, backoff=_fast_backoff())
        sink.emit(_event(2))
        deadline = time.monotonic() + 5.0
        while (len(listener.snapshot()) < 3
               and time.monotonic() < deadline):
            time.sleep(0.01)
        listener.stop()
        sink.close()
        assert len(listener.snapshot()) == 3
        assert listener.connections_drained == 2

    def test_never_blocks_when_no_listener_exists(self, tmp_path):
        spill = tmp_path / "spill.ndjson"
        sink = TcpSink("127.0.0.1", 1, buffer_limit=4,
                       spill_path=str(spill), connect_timeout=0.05,
                       backoff=_fast_backoff())
        started = time.monotonic()
        for seq in range(50):
            sink.emit(_event(seq))
        sink.close()
        elapsed = time.monotonic() - started
        assert elapsed < 5.0  # degraded, not stalled
        stats = sink.stats()
        assert stats["sent"] == 0
        assert stats["spilled"] == 50
        assert stats["dropped"] == 0
        assert stats["buffered"] == 0
        assert len(spill.read_bytes().splitlines()) == 50
        assert stats["connect_failures"] >= 1

    def test_overflow_drops_oldest_without_spill_path(self):
        sink = TcpSink("127.0.0.1", 1, buffer_limit=3,
                       connect_timeout=0.05, backoff=_fast_backoff())
        for seq in range(10):
            sink.emit(_event(seq))
        stats = sink.stats()
        assert stats["dropped"] == 7
        assert stats["buffered"] == 3
        # The *newest* events survive in the buffer.
        kept = [decode_line(line)["seq"] for line in sink._buffer]
        assert kept == [7, 8, 9]
        sink.close()
        assert sink.stats()["dropped"] == 10  # close spills or drops the rest

    def test_listener_kill_restart_loss_is_bounded(self, tmp_path):
        """Acceptance: restart the listener mid-stream; account for every
        event as received, spilled, or within the sent-but-unread bound."""
        spill = tmp_path / "spill.ndjson"
        buffer_limit = 8
        listener = TelemetryListener()
        listener.start()
        port = listener.port
        sink = TcpSink("127.0.0.1", port, buffer_limit=buffer_limit,
                       spill_path=str(spill), connect_timeout=0.1,
                       backoff=_fast_backoff())
        emitted = 0
        for seq in range(10):
            sink.emit(_event(seq))
            emitted += 1
        deadline = time.monotonic() + 5.0
        while (len(listener.snapshot()) < 10
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert len(listener.snapshot()) == 10
        listener.stop()  # kill the listener mid-campaign (join is synchronous)
        for seq in range(10, 40):
            sink.emit(_event(seq))
            emitted += 1
        listener.port = port  # restart on the same address
        listener.start()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            sink.emit(_event(emitted))
            emitted += 1
            sink.flush()
            if sink.stats()["reconnects"] >= 2:
                break
            time.sleep(0.01)
        sink.close()
        # Every connection after the first went to the restarted listener
        # and is closed now: wait until it has read each to its end.
        restarted = sink.stats()["reconnects"] - 1
        deadline = time.monotonic() + 10.0
        while (listener.connections_drained < restarted
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert listener.connections_drained >= restarted
        received = listener.snapshot()
        listener.stop()

        stats = sink.stats()
        assert stats["reconnects"] >= 2, stats
        assert stats["dropped"] == 0  # spill path absorbs all overflow
        assert stats["buffered"] == 0  # close() leaves nothing in limbo
        # Every emission is accounted as sent or spilled...
        assert stats["sent"] + stats["spilled"] == emitted
        spilled_lines = (spill.read_bytes().splitlines()
                        if spill.exists() else [])
        assert len(spilled_lines) == stats["spilled"]
        # ...and of the sent ones, at most a socket-buffer window of
        # sent-but-unread events died with the first listener.  That is
        # the documented loss bound; everything else must be in hand.
        lost_in_flight = stats["sent"] - len(received)
        assert 0 <= lost_in_flight <= buffer_limit, stats
        received_seqs = {event["seq"] for event in received}
        spilled_seqs = {decode_line(line)["seq"] for line in spilled_lines}
        unaccounted = set(range(emitted)) - received_seqs - spilled_seqs
        assert len(unaccounted) == lost_in_flight

    def test_connect_fault_counts_failures(self):
        faults.install(FaultPlan(rules=(
            FaultRule(site=faults.SITE_SINK_CONNECT, action="oserror",
                      times=1),
        )).injector())
        with TelemetryListener() as listener:
            sink = TcpSink("127.0.0.1", listener.port,
                           backoff=_fast_backoff())
            sink.emit(_event(0))  # first connect attempt is fault-dropped
            assert sink.stats()["connect_failures"] == 1
            time.sleep(0.01)  # clear the reconnect gate
            sink.emit(_event(1))
            sink.flush()
            stats = sink.stats()
            sink.close()
        assert stats["reconnects"] == 1
        assert stats["sent"] == 2

    def test_write_fault_disconnects_then_recovers(self):
        faults.install(FaultPlan(rules=(
            FaultRule(site=faults.SITE_SINK_WRITE, action="oserror",
                      after=1, times=1, match=(("sink", "tcp"),)),
        )).injector())
        with TelemetryListener() as listener:
            sink = TcpSink("127.0.0.1", listener.port,
                           backoff=_fast_backoff())
            sink.emit(_event(0))  # clean send
            sink.emit(_event(1))  # write fault: disconnect, stays buffered
            assert sink.stats()["disconnects"] == 1
            assert sink.stats()["buffered"] == 1
            time.sleep(0.01)
            sink.emit(_event(2))  # reconnects and drains the backlog
            sink.close()
            deadline = time.monotonic() + 5.0
            while (len(listener.snapshot()) < 3
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            received = listener.snapshot()
        assert [event["seq"] for event in received] == [0, 1, 2]
        assert sink.stats()["sent"] == 3

    def test_backoff_resets_after_successful_reconnect(self):
        sink = TcpSink("127.0.0.1", 1, connect_timeout=0.05,
                       backoff=faults.Backoff(base=0.01, cap=10.0,
                                              jitter=0.0))
        for _ in range(6):
            sink._connect()
        assert sink.backoff.attempt == 6  # schedule escalated while down
        with TelemetryListener() as listener:
            sink.port = listener.port
            assert sink._connect()
        assert sink.backoff.attempt == 0  # success decays to base
        sink.close()

    def test_buffer_limit_validation(self):
        with pytest.raises(ValueError, match="buffer_limit"):
            TcpSink("127.0.0.1", 1, buffer_limit=0)

    def test_spilled_lines_are_valid_ndjson(self, tmp_path):
        spill = tmp_path / "spill.ndjson"
        sink = TcpSink("127.0.0.1", 1, buffer_limit=1,
                       spill_path=str(spill), connect_timeout=0.05,
                       backoff=_fast_backoff())
        sink.emit(_event(0, coverage=7, bugs=["V1"]))
        sink.emit(_event(1))
        sink.close()
        events = [json.loads(line) for line in spill.read_text().splitlines()]
        assert events[0]["coverage"] == 7
        assert [event["seq"] for event in events] == [0, 1]
