"""Telemetry event schema and NDJSON encoding.

Every event is one JSON object on one line (NDJSON), self-describing via
its ``kind`` field.  The stream is *observational*: it rides alongside a
campaign without participating in the determinism contract -- dropping
every event changes nothing about the grid's results, which is what lets
sinks degrade (buffer, spill, drop) instead of blocking the hot path.

Kinds and the fields each one carries (beyond the common envelope of
``kind``, ``seq`` -- a per-recorder monotonic counter -- and ``ts``, a
wall-clock stamp for humans, never used programmatically):

===================  ========================================================
kind                 payload fields
===================  ========================================================
``run_start``        ``specs``, ``trials``, ``backend``
``trial``            ``spec_index``, ``trial_index``, ``label``, ``coverage``,
                     ``total_points``, ``bugs``
``recovery``         ``counters`` -- the robustness-stat deltas observed
                     since the previous ``recovery`` event
``worker_spawn``     ``host``, ``worker_id``, ``generation``
``worker_exit``      ``host``, ``worker_id``, ``returncode``
``worker_restart``   ``host``, ``worker_id``, ``generation``
``host_degraded``    ``host``, ``restarts``, ``window``
``run_finish``       ``trials``, ``quarantined``, ``transport``
===================  ========================================================

The worked example in ``docs/service.md`` shows a full stream.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

KIND_RUN_START = "run_start"
KIND_TRIAL = "trial"
KIND_RECOVERY = "recovery"
KIND_WORKER_SPAWN = "worker_spawn"
KIND_WORKER_EXIT = "worker_exit"
KIND_WORKER_RESTART = "worker_restart"
KIND_HOST_DEGRADED = "host_degraded"
KIND_RUN_FINISH = "run_finish"

KINDS = frozenset({
    KIND_RUN_START,
    KIND_TRIAL,
    KIND_RECOVERY,
    KIND_WORKER_SPAWN,
    KIND_WORKER_EXIT,
    KIND_WORKER_RESTART,
    KIND_HOST_DEGRADED,
    KIND_RUN_FINISH,
})


def make_event(kind: str, seq: int, ts: float, **fields: object) -> Dict[str, object]:
    """Build one event dict; unknown kinds fail fast at the source."""
    if kind not in KINDS:
        raise ValueError(f"unknown telemetry event kind {kind!r}; "
                         f"kinds: {sorted(KINDS)}")
    event: Dict[str, object] = {"kind": kind, "seq": seq, "ts": ts}
    event.update(fields)
    return event


def encode_event(event: Dict[str, object]) -> bytes:
    """One NDJSON line, newline-terminated, UTF-8."""
    return (json.dumps(event, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_line(line: bytes) -> Optional[Dict[str, object]]:
    """Parse one received line; ``None`` for blank or torn lines.

    Receivers tolerate damage (a sender killed mid-write tears its last
    line) -- the stream is advisory, so a bad line is skipped, not fatal.
    """
    text = line.strip()
    if not text:
        return None
    try:
        parsed = json.loads(text)
    except (ValueError, UnicodeDecodeError):
        return None
    return parsed if isinstance(parsed, dict) else None


__all__ = [
    "KINDS",
    "KIND_HOST_DEGRADED",
    "KIND_RECOVERY",
    "KIND_RUN_FINISH",
    "KIND_RUN_START",
    "KIND_TRIAL",
    "KIND_WORKER_EXIT",
    "KIND_WORKER_RESTART",
    "KIND_WORKER_SPAWN",
    "decode_line",
    "encode_event",
    "make_event",
]
