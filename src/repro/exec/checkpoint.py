"""JSONL checkpoint journal for campaign grids.

One journal file records the completed trials of one (or several) grid
runs, one JSON object per line, append-only:

* ``{"kind": "grid", "specs": [...], ...}`` -- informational header
  written at the start of every grid run (spec fingerprints + labels).
* ``{"kind": "trial", "spec": <fingerprint>, "trial": <index>,
  "result": <FuzzCampaignResult.to_dict()>, "check": <crc32>}`` -- one
  completed trial.
* ``{"kind": "corpus", "delta": {"points": [...], "entries": [...]},
  "check": <crc32>}`` -- one corpus-mode batch's coverage/seed delta
  (:meth:`~repro.fuzzing.corpus.CorpusManager.delta_payload`), appended
  as batches finish so ``--resume`` restores the feedback loop, not just
  the completed trials.  Replay folds deltas in file order through the
  idempotent corpus merge, so duplicated records (dispatcher retries) and
  salvaged-around gaps both degrade gracefully.

Trials are keyed by *spec fingerprint*, not by grid position, so a resumed
run matches completed work even if the grid is re-assembled in a different
order (or a superset grid is launched later).

Corruption safety: every record carries a CRC-32 checksum of its own
content, and :meth:`CheckpointJournal.load` runs a **salvage pass** -- a
half-written final line (the normal aftermath of killing a run
mid-append), an undecodable interior line, or a line that parses but fails
its checksum (bit rot, overlapping writes on a broken filesystem) is
skipped and *counted*, never trusted and never fatal.  The tally of
salvaged-vs-dropped records is exposed as
:attr:`CheckpointJournal.last_load_stats` so the engine can report how
much of a damaged journal survived.  Records without a checksum (journals
written before checksums existed) still load.

Concurrent writers are supported: each record is appended with a single
``write(2)`` on an ``O_APPEND`` descriptor, so records from two processes
sharing one journal (as distributed dispatchers may) interleave only at
line granularity, never inside a line.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, Optional, Sequence, Tuple

from repro.exec import faults
from repro.fuzzing.results import FuzzCampaignResult
from repro.harness.campaign import CampaignSpec

JOURNAL_VERSION = 1

#: key of one completed trial: (spec fingerprint, trial index).
TrialKey = Tuple[str, int]

#: record field holding the CRC-32 of the rest of the record.
CHECK_KEY = "check"


def record_checksum(record: dict) -> int:
    """CRC-32 over the canonical JSON of ``record`` minus its checksum."""
    body = {key: value for key, value in record.items() if key != CHECK_KEY}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


class CheckpointJournal:
    """Append-only JSONL journal of completed grid trials."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fd: Optional[int] = None
        #: salvage tally of the most recent :meth:`load`: records loaded,
        #: records dropped (and why).
        self.last_load_stats: Dict[str, int] = {}
        #: corpus deltas of the most recent :meth:`load`, in journal
        #: order; the engine folds them into its corpus state on resume.
        self.last_corpus_deltas: list = []

    # ------------------------------------------------------------------ loading
    def load(self) -> Dict[TrialKey, FuzzCampaignResult]:
        """Read every completed trial recorded in the journal.

        Returns a mapping from :data:`TrialKey` to the deserialized
        result.  Unknown line kinds are ignored (forward compatibility).
        Damaged lines are *salvaged around*: an undecodable line (torn
        tail or interior), a record failing its checksum, or a malformed
        trial record (a ``spec`` that is not a string, a ``trial`` that is
        not a non-negative int, a result that breaks the wire format) is
        dropped and tallied in
        :attr:`last_load_stats` -- ``{"loaded": .., "dropped": ..,
        "dropped_undecodable": .., "dropped_checksum": ..,
        "dropped_malformed": ..}``.  A missing file is simply an empty
        journal.
        """
        completed: Dict[TrialKey, FuzzCampaignResult] = {}
        stats = {"loaded": 0, "dropped": 0, "dropped_undecodable": 0,
                 "dropped_checksum": 0, "dropped_malformed": 0}
        self.last_load_stats = stats
        self.last_corpus_deltas = []

        def drop(reason: str) -> None:
            stats["dropped"] += 1
            stats[f"dropped_{reason}"] += 1

        if not os.path.exists(self.path):
            return completed
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # A truncated append (kill/crash mid-write) or an
                    # interior record damaged beyond parsing.
                    drop("undecodable")
                    continue
                if not isinstance(record, dict):
                    drop("malformed")
                    continue
                if CHECK_KEY in record:
                    try:
                        check = int(record[CHECK_KEY])
                    except (TypeError, ValueError):
                        check = -1
                    if check != record_checksum(record):
                        # Parses, but the content is not what was written
                        # -- the case only a checksum can catch.
                        drop("checksum")
                        continue
                if record.get("kind") == "grid":
                    version = record.get("version", JOURNAL_VERSION)
                    if version != JOURNAL_VERSION:
                        raise ValueError(
                            f"checkpoint journal {self.path} has format "
                            f"version {version}; this build reads version "
                            f"{JOURNAL_VERSION} -- refusing a partial restore")
                    continue
                if record.get("kind") == "corpus":
                    delta = record.get("delta")
                    if isinstance(delta, dict):
                        self.last_corpus_deltas.append(delta)
                    else:
                        drop("malformed")
                    continue
                if record.get("kind") != "trial":
                    continue
                spec, trial = record.get("spec"), record.get("trial")
                if not isinstance(spec, str) or type(trial) is not int or trial < 0:
                    drop("malformed")
                    continue
                try:
                    completed[(spec, trial)] = FuzzCampaignResult.from_dict(record["result"])
                except (KeyError, TypeError, ValueError):
                    drop("malformed")
                    continue
                stats["loaded"] += 1
        return completed

    # ------------------------------------------------------------------ writing
    def _append(self, record: dict) -> None:
        if self._fd is None:
            self._fd = os.open(self.path,
                               os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        record = dict(record)
        record[CHECK_KEY] = record_checksum(record)
        # One write(2) per record: O_APPEND makes concurrent appends from
        # several processes land whole, in some order, never interleaved.
        data = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        for rule in faults.fire(faults.SITE_JOURNAL_APPEND,
                                kind=record.get("kind")):
            # A torn record glues onto the next append exactly as a real
            # mid-write crash would; the salvage pass owns recovery.
            data = faults.corrupt_bytes(data, rule)
        written = os.write(self._fd, data)
        if written != len(data):
            # A short write (ENOSPC edge, RLIMIT_FSIZE) would silently
            # corrupt this record and swallow the next one on load.
            raise OSError(f"short write to checkpoint journal {self.path}: "
                          f"{written}/{len(data)} bytes")
        os.fsync(self._fd)

    def record_grid(self, specs: Sequence[CampaignSpec]) -> None:
        """Append an informational header describing the grid being run."""
        self._append({
            "kind": "grid",
            "version": JOURNAL_VERSION,
            "specs": [{"fingerprint": spec.fingerprint(),
                       "label": spec.describe(),
                       "trials": spec.trials} for spec in specs],
        })

    def record_trial(self, spec: CampaignSpec, trial_index: int,
                     result) -> None:
        """Append one completed trial (flushed + fsynced before returning).

        ``result`` is a :class:`FuzzCampaignResult` or, when the caller
        already holds the backend's serialized form, its ``to_dict()``
        payload -- the engine passes payloads straight through so results
        are encoded exactly once per trial.
        """
        self._append({
            "kind": "trial",
            "spec": spec.fingerprint(),
            "trial": trial_index,
            "result": result if isinstance(result, dict) else result.to_dict(),
        })

    def record_corpus(self, delta: Dict[str, object]) -> None:
        """Append one corpus-mode batch delta (checksummed like any record).

        Empty deltas (a batch that discovered nothing new) are skipped --
        they would replay as no-ops anyway and only grow the journal.
        """
        if not delta.get("points") and not delta.get("entries"):
            return
        self._append({"kind": "corpus", "delta": delta})

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
