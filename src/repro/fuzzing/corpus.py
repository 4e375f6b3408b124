"""Coverage-directed corpus: the feedback loop across trials and workers.

Every fuzzer in this repo was historically *stateless* at campaign
granularity: each trial generated fresh stimulus, learned which programs
reach new coverage, and threw that knowledge away when the trial ended.
This module keeps it.  A :class:`CorpusManager` holds

* a **global coverage map** -- the union of every coverage point any
  admitted program has reached, stored as an integer bitset
  (:mod:`repro.coverage.bitset`) so the admission test is two integer
  operations; and
* a bounded set of :class:`CorpusEntry` seed programs, keyed by program
  fingerprint, each remembered together with the mask of the coverage
  points it reached and its provenance (scenario, mutation operator,
  generation).  :meth:`CorpusManager.offer` and
  :meth:`CorpusManager.novel_points` take the DUT run's mask as is.

Admission is by **novelty**: a program is admitted exactly when its
coverage mask contributes at least one bit the global map does not already
have (``mask & ~global_cov != 0``).  On admission, previously stored
entries whose coverage is *dominated* by the newcomer (``old.mask &
~new.mask == 0``) are evicted, and a capacity bound evicts the
smallest-coverage entry when the corpus overflows.  The surviving entries
are exactly the programs worth mutating again, which is what
:meth:`CorpusManager.sample` hands back to the mutation arms of MABFuzz
and TheHuzz (see ``FuzzerConfig.corpus`` in :mod:`repro.fuzzing.base`).

Process boundaries
------------------
Bitset masks are process-local (bit order depends on registration order),
so a corpus never serialises masks.  The wire form
(:meth:`CorpusManager.to_payload` / :meth:`CorpusManager.from_payload`)
carries canonical data only: sorted point *names* (the only place a
corpus builds names), instruction *words* and the base address.  Programs
are rebuilt with the decoder on the receiving side -- the decode->assemble
fixed point (property-tested in ``tests/isa``) guarantees a rebuilt
program has the same fingerprint, so corpus identity is stable across
serial, process-pool and distributed execution.  Merging is idempotent: the novelty gate absorbs duplicates, so
the worker<->dispatcher exchange channel (``docs/corpus.md``) may deliver
a delta twice, late, or already folded into a broadcast without changing
the final map.

Determinism
-----------
A manager draws nothing from its RNG unless :meth:`CorpusManager.sample`
is called, and sampling is a pure function of the seeded RNG stream and
the admission order -- two managers fed the same sequence of offers and
samples produce identical results.  The execution engine relies on this:
corpus-off campaigns never construct a manager (bit-identical with
pre-corpus builds), and corpus-on serial campaigns are reproducible
end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.coverage.bitset import mask_of, points_of
from repro.isa.decoder import decode_word
from repro.isa.program import TestProgram
from repro.utils.rng import make_rng

#: default capacity bound of a corpus (entries, not points).
DEFAULT_MAX_ENTRIES = 256


@dataclass(frozen=True)
class CorpusEntry:
    """One admitted seed program plus the coverage that earned its place.

    Attributes:
        fingerprint: :meth:`TestProgram.fingerprint` of the program --
            the corpus key (content hash, provenance-independent).
        words: encoded 32-bit instruction words (the canonical program
            body; the wire form, since ``Instruction`` objects and bitset
            masks do not serialise).
        base_address: load address of the first instruction.
        mask: process-local coverage mask of the points the program
            reached when admitted (serialised as sorted point names).
        scenario: seed workload family of the campaign that admitted it.
        mutation_op: operator that produced the program (``None`` for
            generator seeds).
        generation: mutation depth of the program (seeds are 0).
        order: admission sequence number within the owning manager --
            the deterministic tiebreak for eviction and sampling.
    """

    fingerprint: str
    words: Tuple[int, ...]
    base_address: int
    mask: int
    scenario: Optional[str] = None
    mutation_op: Optional[str] = None
    generation: int = 0
    order: int = 0

    def materialize(self) -> TestProgram:
        """Rebuild the :class:`TestProgram` from its encoded words.

        The program is re-assembled from the decoded words, which gives
        back the admitted words -- and fingerprint -- only where decoding
        is a fixed point.  It is not for a non-canonical word; a raw
        ``fence`` word with bits 31:28 set, for one, decodes to ``fence``
        and re-assembles without them, so such an entry samples as a
        program other than the one that was admitted.
        """
        instructions = tuple(decode_word(word) for word in self.words)
        program = TestProgram(instructions=instructions,
                              base_address=self.base_address,
                              generation=self.generation,
                              mutation_op=self.mutation_op)
        return program

    @property
    def points(self) -> FrozenSet[str]:
        """The coverage point names of :attr:`mask`."""
        return points_of(self.mask)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe wire form (point names -- masks are process-local)."""
        return {
            "fingerprint": self.fingerprint,
            "words": list(self.words),
            "base_address": self.base_address,
            "points": sorted(self.points),
            "scenario": self.scenario,
            "mutation_op": self.mutation_op,
            "generation": self.generation,
            "order": self.order,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CorpusEntry":
        """Rebuild an entry from :meth:`to_dict`, recomputing its mask."""
        return cls(
            fingerprint=str(data["fingerprint"]),
            words=tuple(int(word) for word in data["words"]),
            base_address=int(data.get("base_address", 0)),
            mask=mask_of(str(point) for point in data.get("points", ())),
            scenario=data.get("scenario"),
            mutation_op=data.get("mutation_op"),
            generation=int(data.get("generation", 0)),
            order=int(data.get("order", 0)),
        )


class CorpusManager:
    """Novelty-admitted seed corpus plus the global coverage map.

    The manager is the single object behind corpus mode everywhere:

    * fuzzers :meth:`offer` every executed test and :meth:`sample` seeds
      for mutation (``FuzzerConfig.corpus``);
    * the batch executor threads one manager through a batch's trials and
      ships its :meth:`delta_payload` back to the dispatcher;
    * backends fold those deltas into a dispatcher-level manager via
      :meth:`merge_payload` -- the same merge path in-process (serial,
      pool) and across machines (the SpoolQueue coverage channel); and
    * the checkpoint journal replays recorded deltas through
      :meth:`merge_payload` on ``--resume``.

    All mutation goes through the novelty gate, so merges are idempotent
    and order changes only *which* of several equivalent seed sets
    survives, never the coverage map itself.

    Args:
        rng: seed or ``numpy`` Generator for :meth:`sample`.  Defaults to
            a fixed seed (0) so managers that never sample -- dispatcher
            maps, journal replays -- are deterministic by construction.
        max_entries: capacity bound; admitting past it evicts the entry
            with the fewest coverage points (oldest first on ties).
    """

    def __init__(self, rng=0, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._rng = make_rng(rng)
        #: integer bitset: union of every admitted/merged coverage point.
        self.global_cov = 0
        #: admitted entries keyed by program fingerprint.
        self.entries: Dict[str, CorpusEntry] = {}
        #: bumped on every state change (admission, merge, eviction) --
        #: the broadcast layer uses it to skip republishing unchanged maps.
        self.version = 0
        self._order = 0
        self._base_cov = 0
        self._base_fingerprints: FrozenSet[str] = frozenset()
        self.counters: Dict[str, int] = {
            "admitted": 0, "rejected": 0, "evicted": 0, "sampled": 0,
            "merged_entries": 0, "merged_points": 0,
        }

    # ------------------------------------------------------------------ queries
    @property
    def covered_count(self) -> int:
        """Number of points in the global coverage map."""
        return self.global_cov.bit_count()

    def coverage_points(self) -> FrozenSet[str]:
        """The global coverage map as canonical point names."""
        return points_of(self.global_cov)

    def novel_points(self, coverage: int) -> int:
        """The mask of the points in ``coverage`` the global map lacks.

        This is the corpus-aware reward signal: with inherited state, a
        test re-reaching points some earlier trial (or another worker)
        already discovered is *not* novel grid-wide, even if it is new to
        the current campaign.  Feeding this to the bandit steers arms
        away from already-charted territory.
        """
        return coverage & ~self.global_cov

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        # An empty corpus with merged points is still truthy state-wise,
        # but samplers only care about entries.
        return bool(self.entries)

    # ---------------------------------------------------------------- admission
    def offer(self, program: TestProgram, coverage: int,
              scenario: Optional[str] = None) -> bool:
        """Offer an executed program; admit it iff its coverage is novel.

        Returns ``True`` when the program was admitted.  ``coverage`` is
        the mask of every point the program reached (not just the
        campaign-new ones): novelty is judged against *this* manager's
        global map, which may already know points a fresh campaign has not
        seen yet (state injected from other trials or workers).
        """
        if coverage & ~self.global_cov == 0:
            self.counters["rejected"] += 1
            return False
        entry = CorpusEntry(
            fingerprint=program.fingerprint(),
            words=program.words(),
            base_address=program.base_address,
            mask=coverage,
            scenario=scenario,
            mutation_op=program.mutation_op,
            generation=program.generation,
            order=self._order,
        )
        self._admit(entry)
        self.counters["admitted"] += 1
        return True

    def _admit(self, entry: CorpusEntry) -> None:
        """Shared admission tail: fold coverage, evict dominated, cap."""
        self.global_cov |= entry.mask
        dominated = [fp for fp, old in self.entries.items()
                     if fp != entry.fingerprint
                     and old.mask & ~entry.mask == 0]
        for fp in dominated:
            del self.entries[fp]
            self.counters["evicted"] += 1
        self.entries[entry.fingerprint] = entry
        self._order += 1
        while len(self.entries) > self.max_entries:
            victim = min(self.entries.values(),
                         key=lambda e: (e.mask.bit_count(), e.order))
            del self.entries[victim.fingerprint]
            self.counters["evicted"] += 1
        self.version += 1

    # ------------------------------------------------------------------ merging
    def merge_points(self, points: Iterable[str]) -> int:
        """Fold bare coverage points into the global map; return new bits."""
        mask = mask_of(points)
        new = mask & ~self.global_cov
        if new:
            self.global_cov |= mask
            self.counters["merged_points"] += new.bit_count()
            self.version += 1
        return new.bit_count()

    def merge_entry(self, entry: CorpusEntry) -> bool:
        """Fold one external entry through the novelty gate."""
        if entry.mask & ~self.global_cov == 0:
            return False
        entry = CorpusEntry(
            fingerprint=entry.fingerprint, words=entry.words,
            base_address=entry.base_address,
            mask=entry.mask, scenario=entry.scenario,
            mutation_op=entry.mutation_op, generation=entry.generation,
            order=self._order)
        self._admit(entry)
        self.counters["merged_entries"] += 1
        return True

    def merge_payload(self, payload: Optional[Dict[str, object]]) -> int:
        """Fold a :meth:`to_payload`/:meth:`delta_payload` dict; return new bits.

        Entries are merged *before* bare points (in their original
        admission order): folding the point list first would make every
        entry non-novel and silently drop all seeds.  Safe to call with
        ``None`` or an empty dict (no-op), and idempotent -- replaying a
        payload changes nothing.
        """
        if not payload:
            return 0
        before = self.global_cov
        raw_entries = payload.get("entries", ())
        for data in sorted(raw_entries, key=lambda e: int(e.get("order", 0))):
            self.merge_entry(CorpusEntry.from_dict(data))
        self.merge_points(payload.get("points", ()))
        return (self.global_cov & ~before).bit_count()

    # -------------------------------------------------------------- wire format
    def to_payload(self) -> Dict[str, object]:
        """Full JSON-safe state: every entry plus the whole coverage map."""
        ordered = sorted(self.entries.values(), key=lambda e: e.order)
        return {"points": sorted(self.coverage_points()),
                "entries": [entry.to_dict() for entry in ordered]}

    @classmethod
    def from_payload(cls, payload: Optional[Dict[str, object]],
                     rng=0, max_entries: int = DEFAULT_MAX_ENTRIES,
                     ) -> "CorpusManager":
        """Build a manager from :meth:`to_payload` (``None`` -> empty)."""
        manager = cls(rng=rng, max_entries=max_entries)
        manager.merge_payload(payload)
        return manager

    def mark_base(self) -> None:
        """Start a delta window: subsequent changes go to :meth:`delta_payload`."""
        self._base_cov = self.global_cov
        self._base_fingerprints = frozenset(self.entries)

    def delta_payload(self) -> Dict[str, object]:
        """State accumulated since :meth:`mark_base`, in wire form.

        ``points`` carries every coverage bit added since the mark
        (a superset of the new entries' contributions), ``entries`` every
        entry admitted or merged since.  This is what workers publish on
        the coverage channel and what the checkpoint journal records.
        """
        new_points = points_of(self.global_cov & ~self._base_cov)
        new_entries = sorted(
            (entry for fp, entry in self.entries.items()
             if fp not in self._base_fingerprints),
            key=lambda e: e.order)
        return {"points": sorted(new_points),
                "entries": [entry.to_dict() for entry in new_entries]}

    # ----------------------------------------------------------------- sampling
    def sample(self) -> Optional[TestProgram]:
        """Draw one corpus program for mutation (``None`` when empty).

        The draw is uniform over entries in admission order, using the
        manager's seeded RNG -- byte-identical corpora with equal RNG
        state sample the same program, which is what keeps corpus-on
        serial campaigns reproducible.
        """
        if not self.entries:
            return None
        ordered = sorted(self.entries.values(), key=lambda e: e.order)
        entry = ordered[int(self._rng.integers(0, len(ordered)))]
        self.counters["sampled"] += 1
        return entry.materialize()

    # -------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        """Counters plus current size -- surfaced in engine/campaign stats."""
        stats = dict(self.counters)
        stats["entries"] = len(self.entries)
        stats["global_points"] = self.covered_count
        stats["version"] = self.version
        return stats
