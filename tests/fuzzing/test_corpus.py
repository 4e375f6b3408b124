"""Unit tests for the coverage-directed corpus (`repro.fuzzing.corpus`)."""

import pytest

from repro.coverage.bitset import mask_of
from repro.fuzzing.corpus import DEFAULT_MAX_ENTRIES, CorpusEntry, CorpusManager
from repro.isa.generator import SeedGenerator


def _programs(count, seed=11):
    generator = SeedGenerator(rng=seed)
    return [generator.generate() for _ in range(count)]


def _offer(manager, program, points, **kwargs):
    return manager.offer(program, mask_of(points), **kwargs)


class TestAdmission:
    def test_first_offer_admitted(self):
        manager = CorpusManager()
        (program,) = _programs(1)
        assert _offer(manager, program, {"t.a", "t.b"})
        assert len(manager) == 1
        assert manager.covered_count == 2
        assert manager.counters["admitted"] == 1

    def test_duplicate_coverage_rejected(self):
        manager = CorpusManager()
        first, second = _programs(2)
        assert _offer(manager, first, {"t.a", "t.b"})
        assert not _offer(manager, second, {"t.a"})
        assert len(manager) == 1
        assert manager.counters["rejected"] == 1

    def test_one_novel_bit_is_enough(self):
        manager = CorpusManager()
        first, second = _programs(2)
        _offer(manager, first, {"t.a", "t.b"})
        assert _offer(manager, second, {"t.a", "t.b", "t.c"})
        assert manager.covered_count == 3

    def test_novelty_judged_against_merged_state(self):
        # A manager that inherited points from elsewhere (another trial,
        # a dispatcher broadcast) must reject programs that only re-reach
        # those points.
        manager = CorpusManager()
        manager.merge_points({"t.a", "t.b"})
        (program,) = _programs(1)
        assert not _offer(manager, program, {"t.a"})

    def test_provenance_recorded(self):
        manager = CorpusManager()
        (program,) = _programs(1)
        _offer(manager, program, {"t.a"}, scenario="trap")
        entry = next(iter(manager.entries.values()))
        assert entry.scenario == "trap"
        assert entry.fingerprint == program.fingerprint()


class TestEviction:
    def test_dominated_entry_evicted(self):
        manager = CorpusManager()
        small, big = _programs(2)
        _offer(manager, small, {"t.a"})
        _offer(manager, big, {"t.a", "t.b"})  # strict superset dominates
        assert len(manager) == 1
        assert next(iter(manager.entries)) == big.fingerprint()
        assert manager.counters["evicted"] == 1

    def test_partial_overlap_keeps_both(self):
        manager = CorpusManager()
        first, second = _programs(2)
        _offer(manager, first, {"t.a", "t.x"})
        _offer(manager, second, {"t.a", "t.y"})
        assert len(manager) == 2

    def test_capacity_evicts_smallest_then_oldest(self):
        manager = CorpusManager(max_entries=2)
        p1, p2, p3 = _programs(3)
        _offer(manager, p1, {"t.a"})
        _offer(manager, p2, {"t.b", "t.c"})
        _offer(manager, p3, {"t.d"})  # p1 (1 point, older than p3) goes
        assert set(manager.entries) == {p2.fingerprint(), p3.fingerprint()}
        # Eviction never shrinks the coverage map.
        assert manager.covered_count == 4

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            CorpusManager(max_entries=0)


class TestSampling:
    def test_empty_corpus_samples_none(self):
        assert CorpusManager().sample() is None

    def test_sample_is_seed_deterministic(self):
        def build():
            manager = CorpusManager(rng=42)
            for index, program in enumerate(_programs(5)):
                _offer(manager, program, {f"t.s{index}"})
            return manager

        first = build()
        second = build()
        assert ([first.sample().fingerprint() for _ in range(8)]
                == [second.sample().fingerprint() for _ in range(8)])

    def test_sampled_program_matches_admitted_fingerprint(self):
        manager = CorpusManager(rng=7)
        (program,) = _programs(1)
        _offer(manager, program, {"t.a"})
        sampled = manager.sample()
        assert sampled.fingerprint() == program.fingerprint()
        assert sampled.words() == program.words()
        assert manager.counters["sampled"] == 1


class TestWireFormat:
    def test_entry_round_trip_recomputes_mask(self):
        manager = CorpusManager()
        (program,) = _programs(1)
        _offer(manager, program, {"t.a", "t.b"}, scenario="user")
        entry = next(iter(manager.entries.values()))
        rebuilt = CorpusEntry.from_dict(entry.to_dict())
        assert rebuilt.fingerprint == entry.fingerprint
        assert rebuilt.points == entry.points
        assert rebuilt.mask == entry.mask
        assert "mask" not in entry.to_dict()

    def test_payload_round_trip(self):
        manager = CorpusManager()
        for index, program in enumerate(_programs(4)):
            _offer(manager, program, {f"t.r{index}", "t.shared"})
        clone = CorpusManager.from_payload(manager.to_payload())
        assert clone.coverage_points() == manager.coverage_points()
        assert set(clone.entries) == set(manager.entries)

    def test_merge_is_idempotent(self):
        manager = CorpusManager()
        for index, program in enumerate(_programs(3)):
            _offer(manager, program, {f"t.i{index}"})
        payload = manager.to_payload()
        other = CorpusManager()
        assert other.merge_payload(payload) == 3
        version = other.version
        assert other.merge_payload(payload) == 0
        assert other.version == version
        assert len(other) == len(manager)

    def test_merge_none_and_empty_are_noops(self):
        manager = CorpusManager()
        assert manager.merge_payload(None) == 0
        assert manager.merge_payload({}) == 0
        assert manager.version == 0

    def test_entries_merge_before_points(self):
        # A payload's point list includes its entries' coverage; merging
        # points first would make every entry non-novel and drop all
        # seeds.  The merge order guarantees the seeds survive.
        manager = CorpusManager()
        (program,) = _programs(1)
        _offer(manager, program, {"t.a", "t.b"})
        receiver = CorpusManager()
        receiver.merge_payload(manager.to_payload())
        assert len(receiver) == 1

    def test_delta_window(self):
        manager = CorpusManager()
        base, fresh = _programs(2)
        _offer(manager, base, {"t.a"})
        manager.mark_base()
        delta = manager.delta_payload()
        assert delta == {"points": [], "entries": []}
        _offer(manager, fresh, {"t.a", "t.b"})
        delta = manager.delta_payload()
        assert delta["points"] == ["t.b"]
        assert [e["fingerprint"] for e in delta["entries"]] \
            == [fresh.fingerprint()]
        # Replaying a delta on top of the base state reproduces the map.
        replica = CorpusManager()
        _offer(replica, base, {"t.a"})
        replica.merge_payload(delta)
        assert replica.coverage_points() == manager.coverage_points()


class TestStats:
    def test_stats_shape(self):
        manager = CorpusManager()
        stats = manager.stats()
        for key in ("admitted", "rejected", "evicted", "sampled",
                    "merged_entries", "merged_points", "entries",
                    "global_points", "version"):
            assert key in stats
        assert stats["entries"] == 0
        assert CorpusManager().max_entries == DEFAULT_MAX_ENTRIES
