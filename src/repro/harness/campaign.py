"""Campaign running: one (processor, fuzzer) pair, possibly repeated.

The paper runs every configuration at least three times to reduce the
effect of randomness (Sec. IV-A); :class:`TrialSet` is the container for
such repeated campaigns and the unit the metrics module aggregates over.

:func:`run_campaign` runs one trial.  A grid of specs runs through
:meth:`repro.exec.engine.CampaignEngine.run_grid`, which hands the
independent trials to an execution backend (serial, multi-process or
distributed); the per-trial seeds are derived purely from the spec
content, which is what makes trial ``i`` bit-reproducible regardless of
which worker runs it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.api import fuzzer_family, make_fuzzer, make_processor
from repro.core.config import MABFuzzConfig
from repro.coverage.csr_transitions import COVERAGE_MODELS
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.results import FuzzCampaignResult
from repro.isa.program import program_id_scope
from repro.rtl.bugs import make_bug
from repro.rtl.registry import dut_class
from repro.utils.wire import OPTIONAL, Record, is_optional, lookup

if TYPE_CHECKING:  # avoid a cycle: repro.exec imports this module.
    from repro.exec.cache import DutRunCache


#: ``field(metadata=_UNHASHED)``: a field :meth:`CampaignSpec.fingerprint` leaves out.
_UNHASHED = {"unhashed": True}


@dataclass(frozen=True)
class CampaignSpec(Record):
    """A reproducible description of one campaign configuration.

    The task side of the wire format (:mod:`repro.utils.wire`): a payload
    that breaks the declaration, names included, fails in :meth:`from_dict`
    with a ``ValueError`` naming its field, not later in a worker.

    Attributes:
        processor: DUT name (``"cva6"``, ``"rocket"``, ``"boom"``).
        fuzzer: fuzzer name (``"thehuzz"``, ``"mabfuzz:ucb"`` ...).
        num_tests: tests per trial.
        trials: number of repeated trials.
        seed: base RNG seed; trial ``i`` uses :func:`trial_seed`.
        bugs: bug ids to inject (``None`` = the paper's defaults for the DUT).
        fuzzer_config: shared fuzzer configuration (incl. the seed
            ``scenario``: user / trap / mixed workloads).
        mab_config: MABFuzz configuration (ignored by non-MAB fuzzers).
        coverage_model: DUT coverage model -- ``"base"`` (hit sets only) or
            ``"csr"`` (adds CSR-transition points, docs/coverage.md).
    """

    processor: str = field(metadata=lookup(dut_class))
    fuzzer: str = field(metadata=lookup(fuzzer_family))
    num_tests: int = 500
    trials: int = field(default=3, metadata=_UNHASHED)
    seed: int = 0
    bugs: Optional[List[str]] = field(default=None, metadata=lookup(make_bug))
    fuzzer_config: Optional[FuzzerConfig] = None
    mab_config: Optional[MABFuzzConfig] = None
    # Absent in payloads written before the trap/CSR subsystem.
    coverage_model: str = field(default="base", metadata=OPTIONAL)

    def __post_init__(self) -> None:
        if self.num_tests < 1:
            raise ValueError("num_tests must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.coverage_model not in COVERAGE_MODELS:
            raise ValueError(f"coverage_model must be one of {COVERAGE_MODELS}")

    def fingerprint(self) -> str:
        """Stable content hash of this spec (process-independent).

        Used by the checkpoint journal to match completed trials to specs
        across interrupted runs, so it must not depend on
        ``PYTHONHASHSEED``, dict ordering or object identity.

        ``trials`` is deliberately left out: trial ``i`` is bit-identical
        regardless of how many trials the spec asks for (see
        :func:`trial_seed`), so re-running a grid with a *larger* trial
        count must still restore the trials already journaled.

        Fields added after the wire format shipped (those declared
        optional on the wire) are left out at their default values, so a
        spec that does not use them fingerprints exactly as it did before
        they existed -- journals written by earlier versions keep resuming.
        """
        payload = json.dumps(_canonical(self), sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()

    def describe(self) -> str:
        """Short human-readable label (used in journals and progress lines)."""
        return (f"{self.fuzzer}@{self.processor}"
                f" tests={self.num_tests} trials={self.trials} seed={self.seed}")


def _canonical(obj: object) -> object:
    """Reduce ``obj`` to a JSON-serializable canonical form for hashing;
    an unhashed field, and a wire-optional one at its default, are left out."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__type__": type(obj).__name__,
                **{f.name: _canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)
                   if not (f.metadata.get("unhashed")
                           or is_optional(f) and getattr(obj, f.name) == f.default)}}
    if isinstance(obj, Enum):
        return str(obj.value)
    if isinstance(obj, dict):
        return {str(_canonical(key)): _canonical(value)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_canonical(item) for item in obj]
        return sorted(items, key=repr) if isinstance(obj, (set, frozenset)) else items
    return obj


def trial_seed(spec: CampaignSpec, trial_index: int) -> int:
    """Derive the RNG seed of trial ``trial_index`` of ``spec``.

    The seed is spread through BLAKE2b over ``(processor, fuzzer, base
    seed, trial)``, so specs that share a base seed (the experiment grids
    all do) still get statistically independent streams per cell -- the
    pre-parallel scheme ``seed + trial_index`` made trial 1 of ``seed=0``
    identical to trial 0 of ``seed=1`` for the same (processor, fuzzer).

    Compatibility note: results produced before the parallel-execution
    subsystem (PR 2) used ``spec.seed + trial_index`` and are not
    seed-comparable with results produced after it.
    """
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    key = f"{spec.processor}\x1f{spec.fuzzer}\x1f{spec.seed}\x1f{trial_index}"
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") & (2**63 - 1)


@dataclass
class TrialSet:
    """The results of all trials of one campaign specification.

    ``results`` may be *partial* after a checkpoint resume: entries can be
    missing (shorter list) or ``None`` (a hole for a not-yet-run trial
    index).  Every aggregate helper operates on :meth:`completed_results`
    so a partially restored set never crashes the metrics layer.
    """

    spec: CampaignSpec
    results: List[Optional[FuzzCampaignResult]] = field(default_factory=list)

    @property
    def fuzzer_name(self) -> str:
        return self.spec.fuzzer

    @property
    def processor(self) -> str:
        return self.spec.processor

    def completed_results(self) -> List[FuzzCampaignResult]:
        """The trials that actually ran (skips ``None`` placeholders)."""
        return [r for r in self.results if r is not None]

    @property
    def num_trials(self) -> int:
        """Number of completed trials (may be < ``spec.trials`` after resume)."""
        return len(self.completed_results())

    @property
    def is_complete(self) -> bool:
        """Whether every trial the spec asks for has a result."""
        return self.num_trials >= self.spec.trials

    def missing_trials(self) -> List[int]:
        """Trial indices that still need to run to complete the spec."""
        return [i for i in range(self.spec.trials)
                if i >= len(self.results) or self.results[i] is None]

    def mean_coverage_count(self) -> float:
        completed = self.completed_results()
        if not completed:
            return 0.0
        return sum(r.coverage_count for r in completed) / len(completed)

    def mean_coverage_percent(self) -> float:
        completed = self.completed_results()
        if not completed:
            return 0.0
        return sum(r.coverage_percent for r in completed) / len(completed)

    def detection_tests(self, bug_id: str) -> List[Optional[int]]:
        """Per-completed-trial tests-to-detection for ``bug_id``.

        ``None`` entries mean *ran but did not detect*; trials that have
        not run at all (resume holes) are excluded entirely, since they say
        nothing about detectability.
        """
        return [r.detection_tests(bug_id) for r in self.completed_results()]


def run_campaign(spec: CampaignSpec, trial_index: int = 0,
                 dut_cache: Optional["DutRunCache"] = None,
                 corpus_state: Optional[Dict[str, object]] = None,
                 corpus_sink=None) -> FuzzCampaignResult:
    """Run a single trial of ``spec`` and return its result.

    ``dut_cache`` optionally routes tests through a
    :class:`~repro.exec.cache.DutRunCache` of their outcomes (every batch
    installs the process's one); it never changes results, only
    wall-clock.  Golden runs, made only where a bug fired, always go
    through the process's one :func:`~repro.sim.golden.process_golden_cache`.

    When the spec enables corpus mode (``FuzzerConfig.corpus``),
    ``corpus_state`` is a :meth:`~repro.fuzzing.corpus.CorpusManager.
    to_payload` dict of accumulated state merged into the trial's corpus
    before it runs (the feedback from earlier trials / other workers),
    and ``corpus_sink`` is called with the trial's full corpus payload
    after it finishes so the caller can fold the trial's discoveries back.
    Both are ignored for corpus-off specs.
    """
    seed = trial_seed(spec, trial_index)
    with program_id_scope():  # ids restart at 0: results are process-independent
        dut = make_processor(spec.processor, bugs=spec.bugs,
                             coverage_model=spec.coverage_model)
        fuzzer = make_fuzzer(
            spec.fuzzer, dut,
            fuzzer_config=spec.fuzzer_config,
            mab_config=spec.mab_config,
            rng=seed,
        )
        if dut_cache is not None:
            fuzzer.session.dut_cache = dut_cache
        if fuzzer.corpus is not None:
            if corpus_state:
                fuzzer.corpus.merge_payload(corpus_state)
            fuzzer.on_corpus_state()
        result = fuzzer.run(spec.num_tests,
                            metadata={"trial": trial_index, "seed": seed})
        if fuzzer.corpus is not None and corpus_sink is not None:
            corpus_sink(fuzzer.corpus.to_payload())
        return result

