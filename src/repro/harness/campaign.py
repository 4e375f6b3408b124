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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.api import fuzzer_family, make_fuzzer, make_processor
from repro.core.config import MABFuzzConfig
from repro.coverage.csr_transitions import COVERAGE_MODELS
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.results import FuzzCampaignResult
from repro.isa.encoding import InstrClass
from repro.isa.generator import GeneratorConfig
from repro.isa.program import program_id_scope
from repro.rtl.bugs import make_bug
from repro.rtl.registry import dut_class

if TYPE_CHECKING:  # avoid a cycle: repro.exec imports this module.
    from repro.exec.cache import DutRunCache


@dataclass(frozen=True)
class CampaignSpec:
    """A reproducible description of one campaign configuration.

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

    processor: str
    fuzzer: str
    num_tests: int = 500
    trials: int = 3
    seed: int = 0
    bugs: Optional[Sequence[str]] = None
    fuzzer_config: Optional[FuzzerConfig] = None
    mab_config: Optional[MABFuzzConfig] = None
    coverage_model: str = "base"

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

        ``trials`` is deliberately excluded: trial ``i`` is bit-identical
        regardless of how many trials the spec asks for (see
        :func:`trial_seed`), so re-running a grid with a *larger* trial
        count must still restore the trials already journaled.

        Fields added after the wire format shipped (``coverage_model``,
        ``FuzzerConfig.scenario``, ``MABFuzzConfig.reward_weights``) are
        stripped at their default values, so a spec that does not use them
        fingerprints exactly as it did before they existed -- journals
        written by earlier versions keep resuming.
        """
        canonical = _canonical(self)
        del canonical["trials"]
        if canonical.get("coverage_model") == "base":
            del canonical["coverage_model"]
        fuzzer_config = canonical.get("fuzzer_config")
        if isinstance(fuzzer_config, dict) and fuzzer_config.get("scenario") == "user":
            del fuzzer_config["scenario"]
        if isinstance(fuzzer_config, dict) and fuzzer_config.get("corpus") is False:
            del fuzzer_config["corpus"]
        mab_config = canonical.get("mab_config")
        if isinstance(mab_config, dict) and mab_config.get("reward_weights") is None:
            del mab_config["reward_weights"]
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()

    def describe(self) -> str:
        """Short human-readable label (used in journals and progress lines)."""
        return (f"{self.fuzzer}@{self.processor}"
                f" tests={self.num_tests} trials={self.trials} seed={self.seed}")

    # ------------------------------------------------------------- wire format
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (inverse of :meth:`from_dict`).

        This is the *task* side of the distributed wire format: the spool
        queue ships specs to workers as these dictionaries, the mirror
        image of ``FuzzCampaignResult.to_dict()`` on the result side.
        """
        return {
            "processor": self.processor,
            "fuzzer": self.fuzzer,
            "num_tests": self.num_tests,
            "trials": self.trials,
            "seed": self.seed,
            "bugs": list(self.bugs) if self.bugs is not None else None,
            "fuzzer_config": _fuzzer_config_to_dict(self.fuzzer_config),
            "mab_config": _mab_config_to_dict(self.mab_config),
            "coverage_model": self.coverage_model,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output (fingerprint-stable).

        Fields are checked, not coerced, and names are checked by the
        rules the trial builds them with, so a malformed spec fails here
        with a ``ValueError`` naming its field, not later in a worker.
        """
        bugs = data.get("bugs")
        if bugs is not None and not isinstance(bugs, list):
            raise ValueError(f"bugs must be a list, got {bugs!r}")
        try:
            return cls(
                processor=_wire_name("processor", data["processor"], dut_class),
                fuzzer=_wire_name("fuzzer", data["fuzzer"], fuzzer_family),
                num_tests=_wire("num_tests", data["num_tests"], int),
                trials=_wire("trials", data["trials"], int),
                seed=_wire("seed", data["seed"], int),
                bugs=([_wire_name("bugs", bug, make_bug) for bug in bugs]
                      if bugs is not None else None),
                fuzzer_config=_fuzzer_config_from_dict(data.get("fuzzer_config")),
                mab_config=_mab_config_from_dict(data.get("mab_config")),
                # Absent in payloads written before the trap/CSR subsystem.
                coverage_model=str(data.get("coverage_model", "base")),
            )
        except KeyError as missing:
            raise ValueError(f"wire field {missing.args[0]} is missing") from None


def _canonical(obj: object) -> object:
    """Reduce ``obj`` to a JSON-serializable canonical form for hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__type__": type(obj).__name__,
                **{f.name: _canonical(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)}}
    if isinstance(obj, Enum):
        return str(obj.value)
    if isinstance(obj, dict):
        return {str(_canonical(key)): _canonical(value)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_canonical(item) for item in obj]
        return sorted(items, key=repr) if isinstance(obj, (set, frozenset)) else items
    return obj


def _generator_config_to_dict(config: Optional[GeneratorConfig]
                              ) -> Optional[Dict[str, object]]:
    if config is None:
        return None
    return {
        "min_instructions": config.min_instructions,
        "max_instructions": config.max_instructions,
        "class_weights": {cls.name: weight
                          for cls, weight in config.class_weights.items()},
        "register_pool": list(config.register_pool),
        "wide_register_prob": config.wide_register_prob,
        "valid_memory_prob": config.valid_memory_prob,
        "illegal_word_prob": config.illegal_word_prob,
        "profile_concentration": config.profile_concentration,
        "randomize_profile": config.randomize_profile,
    }


def _wire(name: str, value: object, kind: type) -> object:
    """``value`` of wire field ``name``, checked to be a ``kind``: ``int``
    and ``float`` exclude ``bool``, and a ``float`` field takes an ``int``."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, allowed):
        raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _wire_name(name: str, value: object, lookup: Callable[[str], object]) -> str:
    """Wire field ``name``: a ``str`` that ``lookup`` -- the registry rule
    the trial builds it with, raising ``KeyError`` -- accepts.  Returned
    as sent, so fingerprints and trial seeds hold."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be str, got {value!r}")
    try:
        lookup(value)
    except KeyError as error:
        raise ValueError(f"{name}: {error.args[0]}") from None
    return value


def _wire_weights(name: str, value: object) -> Dict[str, float]:
    """Wire field ``name``, checked to be a ``str -> float`` map."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a map, got {value!r}")
    return {str(key): _wire(f"{name}[{key}]", weight, float)
            for key, weight in value.items()}


def _generator_config_from_dict(data: Optional[Dict[str, object]]
                                ) -> Optional[GeneratorConfig]:
    if data is None:
        return None
    data = _wire("generator_config", data, dict)
    classes = InstrClass.__members__  # an unknown name stays a str: rejected
    return GeneratorConfig(
        min_instructions=_wire("min_instructions", data["min_instructions"], int),
        max_instructions=_wire("max_instructions", data["max_instructions"], int),
        class_weights={classes.get(name, name): weight for name, weight
                       in _wire_weights("class_weights",
                                        data["class_weights"]).items()},
        register_pool=tuple(data["register_pool"]),
        **{name: _wire(name, data[name], float)
           for name in ("wide_register_prob", "valid_memory_prob",
                        "illegal_word_prob", "profile_concentration")},
        randomize_profile=_wire("randomize_profile", data["randomize_profile"], bool),
    )


def _fuzzer_config_to_dict(config: Optional[FuzzerConfig]
                           ) -> Optional[Dict[str, object]]:
    if config is None:
        return None
    return {
        "num_seeds": config.num_seeds,
        "mutants_per_test": config.mutants_per_test,
        "generator_config": _generator_config_to_dict(config.generator_config),
        "mutation_weights": (dict(config.mutation_weights)
                             if config.mutation_weights is not None else None),
        "max_program_steps": config.max_program_steps,
        "scenario": config.scenario,
        "corpus": config.corpus,
    }


def _fuzzer_config_from_dict(data: Optional[Dict[str, object]]
                             ) -> Optional[FuzzerConfig]:
    if data is None:
        return None
    data = _wire("fuzzer_config", data, dict)
    steps = data.get("max_program_steps")
    weights = data.get("mutation_weights")
    return FuzzerConfig(
        num_seeds=_wire("num_seeds", data["num_seeds"], int),
        mutants_per_test=_wire("mutants_per_test", data["mutants_per_test"], int),
        generator_config=_generator_config_from_dict(data.get("generator_config")),
        mutation_weights=(_wire_weights("mutation_weights", weights)
                          if weights is not None else None),
        max_program_steps=(_wire("max_program_steps", steps, int)
                           if steps is not None else None),
        # Absent in payloads written before the trap/CSR subsystem.
        scenario=str(data.get("scenario", "user")),
        # Absent in payloads written before the corpus subsystem.
        corpus=_wire("corpus", data.get("corpus", False), bool),
    )


def _mab_config_to_dict(config: Optional[MABFuzzConfig]
                        ) -> Optional[Dict[str, object]]:
    if config is None:
        return None
    return {f.name: getattr(config, f.name)
            for f in dataclasses.fields(config)}


#: wire type of each ``MABFuzzConfig`` field; those in ``_MAB_NULLABLE``
#: may also be null.
_MAB_FIELDS = {"num_arms": int, "alpha": float, "gamma": int, "epsilon": float,
               "eta": float, "ucb_exploration": float, "saturation_metric": str,
               "arm_pool_max": int, "reward_weights": dict}
_MAB_NULLABLE = frozenset({"gamma", "arm_pool_max", "reward_weights"})


def _mab_config_from_dict(data: Optional[Dict[str, object]]
                          ) -> Optional[MABFuzzConfig]:
    if data is None:
        return None
    data = _wire("mab_config", data, dict)
    unknown = sorted(set(data) - set(_MAB_FIELDS))
    if unknown:
        raise ValueError(f"unknown mab_config fields: {', '.join(unknown)}")
    # An absent field keeps its default: payloads written before
    # ``reward_weights`` existed lack it.
    values: Dict[str, object] = {}
    for name, value in data.items():
        if value is None and name in _MAB_NULLABLE:
            values[name] = None
        elif _MAB_FIELDS[name] is dict:
            values[name] = _wire_weights(name, value)
        else:
            values[name] = _wire(name, value, _MAB_FIELDS[name])
    return MABFuzzConfig(**values)


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

    ``dut_cache`` optionally routes DUT runs through a
    :class:`~repro.exec.cache.DutRunCache` (the parallel workers install a
    process-local one); it never changes results, only wall-clock.  Golden
    runs, made only for tests in which a bug fired, always go through the
    process's one :func:`~repro.sim.golden.process_golden_cache`.

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

