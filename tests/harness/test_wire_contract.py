"""The frozen wire contract: specs, results, batches and fault plans.

Workers, the spool queue and the checkpoint journal exchange these types
as JSON, and the journal matches completed trials to specs by
``CampaignSpec.fingerprint()``.  The round-trip tests elsewhere compare a
build with itself, so a change to how every payload is written would pass
them.  This module pins payloads recorded in
``tests/sim/fixtures/wire_contract.json``:

* each live spec, result and batch below encodes to its recorded text
  (key order included, except for batches);
* each recorded payload (among them a spec in the shape written before
  ``coverage_model``, ``scenario``, ``corpus`` and ``reward_weights``
  existed) decodes, and re-encodes to the recorded sorted JSON; and
* every spec keeps its recorded fingerprint, so journals keep resuming.

Fault plans are written by hand, so they are pinned on decode only: the
recorded texts (CI's chaos-smoke plans among them) decode to the plans
built below.

Re-record only for an intentional change of the wire format::

    PYTHONPATH=src:. python tests/harness/test_wire_contract.py --record
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.core.config import MABFuzzConfig
from repro.coverage.database import CoverageSample
from repro.exec.batching import TrialBatch, TrialTask, batch_from_wire, batch_to_wire
from repro.exec.faults import FaultPlan, FaultRule
from repro.fuzzing.base import FuzzerConfig
from repro.fuzzing.results import BugDetection, FuzzCampaignResult
from repro.harness.campaign import CampaignSpec
from repro.isa.generator import GeneratorConfig

FIXTURE_PATH = (Path(__file__).resolve().parents[1] / "sim" / "fixtures"
                / "wire_contract.json")

#: the four spec keys that payloads written before them lack.
LATE_KEYS = (("coverage_model",), ("fuzzer_config", "scenario"),
             ("fuzzer_config", "corpus"), ("mab_config", "reward_weights"))


def _default_spec() -> CampaignSpec:
    return CampaignSpec("cva6", "thehuzz")


def _full_spec() -> CampaignSpec:
    return CampaignSpec(
        processor="rocket", fuzzer="mabfuzz:exp3", num_tests=40, trials=2,
        seed=9, bugs=["V5", "V7"],
        fuzzer_config=FuzzerConfig(
            num_seeds=4, mutants_per_test=3,
            generator_config=GeneratorConfig(min_instructions=8,
                                             max_instructions=16,
                                             illegal_word_prob=0.05),
            mutation_weights={"bitflip1": 2.0}, max_program_steps=500),
        mab_config=MABFuzzConfig(num_arms=5, alpha=0.5, gamma=None))


def _late_spec() -> CampaignSpec:
    return CampaignSpec(
        processor="cva6", fuzzer="mabfuzz:ucb", num_tests=30, trials=2,
        seed=4, coverage_model="csr",
        fuzzer_config=FuzzerConfig(num_seeds=3, mutants_per_test=2,
                                   scenario="mixed", corpus=True),
        mab_config=MABFuzzConfig(num_arms=4, reward_weights={"csr": 2.0,
                                                             "isa": 0.5}))


def _result() -> FuzzCampaignResult:
    return FuzzCampaignResult(
        fuzzer_name="mabfuzz:ucb", dut_name="cva6", num_tests=30,
        coverage_curve=[CoverageSample(0, 7), CoverageSample(3, 12),
                        CoverageSample(29, 20)],
        coverage_count=20, total_points=410,
        bug_detections={"V2": BugDetection("V2", 3, "t17", "mismatch at pc"),
                        "V5": BugDetection("V5", 11, "t40")},
        interesting_tests=6, mismatching_tests=9, elapsed_seconds=0.75,
        metadata={"trial": 1, "seed": 123456789, "gamma": None,
                  "alpha": 0.25, "algorithm": "ucb"})


def _batch(corpus=None) -> TrialBatch:
    return TrialBatch(index=3, cache_entries=64, corpus=corpus,
                      tasks=(TrialTask(0, 1, _default_spec()),
                             TrialTask(2, 0, _full_spec())))


CORPUS = {"points": ["isa.class.ARITH", "trap.cause.2"], "entries": []}

#: payload kind -> (encode, decode).
CODECS = {
    "spec": (CampaignSpec.to_dict, CampaignSpec.from_dict),
    "result": (FuzzCampaignResult.to_dict, FuzzCampaignResult.from_dict),
    "batch": (batch_to_wire, batch_from_wire),
}

LIVE: Dict[str, Callable[[], object]] = {
    "spec:default": _default_spec,
    "spec:full": _full_spec,
    "spec:csr+mixed+corpus+reward_weights": _late_spec,
    "result:curve+detections+metadata": _result,
    "batch:two-tasks": _batch,
    "batch:two-tasks+corpus": lambda: _batch(CORPUS),
}

#: the spec written before the late keys existed; and a batch as a worker
#: claims it, with the queue's retry envelope.
LEGACY_SPEC = "spec:csr+mixed+corpus+reward_weights/pre-late-keys"
CLAIMED_BATCH = "batch:two-tasks+corpus/claimed"

PLANS = {
    "every-field": FaultPlan(seed=7, rules=(
        FaultRule(site="worker.poll", action="defer", after=1, times=0,
                  arg=2.0, match=(("task_id", "run-000001"),
                                  ("worker", "w1")),
                  beacon="/spool/deaths"),
        FaultRule(site="queue.publish", action="torn"))),
    "ci-chaos-worker": FaultPlan(rules=(
        FaultRule(site="queue.claim", action="backdate", times=1),
        FaultRule(site="queue.publish", action="torn", times=1),
        FaultRule(site="worker.batch", action="kill", after=1))),
    "ci-chaos-dispatcher": FaultPlan(rules=(
        FaultRule(site="journal.append", action="corrupt", after=2, times=1,
                  match=(("kind", "trial"),)),)),
    "ci-chaos-worker-kill": FaultPlan(rules=(
        FaultRule(site="worker.batch", action="kill", times=1),)),
    "ci-chaos-sink": FaultPlan(rules=(
        FaultRule(site="sink.write", action="oserror", after=2, times=1,
                  match=(("sink", "tcp"),)),)),
}

#: the chaos-smoke job's plan files (.github/workflows/ci.yml), verbatim.
CI_PLAN_TEXTS = {
    "ci-chaos-worker": """{"rules": [
  {"site": "queue.claim",   "action": "backdate", "times": 1},
  {"site": "queue.publish", "action": "torn",     "times": 1},
  {"site": "worker.batch",  "action": "kill",     "after": 1}
]}
""",
    "ci-chaos-dispatcher": """{"rules": [
  {"site": "journal.append", "action": "corrupt", "after": 2,
   "times": 1, "match": {"kind": "trial"}}
]}
""",
    "ci-chaos-worker-kill": """{"rules": [
  {"site": "worker.batch", "action": "kill", "times": 1}
]}
""",
    "ci-chaos-sink": """{"rules": [
  {"site": "sink.write", "action": "oserror", "after": 2,
   "times": 1, "match": {"sink": "tcp"}}
]}
""",
}


def _sorted(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _codec(name: str):
    return CODECS[name.split(":")[0]]


def record() -> Dict[str, object]:  # pragma: no cover - manual tool
    """The contract as this build writes it."""
    sent = {name: json.dumps(_codec(name)[0](build()))
            for name, build in LIVE.items()}
    legacy = json.loads(sent["spec:csr+mixed+corpus+reward_weights"])
    for path in LATE_KEYS:
        target = legacy
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    sent[LEGACY_SPEC] = json.dumps(legacy)
    claimed = json.loads(sent["batch:two-tasks+corpus"])
    claimed.update(attempts=1, max_attempts=3)
    sent[CLAIMED_BATCH] = json.dumps(claimed)
    payloads = {}
    for name, text in sent.items():
        encode, decode = _codec(name)
        decoded = decode(json.loads(text))
        payloads[name] = {"wire": text, "encoded": _sorted(encode(decoded))}
        if name.startswith("spec:"):
            payloads[name]["fingerprint"] = decoded.fingerprint()
    plans = dict(CI_PLAN_TEXTS)
    plans["every-field"] = json.dumps(PLANS["every-field"].to_dict())
    return {"payloads": payloads, "plans": plans}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE_PATH.read_text())


def test_every_case_is_pinned(recorded):
    assert set(recorded["payloads"]) == set(LIVE) | {LEGACY_SPEC, CLAIMED_BATCH}
    assert set(recorded["plans"]) == set(PLANS)


@pytest.mark.parametrize("name", sorted(LIVE))
def test_live_object_encodes_as_recorded(recorded, name):
    live = LIVE[name]()
    encoded, wire = _codec(name)[0](live), recorded["payloads"][name]["wire"]
    if name.startswith("batch:"):  # a spool file's key order carries nothing
        assert _sorted(encoded) == _sorted(json.loads(wire))
    else:
        assert json.dumps(encoded) == wire
    if name.startswith("spec:"):
        assert live.fingerprint() == recorded["payloads"][name]["fingerprint"]


@pytest.mark.parametrize("name", sorted(set(LIVE) | {LEGACY_SPEC, CLAIMED_BATCH}))
def test_payload_decodes_and_reencodes_as_recorded(recorded, name):
    case = recorded["payloads"][name]
    encode, decode = _codec(name)
    decoded = decode(json.loads(case["wire"]))
    assert _sorted(encode(decoded)) == case["encoded"]
    if name.startswith("spec:"):
        assert decoded.fingerprint() == case["fingerprint"]


def test_pre_late_keys_spec_fingerprints_as_its_defaults(recorded):
    # Payloads without the late keys decode to their defaults, and a spec
    # at those defaults fingerprints as it did before the keys existed.
    case = recorded["payloads"][LEGACY_SPEC]
    late = _late_spec()
    at_defaults = CampaignSpec(
        processor=late.processor, fuzzer=late.fuzzer,
        num_tests=late.num_tests, trials=late.trials, seed=late.seed,
        fuzzer_config=FuzzerConfig(num_seeds=3, mutants_per_test=2),
        mab_config=MABFuzzConfig(num_arms=4))
    assert CampaignSpec.from_dict(json.loads(case["wire"])) == at_defaults
    assert at_defaults.fingerprint() == case["fingerprint"]


@pytest.mark.parametrize("name", sorted(PLANS))
def test_plan_decodes(recorded, name):
    assert FaultPlan.from_dict(json.loads(recorded["plans"][name])) == PLANS[name]


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--record" in sys.argv:
        FIXTURE_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True)
                                + "\n")
        print(f"recorded the wire contract -> {FIXTURE_PATH}")
    else:
        print(__doc__)
