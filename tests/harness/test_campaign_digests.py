"""Frozen canonical-result digests of short seeded campaigns.

The serial-vs-parallel tests compare runs with each other, never with a
recorded value, so a change that alters what every run computes alike --
seed generation, mutation, bandit selection and its tie-breaks, coverage,
the differential compare -- would pass them.  This module pins one short
campaign per fuzzer name, plus an EXP3 campaign on mixed user/trap seeds
with the corpus and the ``csr`` coverage model, to digests recorded in
``tests/sim/fixtures/campaign_digests.json``.  A digest is BLAKE2b-128 of
the sorted-key JSON of the trial's canonical result, the recipe the
benchmark's ``digest`` line uses.

Re-record only after an intentional change to campaign behaviour, never to
paper over a regression::

    PYTHONPATH=src:. python tests/harness/test_campaign_digests.py --record
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.api import available_fuzzers
from repro.fuzzing.base import FuzzerConfig
from repro.harness.campaign import CampaignSpec, run_campaign

FIXTURE_PATH = (Path(__file__).resolve().parents[1] / "sim" / "fixtures"
                / "campaign_digests.json")

NUM_TESTS = 40
SEED = 5
PROCESSORS = ("rocket", "cva6", "boom")
MIXED_CASE = "mabfuzz:exp3/mixed+corpus+csr"


def campaign_specs() -> Dict[str, CampaignSpec]:
    """One spec per fixture key; processors rotate over the fuzzer list."""
    specs = {
        fuzzer: CampaignSpec(processor=PROCESSORS[index % len(PROCESSORS)],
                             fuzzer=fuzzer, num_tests=NUM_TESTS, trials=1,
                             seed=SEED)
        for index, fuzzer in enumerate(available_fuzzers())
    }
    specs[MIXED_CASE] = CampaignSpec(
        processor="cva6", fuzzer="mabfuzz:exp3", num_tests=NUM_TESTS,
        trials=1, seed=SEED, coverage_model="csr",
        fuzzer_config=FuzzerConfig(scenario="mixed", corpus=True))
    return specs


def result_digest(result) -> str:
    """BLAKE2b-128 of the canonical result (everything but wall clock)."""
    text = json.dumps(result.canonical_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def compute_digests() -> Dict[str, str]:
    return {name: result_digest(run_campaign(spec))
            for name, spec in campaign_specs().items()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE_PATH.read_text())


def test_every_fuzzer_is_pinned(recorded):
    assert set(recorded) == set(campaign_specs())


@pytest.mark.parametrize("name", sorted(campaign_specs()))
def test_campaign_matches_recorded_digest(recorded, name):
    result = run_campaign(campaign_specs()[name])
    assert result_digest(result) == recorded[name], (
        f"{name}: the campaign's canonical result changed")


def record_campaign_digests() -> None:  # pragma: no cover - manual tool
    FIXTURE_PATH.write_text(json.dumps(compute_digests(), indent=1,
                                       sort_keys=True) + "\n")
    print(f"recorded {len(campaign_specs())} campaign digests -> {FIXTURE_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--record" in sys.argv:
        record_campaign_digests()
    else:
        print(__doc__)
