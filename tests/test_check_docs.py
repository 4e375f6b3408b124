"""Tests of the docs dead-reference checker (benchmarks/check_docs.py)."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_docs",
    Path(__file__).resolve().parents[1] / "benchmarks" / "check_docs.py")
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


def _problems(text, doc_dir):
    return list(check_docs.check_text(text, doc_dir))


class TestRelativeLinks:
    def test_live_link_passes(self, tmp_path):
        (tmp_path / "other.md").write_text("hi")
        assert _problems("see [other](other.md)", tmp_path) == []

    def test_dead_link_reported(self, tmp_path):
        problems = _problems("see [gone](missing.md)", tmp_path)
        assert problems == ["dead link -> missing.md"]

    def test_anchored_link_checks_the_file_part(self, tmp_path):
        (tmp_path / "other.md").write_text("hi")
        assert _problems("[s](other.md#section)", tmp_path) == []
        assert _problems("[s](missing.md#section)", tmp_path) == [
            "dead link -> missing.md"]

    def test_pure_anchor_links_skipped(self, tmp_path):
        assert _problems("see [the report](#the-run-report)", tmp_path) == []

    def test_external_links_skipped(self, tmp_path):
        text = "[a](https://example.org) [b](http://example.org) [c](mailto:x@y)"
        assert _problems(text, tmp_path) == []


class TestModuleReferences:
    def test_module_resolves(self):
        assert check_docs.module_resolves("repro.fuzzing.corpus")

    def test_attribute_of_module_resolves(self):
        assert check_docs.module_resolves("repro.exec.CampaignEngine")
        assert check_docs.module_resolves("repro.fuzzing.corpus.CorpusManager")

    def test_dead_module_reported(self, tmp_path):
        problems = _problems("see `repro.no_such_module`", tmp_path)
        assert problems == ["dead module reference -> repro.no_such_module"]

    def test_dead_attribute_reported(self, tmp_path):
        problems = _problems("see `repro.fuzzing.corpus.NoSuchThing`", tmp_path)
        assert problems == [
            "dead module reference -> repro.fuzzing.corpus.NoSuchThing"]

    def test_bare_package_name_is_not_a_reference(self, tmp_path):
        # `repro` alone (no dot) is prose, not a checkable reference.
        assert _problems("the `repro` package", tmp_path) == []


class TestPathReferences:
    def test_repo_relative_path_resolves(self, tmp_path):
        assert _problems("`src/repro/fuzzing/corpus.py`", tmp_path) == []

    def test_src_relative_path_resolves(self, tmp_path):
        # Docs name modules as `repro/fuzzing/corpus.py` (src/ implied).
        assert _problems("`repro/fuzzing/corpus.py`", tmp_path) == []

    def test_dead_path_reported(self, tmp_path):
        problems = _problems("`src/repro/gone.py`", tmp_path)
        assert problems == ["dead path reference -> src/repro/gone.py"]


class TestFencedBlocks:
    def test_fenced_content_is_ignored(self, tmp_path):
        text = ("```bash\n"
                "cat [not a](link.md) `repro.not.real` src/fake.py\n"
                "```\n"
                "prose after\n")
        assert _problems(text, tmp_path) == []

    def test_problems_after_a_fence_still_reported(self, tmp_path):
        text = "```\nok\n```\n[gone](missing.md)\n"
        assert _problems(text, tmp_path) == ["dead link -> missing.md"]


class TestRepoDocs:
    def test_repo_docs_have_no_dead_references(self):
        assert check_docs.check_docs() == []

    def test_empty_docs_dir_fails_loudly(self, tmp_path):
        problems = check_docs.check_docs(tmp_path)
        assert len(problems) == 1 and "no markdown" in problems[0]
