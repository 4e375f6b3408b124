#!/usr/bin/env python
"""Check ``docs/*.md`` for dead references; exit non-zero on any.

The documentation index (``docs/README.md``) and the per-subsystem pages
cross-link each other with relative markdown links and name code with
backticked ``repro.*`` dotted references.  Both rot silently when files
move, so CI runs::

    python benchmarks/check_docs.py

which fails on:

* relative markdown links whose target does not exist (external
  ``http(s)``/``mailto`` links and pure ``#anchor`` links are skipped);
* backticked dotted references (``repro.fuzzing.corpus``,
  ``repro.exec.CampaignEngine`` ...) that neither import as a module nor
  resolve to an attribute of one; and
* backticked repo-relative file paths (``src/...``, ``tests/...``,
  ``benchmarks/...``, ``docs/...`` or ``repro/...`` -- the latter tried
  against both the repo root and ``src/``) that point at nothing.

Fenced code blocks are ignored: shell transcripts legitimately mention
paths that only exist at runtime (spool queues, journals).
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from typing import Iterator, List

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
SRC_DIR = REPO_ROOT / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))

#: relative markdown link: ``[text](target)`` with an optional ``#anchor``;
#: the target is empty for a pure ``#anchor`` link.
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]*?)(?:#[^)\s]*)?\)")
#: backticked dotted code reference rooted at the ``repro`` package.
MODULE_RE = re.compile(r"`~?(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)`")
#: backticked repo-relative file path.
PATH_RE = re.compile(
    r"`((?:src|tests|benchmarks|docs|repro)/[\w./-]+\.(?:py|md|json|ini|yml|txt))`")
_FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)


def strip_fences(text: str) -> str:
    """Drop fenced code blocks (their contents are transcripts, not refs)."""
    return _FENCE_RE.sub("", text)


def module_resolves(ref: str) -> bool:
    """True iff ``ref`` imports as a module or is an attribute of one.

    Tries the longest importable module prefix, then walks the remaining
    parts as attributes (so ``repro.exec.CampaignEngine`` resolves even
    though it is a class, not a module).
    """
    parts = ref.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            module = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        obj = module
        for attr in parts[cut:]:
            try:
                obj = getattr(obj, attr)
            except AttributeError:
                return False
        return True
    return False


def check_text(text: str, doc_dir: Path) -> Iterator[str]:
    """Yield one problem string per dead reference in a doc's text."""
    prose = strip_fences(text)
    for match in LINK_RE.finditer(prose):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")) or not target:
            continue
        if not (doc_dir / target).exists():
            yield f"dead link -> {target}"
    for match in MODULE_RE.finditer(prose):
        ref = match.group(1)
        if not module_resolves(ref):
            yield f"dead module reference -> {ref}"
    for match in PATH_RE.finditer(prose):
        path = match.group(1)
        if not ((REPO_ROOT / path).exists() or (SRC_DIR / path).exists()):
            yield f"dead path reference -> {path}"


def check_docs(docs_dir: Path = DOCS_DIR) -> List[str]:
    """Check every ``*.md`` under ``docs_dir``; return the problem list."""
    problems = []
    pages = sorted(docs_dir.glob("*.md"))
    if not pages:
        return [f"no markdown files found under {docs_dir}"]
    for doc in pages:
        for problem in check_text(doc.read_text(), doc.parent):
            problems.append(f"{doc.relative_to(docs_dir.parent)}: {problem}")
    return problems


def main() -> int:
    problems = check_docs()
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{len(problems)} dead documentation reference(s)",
              file=sys.stderr)
        return 1
    pages = len(list(DOCS_DIR.glob("*.md")))
    print(f"docs check: {pages} pages, no dead references")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
