"""Pausing CPython's cycle collector around the fuzzing loop.

The loop frees what each test, run and trial leaves behind by reference
counting alone: it makes no reference cycles
(``tests/integration/test_no_cyclic_garbage.py`` fails on any).  Automatic
collections would find nothing to free, yet each full pass re-walks every
tracked object, the process caches' cached runs included.  The loop
therefore runs with collection paused; see ``docs/performance.md``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collection_paused() -> Iterator[None]:
    """Disable automatic garbage collection for the ``with`` body.

    Every exit, normal or by exception, hands the collector back as the
    caller left it: it is re-enabled only if it was enabled on entry, so a
    nested pause, or a caller that disabled collection itself, keeps it
    disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
