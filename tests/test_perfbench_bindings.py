"""The traced benchmark can still bind every name it wraps in ``src``.

``perfbench/tracer.py`` times each layer by replacing about thirty ``src``
names by attribute -- methods such as ``Executor.run_block_generic`` and
``DutExecutor.run_block``, module functions such as
``repro.sim.golden.compile_program`` and ``repro.rtl.harness.points_of``,
and private helpers such as ``ProcessPoolBackend._run_batches``.  Deleting
or renaming one breaks the traced benchmark run.  This test runs the
tracer's ``install`` against ``src/`` in a fresh interpreter (it patches
classes process-wide and registers GC and fork hooks, so it must not run
in the test process) and names the first missing binding.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """\
import sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracer import Tracer, install
install(Tracer())
"""


def test_tracer_installs_against_src():
    code = _INSTALL.format(src=str(REPO_ROOT / "src"),
                           perfbench=str(REPO_ROOT / "perfbench"))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120)
    lines = result.stderr.strip().splitlines()
    assert result.returncode == 0, (
        "perfbench/tracer.py cannot bind a name it wraps in src: "
        + (lines[-1] if lines else f"exit code {result.returncode}"))
