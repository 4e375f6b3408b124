"""The custom-bandit example runs against the library as shipped."""

import importlib.util
from pathlib import Path

import numpy as np

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_custom_bandit_draws_from_an_int_seed():
    """A user bandit seeded with an int draws ``beta`` as numpy's would."""
    bandit_type = _load("custom_bandit").ThompsonSamplingBandit
    ours = bandit_type(5, rng=3)
    theirs = bandit_type(5, rng=np.random.default_rng(3))
    for step in range(60):
        arm = ours.select()
        assert arm == theirs.select()
        for bandit in (ours, theirs):
            bandit.update(arm, float(step % 3 == 0))
            if step % 17 == 16:
                bandit.reset_arm(arm)


def test_custom_bandit_example_runs(monkeypatch, capsys):
    module = _load("custom_bandit")
    monkeypatch.setattr("sys.argv", ["custom_bandit.py", "--tests", "12"])
    module.main()
    assert "mabfuzz:thompson" in capsys.readouterr().out
