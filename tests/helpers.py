"""Shared sampling, comparison and process helpers for the test suite."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import divfree


def sampled_states(model, n, seed):
    """Admissible (A, s) batch drawn through the model's own sampler."""
    return model.sample_states(np.random.default_rng(seed), n)


def rel_gap(a, b):
    """Max entrywise difference over max(1, scale of the operands)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(b).max()))
    return float(np.abs(a - b).max() / scale)


def run_cli_process(argv):
    """``python -m divfree.cli argv`` in a child process that imports the
    same divfree as the tests, wherever pytest found it."""
    paths = [str(Path(divfree.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-m", "divfree.cli", *argv],
                          capture_output=True, text=True, env=env)

