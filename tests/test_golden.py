"""Bitwise gate on the fixed-seed outputs of the model-free path and on the
default exact solves.

tests/golden/model_free.json and tests/golden/exact.json were generated by
tests/golden/make_golden.py; every float is compared through float.hex, so
any change in rounding, in the order of random draws or in tie-breaking fails
here.  A change that alters those outputs on purpose regenerates the file it
alters with that script.

The bits are pinned for one numpy/BLAS build and CPU family.  Inventory's
expected payoff is a short float64 dot product that numpy hands to the BLAS
dot kernel, whose summation order depends on the kernel OpenBLAS selects for
the CPU; the Q-learning cases inherit those payoffs, and value iteration's
matrix-vector products and the invariant distribution's linear solve go
through BLAS and LAPACK as well.  On another build or CPU family the last bit
can move with no change to the code, and the files are then regenerated there
from a known-good commit before they gate a change.  The thread count moves
the last bit of the linear solve too (reputation's population does with two
threads), so the cases are recomputed by make_golden.py in a subprocess that
pins BLAS to one thread.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).with_name("golden")
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def actual():
    """Both files' contents, recomputed by the generator in a fresh process so
    that its one-thread BLAS pin holds whatever this process has loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(GOLDEN_DIR / "make_golden.py"), "--print"],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout)


def _golden_and_actual(name, actual):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text()), actual[name]


@pytest.fixture(scope="module")
def golden_and_actual(actual):
    return _golden_and_actual("model_free", actual)


@pytest.fixture(scope="module")
def exact_golden_and_actual(actual):
    return _golden_and_actual("exact", actual)


CASES = (
    "q_learning_inventory_constant",
    "q_learning_social_robbins_monro_tail",
    "adaptive_q_learning_toy",
    "monte_carlo_inventory",
    "monte_carlo_reputation",
    "inventory_tables",
)


@pytest.mark.parametrize("case", CASES)
def test_model_free_outputs_match_golden_bits(golden_and_actual, case):
    golden, actual = golden_and_actual
    assert sorted(golden) == sorted(CASES)
    for key, expected in golden[case].items():
        assert actual[case][key] == expected, f"{case}.{key} differs from the golden bits"


MODELS = ("capacity", "inventory", "quality-ladder", "reputation", "ridesharing",
          "social-learning", "two-state-toy")


@pytest.mark.parametrize("model", MODELS)
def test_exact_outputs_match_golden_bits(exact_golden_and_actual, model):
    golden, actual = exact_golden_and_actual
    assert sorted(golden) == sorted(MODELS)
    for key, expected in golden[model].items():
        assert actual[model][key] == expected, f"{model}.{key} differs from the golden bits"
