"""Bitwise gate on the fixed-seed outputs of the model-free path.

tests/golden/model_free.json was generated by tests/golden/make_golden.py;
every float is compared through float.hex, so any change in rounding, in the
order of random draws or in tie-breaking fails here.  A change that alters
the random streams on purpose regenerates the file with that script.

The bits are pinned for one numpy/BLAS build and CPU family.  Inventory's
expected payoff is a short float64 dot product that numpy hands to the BLAS
dot kernel, whose summation order depends on the kernel OpenBLAS selects for
the CPU; the Q-learning cases inherit those payoffs.  On another build or CPU
family the last bit can move with no change to the code, and the file is then
regenerated there from a known-good commit before it gates a change.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).with_name("golden")


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN_DIR / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden_and_actual():
    generator = _load_generator()
    golden = json.loads(generator.GOLDEN_PATH.read_text())
    return golden, json.loads(generator.dumps(generator.compute_cases()))


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
