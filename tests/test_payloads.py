"""Malformed trace payloads, and input files that are not JSON, fail with
their module's own error.

The payloads come from seeded runs. Each mutation makes one invalid: drop
any key at any depth, swap any value for one of a wrong type (the seed picks
which; booleans are not numbers), or shorten any list whose length is fixed.
A mutation that parses, or fails another way, fails the test.
"""

import numpy as np
import pytest

from fishershift.bench import BenchError, ExperimentReport
from fishershift.data import DataError, ShiftRecipe, fragment, synth_shift
from fishershift.numerics import MlpSpec
from fishershift.trainer import RunTrace, TrainConfig, TrainerError, shift_correction

SPEC = MlpSpec(input_dim=3, hidden_layers=((2, "relu"),), output_classes=2)
NOT_A_NUMBER = ["x", None, True, [], {}]
WRONG = {str: [7, None, [], {}], int: NOT_A_NUMBER, float: NOT_A_NUMBER,
         list: ["x", None, 3, {}], dict: ["x", None, 3, []]}


def trace_payload(seed):
    """The JSON trace of a seeded c3 run."""
    recipe = ShiftRecipe(kind="mean_drift", batch_count=2, features=3, delta=0.5)
    data, _ = synth_shift(recipe, 20, seed=seed)
    run = shift_correction(data, data, fragment(data, 2), SPEC, TrainConfig(epochs=1, seed=seed))
    return run.to_json_dict()


def each_mutation(value, rng, keep_length):
    """Change ``value`` in place one mutation at a time, yielding the changed
    key after each and undoing it before the next."""
    for key, child in list(value.items() if isinstance(value, dict) else enumerate(value)):
        changes = [WRONG[type(child)][rng.integers(len(WRONG[type(child)]))]]
        if isinstance(child, list) and child and key not in keep_length:
            changes.append(child[:-1])
        for changed in changes:
            value[key] = changed
            yield key
        if isinstance(key, str):
            del value[key]
            yield key
        value[key] = child
        if isinstance(child, (dict, list)):
            yield from each_mutation(child, rng, keep_length)


@pytest.mark.parametrize("seed", range(3))
def test_every_mutation_raises_the_module_error(seed):
    payload = trace_payload(seed)
    RunTrace.from_json_dict(payload)
    count = 0
    # Any record count is valid, so the record list is never shortened.
    for key in each_mutation(payload, np.random.default_rng(seed), {"records"}):
        count += 1
        with pytest.raises(TrainerError):
            RunTrace.from_json_dict(payload)
            pytest.fail(f"parsed after changing {key!r}")
    assert count > 50


@pytest.mark.parametrize(
    "payload, message",
    [({"schema_version": 1}, "missing key 'records'"), ("x", "JSON object")],
)
def test_partial_payload_rejected(payload, message):
    with pytest.raises(TrainerError, match=message):
        RunTrace.from_json_dict(payload)


@pytest.mark.parametrize(
    "read, error",
    [(ShiftRecipe.from_json_file, DataError),
     (lambda path: ExperimentReport.from_json(path.read_bytes()), BenchError)],
    ids=["recipe", "report"],
)
@pytest.mark.parametrize("content", [b"garbage", b"\x80 not unicode"], ids=["garbage", "bytes"])
def test_file_that_is_not_json_raises_the_module_error(read, error, content, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    with pytest.raises(error, match="not valid JSON") as exc:
        read(path)
    assert "\n" not in str(exc.value)
