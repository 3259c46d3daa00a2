"""Malformed snapshot and trace payloads, and input files that are not JSON,
fail with their module's own error.

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
from fishershift.penalty import PenaltyError, load_state, state_from_dict, state_to_dict
from fishershift.trainer import RunTrace, TrainConfig, TrainerError, shift_correction

SPEC = MlpSpec(input_dim=3, hidden_layers=((2, "relu"),), output_classes=2)
NOT_A_NUMBER = ["x", None, True, [], {}]
WRONG = {str: [7, None, [], {}], int: NOT_A_NUMBER, float: NOT_A_NUMBER,
         list: ["x", None, 3, {}], dict: ["x", None, 3, []]}


def payloads(seed):
    """The trace and the final penalty snapshot of a seeded c3 run."""
    recipe = ShiftRecipe(kind="mean_drift", batch_count=2, features=3, delta=0.5)
    data, _ = synth_shift(recipe, 20, seed=seed)
    run = shift_correction(data, data, fragment(data, 2), SPEC, TrainConfig(epochs=1, seed=seed))
    return {"trace": run.to_json_dict(), "snapshot": state_to_dict(run.final_penalty_state)}


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
@pytest.mark.parametrize(
    "kind, parse, error, keep_length",
    [("trace", RunTrace.from_json_dict, TrainerError, {"records"}),  # any record count is valid
     ("snapshot", state_from_dict, PenaltyError, set())],
    ids=["trace", "snapshot"],
)
def test_every_mutation_raises_the_module_error(seed, kind, parse, error, keep_length):
    payload = payloads(seed)[kind]
    parse(payload)
    count = 0
    for key in each_mutation(payload, np.random.default_rng(seed), keep_length):
        count += 1
        with pytest.raises(error):
            parse(payload)
            pytest.fail(f"parsed after changing {key!r}")
    assert count > 50


@pytest.mark.parametrize(
    "parse, error, payload, message",
    [(state_from_dict, PenaltyError, {"version": 1, "batches_consumed": 2}, "missing key"),
     (RunTrace.from_json_dict, TrainerError, {"schema_version": 1}, "missing key 'records'"),
     (state_from_dict, PenaltyError, [], "JSON object"),
     (RunTrace.from_json_dict, TrainerError, "x", "JSON object")],
)
def test_partial_payload_rejected(parse, error, payload, message):
    with pytest.raises(error, match=message):
        parse(payload)


@pytest.mark.parametrize(
    "read, error",
    [(load_state, PenaltyError),
     (ShiftRecipe.from_json_file, DataError),
     (lambda path: ExperimentReport.from_json(path.read_bytes()), BenchError)],
    ids=["snapshot", "recipe", "report"],
)
@pytest.mark.parametrize("content", [b"garbage", b"\x80 not unicode"], ids=["garbage", "bytes"])
def test_file_that_is_not_json_raises_the_module_error(read, error, content, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    with pytest.raises(error, match="not valid JSON") as exc:
        read(path)
    assert "\n" not in str(exc.value)
