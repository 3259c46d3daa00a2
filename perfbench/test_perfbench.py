"""Checks of the benchmark's own machinery: python3 -m pytest perfbench -q"""

import hashlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fishershift.cli  # noqa: E402
import pytest  # noqa: E402

import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402


def test_install_wraps_every_binding_and_uninstall_restores():
    modules = {name: sys.modules[f"fishershift.{name}"]
               for name in ("trainer", "penalty", "information", "bench", "cli")}
    bindings = [("trainer", "penalized_loss_and_grad"), ("penalty", "loss_and_gradient"),
                ("information", "score_square_mean"), ("bench", "shift_correction"),
                ("cli", "main")]
    originals = {b: getattr(modules[b[0]], b[1]) for b in bindings}
    to_json = modules["trainer"].RunTrace.to_json
    tracer = Tracer()
    tracer.install()
    try:
        for module, name in bindings:
            assert getattr(modules[module], name).__wrapped__ is originals[(module, name)]
        assert modules["trainer"].RunTrace.to_json.__wrapped__ is to_json
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(modules[module], name) is original
    assert modules["trainer"].RunTrace.to_json is to_json


def test_self_time_excludes_children_and_calls_count_per_operation():
    tracer = Tracer()
    outer = tracer._wrapper("cli.main", lambda: inner())
    inner = tracer._wrapper("numerics.forward", lambda: time.sleep(0.02))
    tracer.begin_operation()
    outer()
    outer()
    tracer.end_operation()
    (op,) = tracer.per_operation()
    assert op["calls"]["cli.main"] == 2 and op["calls"]["numerics.forward"] == 2
    assert op["self_s"]["numerics.forward"] >= 0.04
    assert op["self_s"]["cli.main"] < 0.01
    assert set(op["calls"]) == set(SPAN_NAMES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    digests = []
    for run, seed in enumerate((3, 3, 4)):
        directory = tmp_path / str(run)
        directory.mkdir()
        workloads.generate_inputs(workload, seed, str(directory))
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(directory.iterdir())})
    assert digests[0] == digests[1]
    if workload != "sweep_drift2":  # the sweep's recipe is fixed; --seed varies its data
        assert digests[0] != digests[2]


def test_nominal_steps_match_the_stated_configuration():
    assert workloads.nominal_steps("sweep_drift2") == 113_400
    assert workloads.nominal_steps("train_wide_idx") == 2 * 3 * 10 * 15
