"""The gradvoc calls the benchmark's workloads make must still work.

``perfbench/workloads.py`` builds its inputs and runs its operations through
gradvoc's public names (``cli.MEL_PROFILES``, ``cli.resolve_schedule``,
``train.make_batch`` and others); a rename or a changed result in ``src/``
would otherwise surface only when the benchmark runs.  Each workload here
prepares and sets up into a temporary directory, runs the first operation
of pool item 0 and checks its output against the recorded reference with
the workload's own distance and tolerance.  Nothing under ``perfbench/`` is
written.
"""

import json

import pytest

from conftest import PERFBENCH, load_perfbench


@pytest.mark.parametrize("name", ["synth-base", "train-toy", "sweep-toy", "eval-base"])
def test_first_operation_matches_its_reference(name, tmp_path):
    workload = load_perfbench("workloads").WORKLOADS[name]
    expected, tolerance = load_perfbench("record").load(PERFBENCH, name)
    workload.prepare(tmp_path, "float32")
    ctx = workload.setup(tmp_path, "float32")
    key, op = next(iter(workload.ops(ctx, 0)))
    got = workload.parse(op())
    assert workload.error(expected[json.dumps(key)], got) <= tolerance
