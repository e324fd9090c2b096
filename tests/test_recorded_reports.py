"""The benchmark's recorded reports still come out byte for byte.

perfbench/expected.json holds digests of benchmark task outputs recorded at
the reference commit: `suite all --seed 7` as exact bytes, the others as
normalised JSON.  Each task with a digest is run here at seed 7 in this
process and compared through the benchmark's own check_output, so a change
of any recorded report fails Tier-1, not only a benchmark run.  Nothing
under perfbench/ is written.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SEED = 7


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
EXPECTED = workloads.load_expected()
RECORDED = [(name, task) for name, build in workloads.BUILDERS.items()
            for task in build(SEED) if task.digest]


def test_every_recorded_digest_has_a_task():
    assert sorted(f"{name}/{task.id}" for name, task in RECORDED) == sorted(EXPECTED)
    assert len(RECORDED) == 20


@pytest.mark.parametrize("name, task", RECORDED,
                         ids=[f"{name}/{task.id}" for name, task in RECORDED])
def test_recorded_report(name, task):
    assert workloads.check_output(name, task, task.run(), EXPECTED) == []
