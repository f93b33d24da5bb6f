"""The benchmark's in-process workloads give their recorded answers.

bench/workloads.py is loaded from its file, read only; each job of the
witt-window and gw-cohomology workloads runs once, and the job's own answer
check must pass: no findings where none are expected, the 1860 findings of
the negative control, and the recorded gw dims_H.  The cli-fixtures rows are
kept by tests/cli_golden.json.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULE = "crosshom_bench_workloads"


def _workloads():
    if MODULE not in sys.modules:
        spec = importlib.util.spec_from_file_location(MODULE, ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up in sys.modules
        sys.modules[MODULE] = module
        spec.loader.exec_module(module)
    return sys.modules[MODULE]


@pytest.mark.parametrize("name", ["witt-window", "gw-cohomology"])
def test_each_job_gives_its_recorded_answer(name, tmp_path, monkeypatch):
    # the workloads read fixtures by paths relative to the repository root
    monkeypatch.chdir(ROOT)
    workload = _workloads().WORKLOADS[name]
    jobs = workload.jobs(workload.setup(1, tmp_path))
    assert jobs
    answers = {job.name: job.check(job.run()) for job in jobs}
    assert {job: bad for job, bad in answers.items() if bad is not None} == {}
