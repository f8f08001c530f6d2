"""One traced pass of each benchmark workload records a call in every span it expects.

``perfbench/run.py --trace 1`` exits 3 when an expected span records no call,
for instance when a pipeline stops calling one of the public functions that
``perfbench/spans.py`` wraps by name.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_traced_pass_records_every_expected_span(workload, tmp_path):
    jobs = workloads.build(workload, 11, tmp_path)
    recorder = spans.Recorder()
    workloads.reset_process_state()
    with spans.patched(recorder):
        results = [job.run() for job in jobs]
    assert all(not job.check(result).problems for job, result in zip(jobs, results))
    recorded = {span.name for span in recorder.spans}
    assert [name for name in workloads.EXPECTED_SPANS[workload] if name not in recorded] == []
