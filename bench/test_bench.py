"""Self-tests of the benchmark's helpers: python3 -m pytest bench/test_bench.py"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_median_and_nearest_rank():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    xs = list(range(1, 101))
    assert stats.nearest_rank(xs, 95) == 95
    assert stats.nearest_rank(xs, 100) == 100
    assert stats.nearest_rank(xs, 0) == 1
    assert stats.nearest_rank([5.0], 50) == 5.0
    with pytest.raises(ValueError):
        stats.median([])


def test_tail_percentile_leaves_exactly_ten_samples_beyond():
    for n in (20, 63, 184, 1000):
        pct = stats.tail_percentile(n, 10)
        xs = list(range(n))
        value = stats.nearest_rank(xs, pct)
        assert sum(x > value for x in xs) == 10
    assert stats.tail_percentile(19, 10) == 100.0
    assert stats.tail_percentile(12, 10) == 100.0
    assert stats.tail_percentile(20, 10) == 50.0


def test_tail_picks_the_same_job_for_any_pass_count():
    job_times = [0.001 * (j + 1) for j in range(21)]
    pct = stats.tail_percentile(len(job_times) * 3, 10)
    picks = {stats.nearest_rank(job_times * passes, pct) for passes in (3, 4, 5, 7)}
    assert len(picks) == 1


def test_self_times_subtract_direct_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parents = [-1, 0, 0, 2]
    durations = [10.0, 3.0, 4.0, 1.0]
    assert stats.self_times(parents, durations) == [3.0, 3.0, 3.0, 1.0]
    assert sum(stats.self_times(parents, durations)) == 10.0


def test_outermost_time_counts_nested_group_members_once():
    # spans: 0 grid(name 1) > 1 check(name 2) > 2 check(name 2); 3 check alone
    names = [1, 2, 2, 2]
    parents = [-1, 0, 1, -1]
    durations = [8.0, 5.0, 2.0, 1.0]
    assert stats.outermost_time(names, parents, durations, {1, 2}) == 9.0
    assert stats.outermost_time(names, parents, durations, {2}) == 6.0
    assert stats.outermost_time(names, parents, durations, {7}) == 0.0


def test_spans_record_parents_and_jobs():
    spans = tracer.Spans()

    def leaf():
        return 1

    traced_leaf = spans.wrap("m.leaf", leaf)

    def outer():
        return traced_leaf() + traced_leaf()

    traced_outer = spans.wrap("m.outer", outer)
    spans.current_job = 4
    assert traced_outer() == 2
    assert list(spans.parent) == [-1, 0, 0]
    assert list(spans.job) == [4, 4, 4]
    assert [spans.fids[n] for n in spans.name] == ["m.outer", "m.leaf", "m.leaf"]
    assert all(d >= 0 for d in spans.durations())


def test_missing_function_is_absent_and_patches_are_undone(monkeypatch):
    import crosshom.linalg as linalg

    original = linalg.rank
    monkeypatch.setattr(tracer, "LAYERS", {"linalg": ("rank", "no_such_function")})
    counts, patches = tracer.Counts(tracer.FractionOps()), tracer.Patches()
    patches.install(counts.wrap)
    try:
        assert linalg.rank is not original
        assert linalg.rank(linalg.Matrix.identity(3)) == 3
    finally:
        patches.remove()
    assert linalg.rank is original
    assert patches.absent == ["linalg.no_such_function"]
    assert counts.values["linalg.rank"] == 1
    assert counts.values["linalg.entries_in"] == 9
    assert counts.values["linalg.nnz_in"] == 3


def test_fraction_ops_counts_only_while_counting():
    a, b = Fraction(1, 2), Fraction(1, 3)
    plain_add = vars(Fraction)["__add__"]
    ops = tracer.FractionOps()
    assert ops.present
    ops.install()
    try:
        assert a + b == Fraction(5, 6)  # not counting yet
        ops.counting = True
        c = a + b  # _add, then __new__ for the result
        ops.counting = False
    finally:
        ops.remove()
    assert c == Fraction(5, 6)
    assert ops.ops == 2
    assert vars(Fraction)["__add__"] is plain_add


def test_subset_mismatch_allows_extra_keys():
    expected = {"count": 2, "rows": [[1, 2]], "inner": {"k": 1}}
    actual = {"count": 2, "rows": [[1, 2]], "inner": {"k": 1, "extra": 5}, "stats": {}}
    assert workloads.subset_mismatch(expected, actual) is None
    assert "missing" in workloads.subset_mismatch({"count": 2}, {})
    assert "length" in workloads.subset_mismatch({"rows": [1]}, {"rows": [1, 2]})
    assert "expected 2" in workloads.subset_mismatch({"count": 2}, {"count": 3})


def test_check_cli_flags_tracebacks_and_changed_output():
    exp = {"code": 0, "status": "pass", "payload": {"dim": 3}}
    out = json.dumps({"status": "pass", "findings": [], "payload": {"dim": 3}}).encode()
    seen = {}
    assert workloads.check_cli(exp, ["a"], seen, (0, out, b"")) is None
    assert "traceback" in workloads.check_cli(exp, ["a"], seen, (0, out, b"Traceback (most"))
    assert "differs" in workloads.check_cli(exp, ["a"], seen, (0, out + b" ", b""))
    assert "exit 1" in workloads.check_cli(exp, ["b"], seen, (1, out, b""))


def test_dim2_oracle_counts_fifteen_grid_solutions():
    grid = (-1, 0, 1)
    hits = [
        H
        for a11 in grid
        for a12 in grid
        for a21 in grid
        for a22 in grid
        if workloads.dim2_crossed_hom_oracle(H := ((a11, a12), (a21, a22)))
    ]
    assert len(hits) == 15


def test_benchmark_json_lists_the_metrics_run_prints():
    path = HERE.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_pass_counts_a_wrong_answer_and_calls_between_before_each_job():
    calls = []
    jobs = [
        workloads.Job("ok", lambda: 1, lambda r: None),
        workloads.Job("wrong", lambda: 2, lambda r: f"got {r}"),
        workloads.Job("raises", lambda: 1 / 0, lambda r: None),
    ]
    _, samples, failures = run.run_pass(jobs, between=lambda: calls.append(1))
    assert len(samples) == 3 and len(calls) == 3
    assert [name for name, _ in failures] == ["wrong", "raises"]


def test_speedometer_reads_inside_long_jobs_and_restores_sigprof():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    meter = run.Speedometer()
    try:
        meter.start()
        t0 = run.perf_counter()
        while run.perf_counter() - t0 < 0.35:  # busy, so that CPU time ticks
            pass
        scaled = meter.stop(run.perf_counter() - t0)
    finally:
        meter.close()
    assert len(meter.readings) >= 4  # before, after and at least two ticks
    assert scaled > 0
    assert signal.getsignal(signal.SIGPROF) is before
