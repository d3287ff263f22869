"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench
"""
import json
import statistics
import threading

import pytest

import run
import tracer
import workloads


# -- the percentile rule ----------------------------------------------------


def test_p90_matches_statistics_quantiles():
    samples = [float(i) for i in range(1, 101)]
    assert run.percentile(samples, 90) == statistics.quantiles(samples, n=10)[8]


def test_p90_refused_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError, match="only 9 beyond"):
        run.percentile([float(i) for i in range(1, 100)], 90)


def test_p90_refused_when_ties_leave_nothing_beyond():
    with pytest.raises(ValueError, match="only 0 beyond"):
        run.percentile([1.0] * 85 + [2.0] * 15, 90)


# -- self time ----------------------------------------------------------------


def _span(id_, name, parent, start, end, thread=1):
    return tracer.Span(id_, name, "job", parent, thread, start, end)


def test_self_time_counts_overlapping_threaded_children_once():
    spans = [
        _span(1, "parallel.map", None, 0.0, 10.0),
        _span(2, "integration.truncate", 1, 1.0, 5.0, thread=2),
        _span(3, "integration.truncate", 1, 3.0, 8.0, thread=3),
        _span(4, "stepfn.refine", 2, 2.0, 3.0, thread=2),
        _span(5, "stepfn.integral", 1, 9.0, 12.0),  # runs past its parent
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0 - 1.0)  # [1, 8] and [9, 10] covered
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(5.0)
    assert own[4] == pytest.approx(1.0)
    metrics = tracer.layer_metrics(spans, jobs=1)
    assert metrics["parallel.map.overlap"] == pytest.approx((4.0 + 5.0 + 3.0) / 10.0)
    assert metrics["integration.truncate.calls"] == 2


def test_traced_cli_run_parents_worker_spans_under_the_map(tmp_path):
    cli = run.import_program()
    from padicah import stepfn

    original = stepfn.common_refinement
    tr = tracer.Tracer()
    tr.job = 7
    tr.install()
    try:
        assert cli.main(["counterexample", "--nmax", "4", "--threads", "2",
                         "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tr.uninstall()
    assert stepfn.common_refinement is original
    by_id = {s.id: s for s in tr.spans}
    assert all(s.job == 7 for s in tr.spans)
    roots = [s for s in tr.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli"]
    main_thread = threading.get_ident()
    workers = [s for s in tr.spans if s.thread != main_thread]
    assert workers, "threads=2 should run map items on worker threads"
    for s in workers:
        while by_id[s.parent].thread != main_thread:
            s = by_id[s.parent]
        assert by_id[s.parent].name == "parallel.map"


# -- oracles and inputs -------------------------------------------------------


def _coeff_job():
    return workloads.Job(0, "haar-1d", "haar-1d", [], None,
                         {"check": "coeff", "planted": [1.5, -0.5]})


def _recover_report(estimate: complex) -> bytes:
    return json.dumps({"passes": True, "estimates": [
        {"re": 0.0, "im": 0.0}, {"re": estimate.real, "im": estimate.imag}]}).encode()


def test_oracle_accepts_the_planted_coefficient():
    assert workloads.check(_coeff_job(), 0, _recover_report(1.5 - 0.5j), {}) is None


def test_oracle_counts_an_estimate_off_by_1e_6_as_a_failure():
    reason = workloads.check(_coeff_job(), 0, _recover_report(1.5 + 1e-6 - 0.5j), {})
    assert reason is not None and "off the planted" in reason


def test_oracle_fails_a_bad_exit_code_and_a_missing_report():
    assert workloads.check(_coeff_job(), 2, _recover_report(1.5 - 0.5j), {}) == "exit code 2"
    assert workloads.check(_coeff_job(), 0, None, {}) == "no report written"


def test_oracle_counts_a_malformed_report_as_a_failure():
    reason = workloads.check(_coeff_job(), 0, b'{"passes": true}', {})
    assert reason is not None and reason.startswith("malformed report")
    assert workloads.check(_coeff_job(), 0, b"not json", {}).startswith("malformed report")


def test_same_seed_writes_the_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for name in workloads.MIXES:
        jobs_a = workloads.make_jobs(name, 5, a)
        jobs_b = workloads.make_jobs(name, 5, b)
        assert [j.label for j in jobs_a] == [j.label for j in jobs_b]
        assert [j.oracle for j in jobs_a] == [j.oracle for j in jobs_b]
    for path in a.iterdir():
        assert path.read_bytes() == (b / path.name).read_bytes()
