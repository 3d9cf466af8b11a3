"""Unit tests for the perf-regression harness (repro.perf.bench)."""

import json

import pytest

from repro.perf import bench as perf_bench
from repro.perf.bench import (
    SCHEMA,
    _frame_corpus,
    compare_reports,
    environment,
    load_report,
    render_report,
    write_report,
)


def _report(results):
    return {"schema": SCHEMA, "quick": True, "environment": {}, "results": results}


def test_frame_corpus_is_deterministic_and_distinct():
    corpus = _frame_corpus(64)
    assert corpus == _frame_corpus(64)
    assert len(set(corpus)) == 64
    for identifier, data, remote, extended in corpus:
        assert 0 <= identifier < (1 << 29)
        assert extended
        assert not (remote and data)
        assert len(data) <= 8


def test_environment_metadata_fields():
    env = environment()
    assert set(env) == {
        "python", "implementation", "platform", "machine", "cpu_count",
        "compiled", "toggles",
    }
    compiled = env["compiled"]
    assert set(compiled) == {
        "requested", "backend", "toolchain", "modules", "active",
    }
    assert set(compiled["modules"]) == {
        "repro.sim.event", "repro.sim.kernel", "repro.can.bitstream",
    }
    # The feature-toggle block records the live defaults, so a report is
    # attributable to an exact fast-path configuration.
    toggles = env["toggles"]
    assert set(toggles) == {
        "batch_dispatch", "fast_rearm", "tuple_entries", "idle_skip",
        "timer_wheel", "filtered_delivery", "columnar_trace",
    }
    assert all(isinstance(value, bool) for value in toggles.values())


def test_environment_toggles_track_live_modules(monkeypatch):
    import repro.sim.timers as timers_mod

    monkeypatch.setattr(timers_mod, "TIMER_WHEEL", True)
    assert environment()["toggles"]["timer_wheel"] is True


def test_event_throughput_result_records_the_timed_toggles(monkeypatch):
    """The fast side runs under fast_config(): its result must say so,
    whatever the module defaults in the environment block say."""
    outcome = {"events": 10, "views": {}, "physical_frames": 1, "busy_bits": 1}
    monkeypatch.setattr(
        perf_bench, "_run_canonical_scenario", lambda run_ms: dict(outcome)
    )
    monkeypatch.setattr(perf_bench, "_timed", lambda fn: (fn(), 1.0)[1])
    result = perf_bench.bench_event_throughput(quick=True, repeats=1)
    assert result["toggles"]["timer_wheel"] is True
    assert result["toggles"]["columnar_trace"] is True
    assert environment()["toggles"]["timer_wheel"] is False


def test_every_result_records_its_toggles():
    report = perf_bench.run_benchmarks(
        quick=True, repeats=1, only=["frame_encoding"]
    )
    toggles = report["results"]["frame_encoding"]["toggles"]
    assert toggles == environment()["toggles"]


def test_compare_reads_reports_without_result_toggles():
    baseline = _report({"enc": {"unit": "x/s", "value": 100.0, "speedup": 4.0}})
    current = _report({"enc": {
        "unit": "x/s", "value": 100.0, "speedup": 4.0,
        "toggles": {"timer_wheel": True},
    }})
    assert compare_reports(baseline, current, portable_only=True) == []


def test_write_and_load_roundtrip(tmp_path):
    report = _report({"x": {"unit": "u", "value": 1.0}})
    path = str(tmp_path / "BENCH.json")
    write_report(report, path)
    assert load_report(path) == report


def test_load_report_rejects_other_schemas(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other/9", "results": {}}))
    with pytest.raises(ValueError, match="unsupported schema"):
        load_report(str(path))


def test_compare_no_regression_within_threshold():
    baseline = _report({"enc": {"unit": "x/s", "value": 100.0, "speedup": 4.0}})
    current = _report({"enc": {"unit": "x/s", "value": 80.0, "speedup": 3.2}})
    # 20% drop on both metrics: inside the default 25% threshold.
    assert compare_reports(baseline, current) == []


def test_compare_flags_value_and_speedup_regressions():
    baseline = _report({"enc": {"unit": "x/s", "value": 100.0, "speedup": 4.0}})
    current = _report({"enc": {"unit": "x/s", "value": 50.0, "speedup": 1.0}})
    regressions = compare_reports(baseline, current)
    assert len(regressions) == 2
    assert any("enc.speedup" in line for line in regressions)
    assert any("enc.value" in line for line in regressions)


def test_compare_lower_is_better_inverts():
    baseline = _report({"wall": {"unit": "s", "value": 1.0, "lower_is_better": True}})
    slower = _report({"wall": {"unit": "s", "value": 2.0, "lower_is_better": True}})
    faster = _report({"wall": {"unit": "s", "value": 0.5, "lower_is_better": True}})
    assert compare_reports(baseline, slower) != []
    assert compare_reports(baseline, faster) == []


def test_compare_portable_only_ignores_absolute_values():
    baseline = _report({"enc": {"unit": "x/s", "value": 100.0, "speedup": 4.0}})
    current = _report({"enc": {"unit": "x/s", "value": 10.0, "speedup": 4.0}})
    assert compare_reports(baseline, current, portable_only=True) == []
    assert compare_reports(baseline, current) != []


def test_compare_skips_unknown_benchmarks():
    baseline = _report({})
    current = _report({"new": {"unit": "x/s", "value": 1.0}})
    assert compare_reports(baseline, current) == []


def test_compare_rejects_bad_threshold():
    with pytest.raises(ValueError, match="threshold"):
        compare_reports(_report({}), _report({}), threshold=1.5)


def test_campaign_wallclock_quick_runs_clean():
    result = perf_bench.bench_campaign_wallclock(quick=True)
    assert result["unit"] == "s"
    assert result["value"] > 0
    assert result["lower_is_better"]
    # The corpus is mode-invariant (see the benchmark's docstring), so
    # even the quick run measures the full six-scenario campaign.
    assert result["verdicts"] == ["ok"] * 6


def test_committed_report_meets_the_acceptance_bars():
    """BENCH_core.json at the repo root is a real measurement: the frame
    encoding speedup must be >= 3x, kernel throughput >= 4x, end-to-end
    event throughput >= 4x on the 48-node canonical scenario, and the
    10->200-node sweep must report sub-linear per-event cost growth."""
    report = load_report("BENCH_core.json")
    results = report["results"]
    assert results["frame_encoding"]["speedup"] >= 3.0
    assert results["kernel_throughput"]["speedup"] >= 4.0
    assert results["kernel_throughput"]["unit"] == "events/s"
    assert results["event_throughput"]["speedup"] >= 4.0
    scaling = results["stack_scaling"]
    assert scaling["sublinear"]
    assert scaling["cost_ratio"] < scaling["linear_ratio"]
    assert scaling["nodes"] == [10, 50, 200]
    assert set(scaling["per_node"]) == {"10", "50", "200"}
    # The wall-clock macro carries its sequential reference so the report
    # renders an attributable speedup, not a bare absolute.
    assert results["campaign_wallclock"]["reference_value"] > 0
    assert results["campaign_wallclock"]["lower_is_better"]
    # The QoS engine reads traces only through the columnar bulk
    # accessor; the committed run must show it no slower than the
    # row-scan reference on identical analysis work.
    qos = results["qos_compute"]
    assert qos["unit"] == "computes/s"
    assert qos["speedup"] >= 1.0
    assert qos["scenario"]["msh_changes"] > 0
    assert report["environment"]["python"]
    assert "toggles" in report["environment"]


def test_render_report_mentions_every_benchmark():
    report = _report(
        {
            "enc": {"unit": "x/s", "value": 2.0, "reference_value": 1.0,
                    "speedup": 2.0, "cached_speedup": 10.0},
            "wall": {"unit": "s", "value": 0.5, "lower_is_better": True},
        }
    )
    text = render_report(report)
    assert "enc" in text and "wall" in text
    assert "speedup 2.00x" in text


def test_cli_bench_regression_gate(tmp_path, monkeypatch, capsys):
    """``repro bench --baseline`` exits 1 when the current run regresses
    and 0 when it does not (runner stubbed: the gate is what's under test)."""
    import repro.perf
    from repro.__main__ import main

    current = _report({"enc": {"unit": "x/s", "value": 1.0, "speedup": 2.0}})
    monkeypatch.setattr(
        repro.perf,
        "run_benchmarks",
        lambda quick=False, repeats=None, only=None: current,
    )
    baseline_path = str(tmp_path / "baseline.json")
    out_path = str(tmp_path / "out.json")

    write_report(_report({"enc": {"unit": "x/s", "value": 1.0, "speedup": 100.0}}), baseline_path)
    assert main(["bench", "--quick", "--baseline", baseline_path]) == 1
    assert "REGRESSIONS" in capsys.readouterr().out

    write_report(current, baseline_path)
    assert main(["bench", "--quick", "--baseline", baseline_path, "--json", out_path]) == 0
    assert load_report(out_path) == current
    assert "no regressions" in capsys.readouterr().out


def test_run_benchmarks_only_filters_the_suite(monkeypatch):
    """``only`` restricts the run to the named benchmarks in suite order
    and rejects unknown names before running anything."""
    from repro.perf.bench import BENCHMARKS, run_benchmarks

    calls = []
    for name in BENCHMARKS:
        monkeypatch.setitem(
            BENCHMARKS, name,
            lambda quick=False, repeats=None, _n=name: (
                calls.append(_n) or {"unit": "u", "value": 1.0}
            ),
        )
    report = run_benchmarks(quick=True, only=["stack_scaling"])
    assert calls == ["stack_scaling"]
    assert set(report["results"]) == {"stack_scaling"}
    with pytest.raises(ValueError, match="unknown benchmark"):
        run_benchmarks(quick=True, only=["no_such_bench"])


def test_cli_require_sublinear_gate(monkeypatch, capsys):
    """``repro bench --require-sublinear`` exits 1 when the scaling sweep
    reports linear growth (or did not run) and 0 when it is sub-linear."""
    import repro.perf
    from repro.__main__ import main

    def stub(result):
        return lambda quick=False, repeats=None, only=None: _report(result)

    linear = {"stack_scaling": {
        "unit": "events/s", "value": 1.0, "sublinear": False,
        "cost_ratio": 25.0, "linear_ratio": 20.0,
    }}
    monkeypatch.setattr(repro.perf, "run_benchmarks", stub(linear))
    assert main(["bench", "--quick", "--require-sublinear"]) == 1
    assert "grew linearly" in capsys.readouterr().out

    monkeypatch.setattr(repro.perf, "run_benchmarks", stub({}))
    assert main(["bench", "--quick", "--require-sublinear"]) == 1
    assert "did not run" in capsys.readouterr().out

    sublinear = {"stack_scaling": {
        "unit": "events/s", "value": 1.0, "sublinear": True,
        "cost_ratio": 8.0, "linear_ratio": 20.0,
    }}
    monkeypatch.setattr(repro.perf, "run_benchmarks", stub(sublinear))
    assert main(["bench", "--quick", "--require-sublinear"]) == 0
    assert "sub-linear scaling" in capsys.readouterr().out


def test_row_scan_adapter_matches_native_columns():
    """The qos_compute reference path must see identical columns."""
    from repro.perf.bench import _RowScanColumns
    from repro.sim.trace import ColumnarTraceRecorder

    trace = ColumnarTraceRecorder()
    trace.record(10, "msh.change", node=0, active=frozenset({0, 1}))
    trace.record(20, "node.crash", node=1)
    trace.record(30, "msh.change", node=1, active=frozenset({0}))
    adapter = _RowScanColumns(trace)
    for category in ("msh.change", "node.crash", "nothing"):
        native = trace.category_columns(category)
        via_rows = adapter.category_columns(category)
        assert list(native[0]) == list(via_rows[0])
        assert list(native[1]) == list(via_rows[1])
        assert native[2] == via_rows[2]
    # Everything else delegates to the wrapped trace.
    assert adapter.count("msh.change") == 2
