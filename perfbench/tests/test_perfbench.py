"""Tests of the benchmark's own arithmetic and metric definitions.

Run from the root of the repository:  python3 -m pytest perfbench/tests
"""

import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
from layers import STEP_SELF, layer_metrics  # noqa: E402
from spans import (STEP, Span, Tracer, enclosing, instrument,  # noqa: E402
                   self_times)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def ticking(*times):
    return iter(times).__next__


def nested_tracer():
    """root [0, 10] holds a [1, 5] and b [6, 9]; a holds g [2, 4]."""
    tracer = Tracer(clock=ticking(0, 1, 2, 4, 5, 6, 9, 10))
    root = tracer.begin("root")
    a = tracer.begin("a")
    with tracer.span("g"):
        pass
    tracer.end(a)
    with tracer.span("b"):
        pass
    tracer.end(root)
    return tracer


def test_self_time_subtracts_direct_children_only():
    spans = nested_tracer().spans
    assert [s.name for s in spans] == ["root", "a", "g", "b"]
    assert [s.parent for s in spans] == [-1, 0, 1, 0]
    assert self_times(spans) == [3, 2, 2, 3]


def test_self_times_of_a_tree_add_up_to_its_root():
    spans = nested_tracer().spans
    assert sum(self_times(spans)) == spans[0].duration


def test_enclosing_finds_nearest_named_ancestor():
    spans = [Span("setup", 0, 1), Span(STEP, 1, 5), Span("x", 2, 3, parent=1),
             Span("y", 2, 3, parent=2), Span(STEP, 5, 6)]
    assert enclosing(spans, STEP) == [-1, 1, 1, 1, 4]


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrap_records_attributes_from_the_result():
    tracer = Tracer()
    double = tracer.wrap(lambda x: 2 * x, "double",
                         attrs=lambda args, kwargs, result: {"out": result})
    assert double(4) == 8
    assert [(s.name, s.attrs) for s in tracer.spans] == \
        [("double", {"out": 8})]


def test_calibration_factor_uses_the_samples_on_either_side(monkeypatch):
    import calibrate

    calibration = calibrate.Calibration()
    calibration.kernel = lambda: None
    monkeypatch.setattr(calibrate, "time", SimpleNamespace(
        perf_counter=ticking(0, 0.1, 5, 5.3, 9, 9.2)))
    ref = calibrate.REFERENCE_S
    assert calibration.measure() is None
    assert calibration.measure() == pytest.approx(ref / 0.2)
    assert calibration.measure() == pytest.approx(ref / 0.25)
    assert calibration.samples == pytest.approx([0.1, 0.3, 0.2])


def test_end_to_end_scales_every_interval_by_its_factor(monkeypatch):
    import calibrate
    import run

    factors = iter([None, 0.5, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0])

    class Fixed:
        def __init__(self):
            self.samples = []

        def measure(self):
            self.samples.append(0.0)
            return next(factors)

    def trajectory(calibration):
        return SimpleNamespace(
            complete=True, first_step_s=3.0, step_s=[2.0, 2.0], run_s=9.0,
            scales=[calibration.measure() for _ in range(3)])

    monkeypatch.setattr(calibrate, "Calibration", Fixed)
    workload = SimpleNamespace(nominal_s=1.0, setup=lambda: None,
                               trajectory=trajectory)
    trajectories, got, details = run.end_to_end(workload, seconds=2.0)
    assert len(trajectories) == 2
    assert got["first_step_s"] == 6.0          # median of 3 * 1, 3 * 3
    assert got["step_s_p50"] == 4.0            # median of 2, 2, 6, 6
    assert got["run_s"] == 18.0                # median of 9 * 1, 9 * 3
    assert details["wall"]["step_s_p50"] == 2.0
    assert details["steady_step_samples"] == 4


def steady_spans():
    """step 1 [0, 10]: factor [1, 7]; step 2 [10, 14] and step 3 [14, 20]:
    advance holds one sample_fields of 100 points and one lu_solve each;
    the error update after step 3 samples the map once more."""
    return [
        Span("meshing.generate_box", -2, -1),
        Span(STEP, 0, 10), Span("solver.factor", 1, 7, 1, {"nnz": 50}),
        Span(STEP, 10, 14),
        Span("solver.advance", 10, 13, 3),
        Span("maps.sample_fields", 10, 11, 4, {"points": 100}),
        Span("solver.lu_solve", 11, 12, 4),
        Span(STEP, 14, 20),
        Span("solver.advance", 14, 18, 7),
        Span("maps.sample_fields", 14, 16, 8, {"points": 100}),
        Span("solver.lu_solve", 16, 17, 8),
        Span("analysis.error_update", 18, 19.5, 7),
        Span("maps.sample_fields", 18, 19, 11, {"points": 40}),
    ]


def steady_trajectory():
    return SimpleNamespace(
        records=[{"linear_iterations": i} for i in (1, 2, 2)],
        step_s=[4.0, 6.0])


def test_layer_metrics_per_steady_step_and_unattributed_time():
    got, problems = layer_metrics(steady_spans(), steady_trajectory(), 4.0)
    assert problems == []
    assert set(got) == set(metrics.PER_LAYER)
    assert got["maps.sample_fields.calls_per_step"] == 1.5
    assert got["maps.sample_fields.points_per_step"] == 120
    assert got["maps.sample_fields.self_s_per_step"] == 2
    assert got["analysis.error_update.self_s_per_step"] == 0.25
    assert got["solver.lu_solves_per_step"] == 1
    assert got["solver.lu_solve_s_per_step"] == 1
    assert got["solver.advance.self_s_per_step"] == 1
    assert got["solver.factorizations"] == 1
    assert got["solver.factor_s"] == 6
    assert got["solver.factor_s_per_step"] == 0
    assert got["solver.factor_nnz"] == 50
    assert got["solver.factor_reuse_ratio"] == pytest.approx(2 / 3)
    assert got["solver.linear_iterations_p50"] == 2
    assert got["meshing.generate_s"] == 1
    assert got["trace.step_s_p50"] == 5
    assert got["trace.overhead_ratio"] == 1.25
    assert got["trace.unattributed_s_per_step"] == 0.75    # (1 + 0.5) / 2
    assert got["trace.unattributed_share"] == 0.15          # 1.5 of 10 s
    assert sum(got[name] for name in set(STEP_SELF.values())) == 5


def test_layer_metrics_report_open_and_uncovered_spans():
    spans = steady_spans()
    spans[6] = Span("solver.lu_solve", 11, parent=4)
    spans.append(Span("solver.mystery", 19.5, 20, 7))
    _, problems = layer_metrics(spans, steady_trajectory(), 4.0)
    assert "span 'solver.lu_solve' was never closed" in problems
    assert "span 'solver.mystery' runs inside a step but no per-step " \
        "metric carries it" in problems
    assert any(p.startswith("per-step self times add up to nan")
               for p in problems)


def test_metric_names_and_units_are_valid_and_unique():
    spec = metrics.SPEC
    everything = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in everything] + list(metrics.REPORTED_ONLY)
    assert len(names) == len(set(names))
    for m in everything:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(STEP_SELF.values()) <= set(metrics.PER_LAYER)
    import workloads
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES


def test_instrument_wraps_then_restores_the_program():
    from movingflow import TaylorHoodSpace, benchmarks, meshing

    before = (meshing.generate_box, benchmarks.generate_box,
              TaylorHoodSpace.__init__)
    tracer = Tracer()
    with instrument(tracer):
        assert benchmarks.generate_box is not before[1]
        TaylorHoodSpace(meshing.generate_box(2, (2, 2)))
    assert (meshing.generate_box, benchmarks.generate_box,
            TaylorHoodSpace.__init__) == before
    assert [s.name for s in tracer.spans] == ["meshing.generate_box",
                                              "spaces.setup"]
