"""Tests of the benchmark's own helpers (no workload is run here)."""

import json
import math
from pathlib import Path

import pytest

from perfbench.hostspeed import REFERENCE_S, normalised
from perfbench.stats import batch_rate, check_metric_name, check_unit, percentile, psnr_db
from perfbench.tracing import ROOT, Tracer, covered_length, layer_totals, self_times

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class TestPercentile:
    def test_p90_of_100_samples_leaves_ten_beyond(self):
        assert percentile(list(range(1, 101)), 90) == (90, 10)

    def test_median_of_odd_sample_is_the_middle_value(self):
        assert percentile([3.0, 1.0, 2.0], 50) == (2.0, 1)

    def test_p90_of_small_sample_reports_how_few_lie_beyond(self):
        value, beyond = percentile([float(v) for v in range(40)], 90)
        assert (value, beyond) == (35.0, 4)

    def test_p99_of_fifty_samples_is_the_maximum(self):
        assert percentile(list(range(50)), 99) == (49, 0)

    def test_rejects_empty_sample_and_bad_rank(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)


class TestBatchRate:
    def test_steady_ops_give_their_rate(self):
        assert batch_rate([0.5] * 12, 4) == pytest.approx(2.0)

    def test_one_stalled_op_does_not_move_the_median(self):
        walls = [0.5] * 12
        walls[5] = 5.0
        assert batch_rate(walls, 4) == pytest.approx(2.0)
        assert len(walls) / sum(walls) < 1.5

    def test_trailing_partial_batch_is_dropped(self):
        assert batch_rate([1.0, 1.0, 0.25, 0.25, 1.0, 1.0, 0.01], 2) == pytest.approx(1.0)

    def test_window_shorter_than_a_batch_is_one_batch(self):
        assert batch_rate([1.0, 3.0], 4) == pytest.approx(0.5)

    def test_rejects_empty_sample_and_bad_size(self):
        with pytest.raises(ValueError):
            batch_rate([], 4)
        with pytest.raises(ValueError):
            batch_rate([1.0], 0)


class TestHostSpeed:
    def test_reference_speed_leaves_the_wall_unchanged(self):
        assert normalised(0.3, REFERENCE_S, REFERENCE_S) == pytest.approx(0.3)

    def test_host_twice_as_slow_halves_the_wall(self):
        assert normalised(0.6, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.3)

    def test_scales_by_the_mean_of_the_loop_times_around_the_op(self):
        assert normalised(0.3, REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(0.15)


class TestSelfTimes:
    def test_covered_length_merges_overlaps_and_clips(self):
        assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
        assert covered_length([], 0, 10) == 0

    def test_nested_spans(self):
        spans = [
            ["op", 0.0, 10.0, -1, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["b", 2.0, 3.0, 1, 0],
            ["c", 5.0, 9.0, 0, 0],
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_overlapping_children_count_once(self):
        spans = [["op", 0.0, 10.0, -1, 0], ["a", 1.0, 6.0, 0, 0], ["b", 4.0, 8.0, 0, 0]]
        assert self_times(spans)[0] == 3.0

    def test_layer_totals_add_calls_and_self_time(self):
        spans = [
            ["op", 0.0, 10.0, -1, 0],
            ["a", 1.0, 2.0, 0, 0],
            ["a", 3.0, 5.0, 0, 0],
        ]
        totals = layer_totals(spans)
        assert totals["a"] == {"calls": 2, "self_s": 3.0}
        assert totals["op"] == {"calls": 1, "self_s": 7.0}


def _spin(n):
    return sum(i * i for i in range(n))


class _Layer:
    def outer(self, n):
        return _spin(n) + self.inner(n) + self.outer_again(n)

    def inner(self, n):
        return _spin(n)

    def outer_again(self, n):
        return _spin(n)


class TestTracer:
    def test_self_times_and_unattributed_sum_to_op_wall(self):
        tracer = Tracer()
        tracer.patch(_Layer, "outer", "layer.outer")
        tracer.patch(_Layer, "inner", "layer.inner")
        tracer.patch(_Layer, "outer_again", "layer.outer")
        try:
            for op in range(3):
                with tracer.op(op):
                    _spin(2000)
                    _Layer().outer(2000)
        finally:
            tracer.restore()
        totals = layer_totals(tracer.spans)
        wall = sum(s[2] - s[1] for s in tracer.spans if s[0] == ROOT)
        assert math.isclose(sum(t["self_s"] for t in totals.values()), wall, rel_tol=1e-9)
        # re-entering a layer from inside it is folded into the outer span
        assert totals["layer.outer"]["calls"] == 3
        assert totals["layer.inner"]["calls"] == 3
        assert totals[ROOT]["self_s"] > 0.0
        assert {s[4] for s in tracer.spans} == {0, 1, 2}

    def test_calls_outside_an_op_record_nothing_and_restore_unpatches(self):
        original = _Layer.__dict__["inner"]
        tracer = Tracer()
        tracer.patch(_Layer, "inner", "layer.inner")
        _Layer().inner(10)
        assert tracer.spans == []
        tracer.restore()
        assert _Layer.__dict__["inner"] is original

    def test_after_hook_counts_only_recorded_calls(self):
        tracer = Tracer()

        def count(counters, args, kwargs, result):
            counters["n"] += result

        tracer.patch(_Layer, "inner", "layer.inner", count)
        try:
            _Layer().inner(3)
            with tracer.op(0):
                _Layer().inner(3)
        finally:
            tracer.restore()
        assert tracer.counters["n"] == 5


class TestMetricNames:
    @pytest.mark.parametrize("name", ["setup_s", "compression.compress.mb_per_s", "9lives", "a-b"])
    def test_valid_names(self, name):
        assert check_metric_name(name) == name

    @pytest.mark.parametrize("name", ["", ".calls", "_x", "a b", "ms/op", "x" * 65])
    def test_invalid_names(self, name):
        with pytest.raises(ValueError):
            check_metric_name(name)

    @pytest.mark.parametrize("unit", ["ms", "1/s", "%", "MB/s", "sim_us"])
    def test_valid_units(self, unit):
        assert check_unit(unit) == unit

    @pytest.mark.parametrize("unit", ["", "per second", "u" * 17, "µs"])
    def test_invalid_units(self, unit):
        with pytest.raises(ValueError):
            check_unit(unit)

    def test_declared_metrics_are_valid_and_unique(self):
        spec = json.loads(BENCHMARK.read_text())
        names = []
        for kind in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[kind]:
                names.append(check_metric_name(entry["name"]))
                if "unit" in entry:
                    check_unit(entry["unit"])
        assert len(names) == len(set(names))


def test_psnr_of_exact_reconstruction_is_finite():
    assert math.isfinite(psnr_db(0.0, 10, 2.0))
    assert psnr_db(1.0, 1, 1.0) == 0.0
