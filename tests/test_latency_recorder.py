"""LatencyRecorder: the run's exact per-op latency log."""

import numpy as np

from repro.fs.metrics import LatencyRecorder


def _filled(xs) -> LatencyRecorder:
    rec = LatencyRecorder()
    for x in xs:
        rec.record(float(x))
    return rec


def test_exact_below_capacity():
    xs = np.linspace(1.0, 50.0, 50)
    rec = _filled(xs)
    assert rec.count == 50
    assert rec.percentile(50) == np.percentile(xs, 50)
    assert rec.percentile(99) == np.percentile(xs, 99)


def test_count_and_mean_stay_exact_past_capacity():
    """Past the 20k samples the old reservoir held, the mean is still the
    record-order running sum over the count, bit for bit."""
    xs = np.random.default_rng(0).exponential(2.0, size=30_000)
    rec = _filled(xs)
    total = 0.0
    for x in xs.tolist():
        total += x
    assert rec.count == 30_000
    assert rec.mean == total / len(xs)


def test_percentiles_exact_past_capacity():
    xs = np.random.default_rng(3).lognormal(mean=0.0, sigma=0.5, size=50_000)
    rec = _filled(xs)
    for q in (0, 1, 50, 90, 99, 99.9, 100):
        assert rec.percentile(q) == np.percentile(xs, q), f"p{q}"


def test_values_slice_is_a_packed_copy_in_record_order():
    rec = _filled([3.0, 1.0, 2.0, 5.0])
    assert rec.samples.typecode == "d"  # 8 B per op, not a list of floats
    window = rec.values(1, 3)
    assert window.tolist() == [1.0, 2.0]
    rec.record(7.0)  # appending while a slice is alive is fine
    assert rec.values().tolist() == [3.0, 1.0, 2.0, 5.0, 7.0]


def test_empty_recorder_is_zero():
    rec = LatencyRecorder()
    assert rec.count == 0
    assert rec.mean == 0.0
    assert rec.percentile(50) == 0.0
    assert rec.percentile(99) == 0.0
    assert rec.values().size == 0
