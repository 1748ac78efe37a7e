"""GBDT predict on distinct binned rows, memoised per fitted model (hypothesis).

``GBDTRegressor.predict`` walks each distinct binned row through the forest
once and answers repeats from a key -> prediction memo.  Every output must be
bit-identical to walking that row through every tree on its own, in boosting
order — the reference below does exactly that, one row and one node at a
time.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ml import GBDTRegressor

SET = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def reference_predict(model: GBDTRegressor, X: np.ndarray) -> np.ndarray:
    """Per-row forest walk: base, plus each tree's scaled leaf in order."""
    binned = model.binner_.transform(np.asarray(X, dtype=np.float64))
    out = np.empty(binned.shape[0])
    for r in range(binned.shape[0]):
        acc = np.float64(model.base_)
        for tree in model.trees_:
            feature, threshold, left, right, value = tree.packed()
            node = 0
            while feature[node] >= 0:
                go_left = binned[r, feature[node]] <= threshold[node]
                node = left[node] if go_left else right[node]
            acc += np.float64(model.learning_rate) * value[node]
        out[r] = acc
    return out


def _duplicated_rows(rng: np.random.Generator, n: int, n_distinct: int, f: int) -> np.ndarray:
    """``n`` rows drawn with replacement from ``n_distinct`` distinct rows."""
    pool = rng.random((n_distinct, f))
    return pool[rng.integers(0, n_distinct, size=n)]


@st.composite
def fitted(draw, min_features: int = 1, max_features: int = 8):
    seed = draw(st.integers(0, 10**6))
    f = draw(st.integers(min_features, max_features))
    n = draw(st.integers(40, 200))
    rng = np.random.default_rng(seed)
    X = rng.random((n, f))
    y = X @ rng.normal(size=f) + 0.1 * rng.normal(size=n)
    model = GBDTRegressor(
        n_estimators=draw(st.integers(1, 12)),
        learning_rate=draw(st.sampled_from([0.1, 0.3, 1.0])),
        max_leaves=draw(st.integers(2, 8)),
        min_samples_leaf=2,
        n_bins=draw(st.sampled_from([4, 16, 64, 256])),
    ).fit(X, y)
    return model, rng, f


def _count_walked_rows(model: GBDTRegressor) -> list:
    """Record how many rows each forest walk covers."""
    walked = []
    walk = model._walk

    def counting(binned):
        walked.append(binned.shape[0])
        return walk(binned)

    model._walk = counting
    return walked


@given(fitted(), st.integers(1, 400), st.integers(1, 12))
@SET
def test_predict_on_duplicated_rows_is_bit_identical(fit, n, n_distinct):
    model, rng, f = fit
    X = _duplicated_rows(rng, n, n_distinct, f)
    walked = _count_walked_rows(model)
    assert np.array_equal(model.predict(X), reference_predict(model, X))
    # each distinct binned row is walked once (binning can merge rows)
    assert sum(walked) <= n_distinct


@given(fitted(), st.lists(st.integers(1, 150), min_size=2, max_size=5))
@SET
def test_repeated_calls_hit_the_memo(fit, sizes):
    model, rng, f = fit
    pool = rng.random((10, f))
    calls = [pool[rng.integers(0, 10, size=k)] for k in sizes]
    for X in calls:
        assert np.array_equal(model.predict(X), reference_predict(model, X))
    walked = _count_walked_rows(model)
    for X in calls:
        assert np.array_equal(model.predict(X), reference_predict(model, X))
    assert walked == []  # every row of a repeated call is answered by the memo


@given(fitted(), st.integers(0, 10**6))
@SET
def test_refit_drops_the_memo(fit, seed2):
    model, rng, f = fit
    X = _duplicated_rows(rng, 120, 15, f)
    before = model.predict(X)
    rng2 = np.random.default_rng(seed2)
    X2 = rng2.random((80, f))
    model.fit(X2, X2 @ rng2.normal(size=f) + 5.0)
    assert model._memo_[0].size == 0
    after = model.predict(X)
    assert np.array_equal(after, reference_predict(model, X))
    assert not np.array_equal(after, before)  # the +5 offset moves every row


@given(fitted(min_features=9, max_features=14), st.integers(1, 200))
@SET
def test_more_than_eight_features_walks_every_row(fit, n):
    model, rng, f = fit
    X = _duplicated_rows(rng, n, 5, f)
    walked = _count_walked_rows(model)
    assert np.array_equal(model.predict(X), reference_predict(model, X))
    assert walked == [n]
    assert model._memo_[0].size == 0


@given(fitted(min_features=1, max_features=14))
@SET
def test_empty_input(fit):
    model, _, f = fit
    out = model.predict(np.empty((0, f)))
    assert out.shape == (0,) and out.dtype == np.float64
