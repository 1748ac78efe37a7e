"""Property tests for the named RNG stream hierarchy (:mod:`repro.sim.rng`).

The hot-path equivalence suite rests on one premise: every stochastic
component draws from its own named child stream, so determinism and
independence hold for *any* (seed, name) combination — not just the ones the
unit tests happen to spell out.  These hypothesis tests check that premise
over randomized seeds and stream names.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import rng as rng_module
from repro.sim.rng import RngStream, SeedSequenceFactory, _stable_key

#: printable stream names like the codebase uses ("workload-rw", "jitter-3")
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_./",
    min_size=1,
    max_size=24,
)
seeds = st.integers(min_value=0, max_value=2**63 - 1)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, name=names)
def test_same_seed_same_name_is_bit_identical(seed, name):
    a = SeedSequenceFactory(seed).stream(name).integers(0, 2**63, size=16)
    b = SeedSequenceFactory(seed).stream(name).integers(0, 2**63, size=16)
    assert np.array_equal(a, b)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, name_a=names, name_b=names)
def test_distinct_names_do_not_overlap(seed, name_a, name_b):
    """Different stream ids never replay each other's sequence: 32 draws of
    64-bit integers from each stream share no value (collision probability
    ~2**-54 per pair — a hit means the streams are correlated, not unlucky)."""
    if name_a == name_b:
        return
    ssf = SeedSequenceFactory(seed)
    a = ssf.stream(name_a).integers(0, 2**63, size=32)
    b = ssf.stream(name_b).integers(0, 2**63, size=32)
    assert not (set(a.tolist()) & set(b.tolist()))
    assert not np.array_equal(a, b)


@settings(max_examples=30, deadline=None)
@given(seed_a=seeds, seed_b=seeds, name=names)
def test_distinct_seeds_do_not_overlap(seed_a, seed_b, name):
    if seed_a == seed_b:
        return
    a = SeedSequenceFactory(seed_a).stream(name).integers(0, 2**63, size=32)
    b = SeedSequenceFactory(seed_b).stream(name).integers(0, 2**63, size=32)
    assert not (set(a.tolist()) & set(b.tolist()))


@settings(max_examples=30, deadline=None)
@given(seed=seeds, extra=st.lists(names, min_size=1, max_size=5, unique=True), name=names)
def test_other_streams_never_shift_a_stream(seed, extra, name):
    """Touching any number of sibling streams (in any order, before or
    after) must not move ``name``'s sequence — the no-shared-global-stream
    property that keeps A/B comparisons honest."""
    clean = SeedSequenceFactory(seed).stream(name).random(12)

    noisy_factory = SeedSequenceFactory(seed)
    for other in extra:
        if other != name:
            noisy_factory.stream(other).random(5)  # interleaved draws
    noisy = noisy_factory.stream(name).random(12)
    assert np.array_equal(clean, noisy)


@settings(max_examples=50, deadline=None)
@given(name=names)
def test_stable_key_is_deterministic_and_discriminating(name):
    """The name→seed-entropy map is a pure function (hash-seed independent)
    and 64 bits wide (fits SeedSequence's uint64 entropy words)."""
    k = _stable_key(name)
    assert k == _stable_key(name)
    assert 0 <= k < 2**64
    assert k != _stable_key(name + "x")


@settings(max_examples=20, deadline=None)
@given(seed=seeds, name=names, n=st.integers(min_value=1, max_value=400),
       alpha=st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
def test_zipf_weights_are_a_distribution(seed, name, n, alpha):
    """zipf_weights draws nothing (stream state untouched) and returns a
    normalised, rank-decreasing probability vector."""
    stream = SeedSequenceFactory(seed).stream(name)
    before = stream.generator.bit_generator.state
    w = stream.zipf_weights(n, alpha)
    after = stream.generator.bit_generator.state
    assert before == after
    assert w.shape == (n,)
    assert abs(float(w.sum()) - 1.0) < 1e-12
    assert all(w[i] >= w[i + 1] for i in range(n - 1))


def _choice_loop(stream, n0, count, alpha):
    """The per-item reference ``zipf_choices_growing`` must reproduce."""
    return [
        int(stream.choice(n0 + i, p=stream.zipf_weights(n0 + i, alpha)))
        for i in range(count)
    ]


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n0=st.integers(min_value=1, max_value=60),
       count=st.integers(min_value=0, max_value=300),
       alpha=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
def test_zipf_choices_growing_matches_per_item_choice(seed, n0, count, alpha):
    """One bulk draw returns, pick for pick, what ``count`` successive
    ``choice(n0 + i, p=zipf_weights(n0 + i))`` calls return, and leaves the
    generator in the same state."""
    bulk = SeedSequenceFactory(seed).stream("g")
    loop = SeedSequenceFactory(seed).stream("g")
    got = bulk.zipf_choices_growing(n0, count, alpha)
    assert got.tolist() == _choice_loop(loop, n0, count, alpha)
    assert bulk.generator.bit_generator.state == loop.generator.bit_generator.state


def test_zipf_choices_growing_tie_fallback_matches_choice(monkeypatch):
    """With the tie tolerance at infinity every pick takes the numpy-way
    fallback; it must still match ``choice`` draw for draw."""
    monkeypatch.setattr(rng_module, "_ZIPF_TIE_RTOL", float("inf"))
    for seed, n0, count, alpha in ((0, 6, 400, 1.4), (3, 1, 50, 0.0), (9, 40, 200, 2.5)):
        bulk = SeedSequenceFactory(seed).stream("g")
        loop = SeedSequenceFactory(seed).stream("g")
        got = bulk.zipf_choices_growing(n0, count, alpha)
        assert got.tolist() == _choice_loop(loop, n0, count, alpha)
        assert bulk.generator.bit_generator.state == loop.generator.bit_generator.state


# The bulk generators rest on numpy drawing the same words in bulk as in a
# scalar loop.  These pin that contract by name, so a numpy upgrade that
# breaks it fails here rather than only as a golden-hash mismatch.
@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 101])
def test_bounded_integers_bulk_matches_scalar_loop(n):
    bulk = np.random.default_rng(11)
    loop = np.random.default_rng(11)
    got = bulk.integers(1024, 1 << 20, size=n)
    assert got.tolist() == [int(loop.integers(1024, 1 << 20)) for _ in range(n)]
    # odd n leaves half a 64-bit word buffered: has_uint32 and uinteger too
    assert bulk.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, 2, 9, 64])
def test_broadcast_highs_match_scalar_loop(n):
    highs = np.random.default_rng(5).integers(1, 40, size=n)
    bulk = np.random.default_rng(13)
    loop = np.random.default_rng(13)
    got = bulk.integers(0, highs)
    assert got.tolist() == [int(loop.integers(0, int(h))) for h in highs]
    assert bulk.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, 5, 64])
def test_random_bulk_matches_scalar_loop(n):
    bulk = np.random.default_rng(17)
    loop = np.random.default_rng(17)
    # an odd bounded draw first, so a buffered half word is in play
    bulk.integers(0, 10)
    loop.integers(0, 10)
    assert bulk.random(n).tolist() == [loop.random() for _ in range(n)]
    assert bulk.bit_generator.state == loop.bit_generator.state


def test_stream_type_round_trip():
    s = SeedSequenceFactory(7).stream("x")
    assert isinstance(s, RngStream)
    assert s.name == "x"
    assert repr(s) == "RngStream('x')"
