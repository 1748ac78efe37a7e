"""Deterministic, hierarchically-named random number streams.

Every stochastic component in the reproduction draws from its own named
child stream, derived from a root seed with :class:`numpy.random.SeedSequence`
spawning keyed by a stable string.  The simulation's streams are
``workload-<kind>`` (trace generators), ``fs`` (the file system),
``policy`` (balancer set-up), ``fault-drop`` and ``fault-retry`` (the fault
injector) and ``analytic-policy`` (the analytic replay); the bench
statistics bootstrap from their own ``bench-*`` streams.  Two properties
follow:

* runs are bit-reproducible given the root seed;
* adding or removing one component does not shift any other component's
  sequence (no shared global stream), which keeps A/B experiment comparisons
  honest.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["SeedSequenceFactory", "RngStream"]


def _stable_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer (independent of PYTHONHASHSEED)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


#: relative distance from a prefix-sum boundary below which
#: :meth:`RngStream.zipf_choices_growing` recomputes a pick numpy's way
_ZIPF_TIE_RTOL = 1e-9


class RngStream:
    """A named wrapper around :class:`numpy.random.Generator`."""

    __slots__ = ("name", "generator")

    def __init__(self, name: str, generator: np.random.Generator):
        self.name = name
        self.generator = generator

    # Convenience passthroughs used across the codebase; anything exotic can
    # go straight to ``.generator``.
    def random(self, size=None):
        return self.generator.random(size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high=high, size=size)

    def choice(self, a, size=None, replace=True, p=None):
        return self.generator.choice(a, size=size, replace=replace, p=p)

    def exponential(self, scale=1.0, size=None):
        return self.generator.exponential(scale, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def lognormal(self, mean=0.0, sigma=1.0, size=None):
        return self.generator.lognormal(mean, sigma, size)

    def permutation(self, x):
        return self.generator.permutation(x)

    def shuffle(self, x) -> None:
        self.generator.shuffle(x)

    def zipf_weights(self, n: int, alpha: float) -> np.ndarray:
        """Normalised Zipf(alpha) probabilities over ranks ``1..n`` (no draw)."""
        if n <= 0:
            raise ValueError("n must be positive")
        ranks = np.arange(1, n + 1, dtype=np.float64)
        w = ranks ** (-float(alpha))
        w /= w.sum()
        return w

    def zipf_choices_growing(self, n0: int, count: int, alpha: float) -> np.ndarray:
        """``count`` Zipf(alpha) picks over a population that grows by one.

        Draw ``i`` is an index in ``[0, n0 + i)``.  The result, and the
        generator state left behind, equal ``count`` successive
        ``choice(n0 + i, p=zipf_weights(n0 + i, alpha))`` calls: each such
        call draws exactly one double ``u`` and returns
        ``searchsorted(cdf, u, side="right")`` over numpy's normalised cdf.
        Here the ``count`` doubles come from one ``random`` call and every
        pick from one search of the unnormalised prefix sum ``P``: draw ``i``
        is the first ``k`` with ``P[k] > u * P[n0 + i - 1]``.  O(n log n)
        instead of O(n²).
        """
        if n0 <= 0:
            raise ValueError("n0 must be positive")
        u = self.generator.random(count)
        n = n0 + np.arange(count)
        P = np.cumsum(np.arange(1, n0 + count + 1, dtype=np.float64) ** (-float(alpha)))
        t = u * P[n - 1]
        idx = np.searchsorted(P, t, side="right")
        # numpy's cdf (normalise, cumsum, rescale by its last entry) and this
        # one differ by at most ~2n rounding steps, about n * 2.2e-16
        # relative: ~3e-12 at n = 12k, ~2e-10 at n = 1e6, both below
        # _ZIPF_TIE_RTOL.  A target further than the tolerance from both
        # neighbouring P entries therefore lands in the same bucket either
        # way; a draw closer to one is redone exactly the numpy way.
        lo = P[np.maximum(idx - 1, 0)]
        hi = P[np.minimum(idx, P.shape[0] - 1)]
        tol = _ZIPF_TIE_RTOL * t
        near = (idx >= n) | ((idx > 0) & (t - lo <= tol)) | (hi - t <= tol)
        for j in np.flatnonzero(near).tolist():
            cdf = self.zipf_weights(int(n[j]), alpha).cumsum()
            cdf /= cdf[-1]
            idx[j] = cdf.searchsorted(u[j], side="right")
        return idx

    def __repr__(self) -> str:
        return f"RngStream({self.name!r})"


class SeedSequenceFactory:
    """Derives named, independent :class:`RngStream` children from a root seed."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._cache: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the (cached) stream for ``name``."""
        got = self._cache.get(name)
        if got is None:
            seq = np.random.SeedSequence([self.root_seed, _stable_key(name)])
            got = RngStream(name, np.random.default_rng(seq))
            self._cache[name] = got
        return got

    def fresh(self, name: str) -> RngStream:
        """Return a *new* stream for ``name`` (restarts its sequence)."""
        self._cache.pop(name, None)
        return self.stream(name)

    def spawn(self, names: Sequence[str]) -> Dict[str, RngStream]:
        return {n: self.stream(n) for n in names}
