"""Deterministic benchmark-instance generator.

Instances are produced from a 64-bit seed through a SplitMix64 stream, so a
(seed, parameters) pair names the same instance on every platform and Python
version.  The stdlib Mersenne Twister is avoided on purpose: its high-level
sampling helpers have changed across CPython releases, which would silently
re-roll published benchmarks.

The generated family models plan authorization under attrition: n users, k
steps, a random authorization base, pairwise separation duties, and a
resilience margin tau.  The relation encoding of `encode_resilient` is
applied before returning, so the result feeds the relation solvers directly.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from ._kernels import get_backend
from .model import MAX_USERS, Instance, _auth_of_masks
from .resiliency import encode_resilient
from .wsp import WspInstance, must_differ

log = logging.getLogger("vapep.generator")

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream with helpers for bounded ints and subset sampling."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] via masked rejection."""
        if lo > hi:
            raise ValueError("empty range")
        span = hi - lo + 1
        if span == 1:
            return lo
        mask = (1 << (span - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < span:
                return lo + v

    def sample(self, n: int, c: int) -> list[int]:
        """Sorted uniform c-subset of range(n) (partial Fisher-Yates)."""
        if not 0 <= c <= n:
            raise ValueError("sample size out of range")
        pool = list(range(n))
        for i in range(c):
            j = self.randint(i, n - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:c])

    def subset_masks(self, count: int, k: int, cmax: int) -> list[int]:
        """`count` draws of `c = randint(1, cmax)` then `sample(k, c)`, each
        returned as the bitmask of its sample.

        The stream is used exactly as those calls use it, so the masks and
        the state left behind are the same.  The draws run in the kernel
        that `APEP_KERNEL` selects (`_kernels._ref.subset_masks` is the
        spec).
        """
        masks, self._state = get_backend().subset_masks(self._state, count, k, cmax)
        return masks


def substream(seed: int, purpose: str) -> SplitMix64:
    """Independent stream for one generation phase (FNV-1a tagged seed)."""
    h = 0xCBF29CE484222325
    for byte in purpose.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return SplitMix64(seed ^ h)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class GeneratorConfig:
    """Shape of one generated instance; unset fields get size-based defaults."""

    n: int
    k: Optional[int] = None
    tau: Optional[int] = None
    alpha: int = 1
    q_sod: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if self.n > MAX_USERS:  # refused before any draw
            raise ValueError(f"at most {MAX_USERS} users are supported")
        if self.k is None:
            object.__setattr__(self, "k", max(1, self.n // 10))
        if not _is_int(self.k) or not 1 <= self.k <= 30:
            raise ValueError("k must be an integer in [1, 30]")
        if self.tau is None:
            object.__setattr__(self, "tau", self.n // 20)
        if not _is_int(self.tau) or self.tau < 0:
            raise ValueError("tau must be a non-negative integer")
        if not _is_int(self.alpha) or not 1 <= self.alpha <= 10**5:
            raise ValueError("alpha must be an integer in [1, 100000]")
        if self.q_sod is None:
            object.__setattr__(self, "q_sod", self.k if self.k >= 2 else 0)
        if not _is_int(self.q_sod) or self.q_sod < 0:
            raise ValueError("q_sod must be a non-negative integer")
        if self.q_sod > 0 and self.k < 2:
            raise ValueError("separation pairs need at least two steps")
        if not _is_int(self.seed) or not 0 <= self.seed <= _MASK:
            raise ValueError("seed must be an integer in [0, 2^64)")


def generate(cfg: GeneratorConfig) -> Instance:
    """Build the relation instance for a generated attrition scenario."""
    n, k, tau, alpha = cfg.n, cfg.k, cfg.tau, cfg.alpha
    steps = tuple(f"s{i + 1}" for i in range(k))
    users = tuple(map("u{}".format, range(1, n + 1)))

    # user j holds randint(1, cmax) steps drawn by sample(k, c), in user
    # order from the "auth" stream; the masks go to the instances as built
    masks = substream(cfg.seed, "auth").subset_masks(n, k, max(1, (k - 1) // 2))

    scope_rng = substream(cfg.seed, "scopes")
    cons = []
    for _ in range(cfg.q_sod):
        a = scope_rng.randint(0, k - 1)
        b = scope_rng.randint(0, k - 2)
        if b >= a:
            b += 1
        cons.append(must_differ(steps[a], steps[b]))

    wsp = WspInstance(
        steps=steps,
        users=users,
        constraints=tuple(cons),
        auth=_auth_of_masks(masks, users, steps, 1),
        _prebuilt=(None, (masks, None)),
    )
    inst = encode_resilient(wsp, tau, p_sod=10 * alpha, p_card=10, p_a=alpha)
    inst.meta = {"generator": {
        "algorithm": "splitmix64",
        "version": 1,
        "seed": cfg.seed,
        "n": n,
        "k": k,
        "tau": tau,
        "alpha": alpha,
        "q_sod": cfg.q_sod,
    }}
    log.info(
        "generated instance: n=%d k=%d tau=%d alpha=%d q_sod=%d seed=%d",
        n, k, tau, alpha, cfg.q_sod, cfg.seed,
    )
    return inst
