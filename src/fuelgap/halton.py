"""Halton low-discrepancy draws for simulated likelihood.

A single Halton stream per prime base is cut into contiguous per-observation
blocks, so every observation owns a disjoint slice of the sequence and the
draws stay fixed across optimizer iterations.  Uniforms are mapped to
standard-normal deviates through scipy's inverse normal CDF (ndtri).
build_draw_store is the one generator, with no per-observation function;
radical_inverse is the scalar oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import FuelGapError

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n ** 0.5) + 1):
        if n % p == 0:
            return False
    return True


def first_primes(count: int) -> tuple[int, ...]:
    """Return the first `count` primes (2, 3, 5, ...)."""
    if count < 0:
        raise ValueError("count must be >= 0")
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if _is_prime(candidate):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


@dataclass(frozen=True)
class HaltonConfig:
    """Configuration of the per-observation Halton draw blocks.

    bases
        Distinct primes, one per random-coefficient dimension, assigned in
        declaration order.
    draws_per_obs
        Number of draws R integrating the likelihood for each observation.
    burn
        Leading sequence points discarded once, before any block is cut.
        The first points of a low-base Halton sequence are highly structured.
    """

    bases: tuple[int, ...]
    draws_per_obs: int = 400
    burn: int = 50

    def __post_init__(self):
        if len(self.bases) < 1:
            raise ValueError("at least one base is required")
        for name in ("bases", "draws_per_obs", "burn"):   # 2.5 and 3.0 alike are refused
            if not np.issubdtype(np.asarray(getattr(self, name)).dtype, np.integer):
                raise ValueError(f"{name} must be integral, got {getattr(self, name)!r}")
        object.__setattr__(self, "bases", tuple(int(b) for b in self.bases))
        if len(set(self.bases)) != len(self.bases):
            raise ValueError(f"bases must be distinct, got {self.bases}")
        for b in self.bases:
            if not _is_prime(b):
                raise ValueError(f"base {b} is not prime")
        if self.draws_per_obs < 1:
            raise ValueError("draws_per_obs must be >= 1")
        if self.burn < 0:
            raise ValueError("burn must be >= 0")


def radical_inverse(index: int, base: int) -> float:
    """Digit-reversal radical inverse of `index` in a prime `base`.

    Writing index = d0 + d1*base + d2*base^2 + ..., the value is
    d0/base + d1/base^2 + ... which lies strictly inside (0, 1) for
    every index >= 1.
    """
    if index < 1:
        raise ValueError(f"index must be >= 1, got {index}")
    if base < 2 or not _is_prime(base):
        raise ValueError(f"base must be a prime >= 2, got {base}")
    value = 0.0
    scale = 1.0
    n = int(index)
    while n > 0:
        scale /= base
        value += scale * (n % base)
        n //= base
    return value


# largest digit table _radical_inverse_block builds, in entries
_TABLE_SIZE = 4096
# largest draw store build_draw_store allocates
_MEMORY_CAP_BYTES = 2 ** 30


def _radical_inverse_block(start: int, count: int, base: int) -> np.ndarray:
    """Radical inverses of the `count` consecutive indices start..start+count-1.

    Each index is split as q * base**m + j.  A table holds the sums of the
    low m digit terms for every j < base**m (at most _TABLE_SIZE entries,
    and no more than `count`); the terms of q's digits are then added
    once per distinct q, broadcast across a row of the table.

    This is bit-identical to adding every digit term of the index in turn,
    lowest first, as radical_inverse does: every element sees the same
    chain of float additions, with the same repeated-division scales.  A
    digit beyond an index's length adds +0.0, which is exact.
    """
    m = 0
    while base ** (m + 1) <= min(count, _TABLE_SIZE):
        m += 1
    width = base ** m
    j = np.arange(width, dtype=np.int64)
    table = np.zeros(width)
    scale = 1.0
    for _ in range(m):
        scale /= base
        table += scale * (j % base)
        j //= base
    first = start // width
    q = np.arange(first, (start + count - 1) // width + 1, dtype=np.int64)
    value = np.empty((q.size, width))
    value[:] = table
    while q.any():
        scale /= base
        value += (scale * (q % base))[:, None]
        q //= base
    offset = start - first * width
    return value.ravel()[offset:offset + count]


def _inverse_normal_cdf_array(u: np.ndarray) -> np.ndarray:
    # Evaluate the lower half only (1 - u is exact for u >= 0.5), so the
    # quantiles of u and 1 - u are exact negatives of each other.
    flip = u > 0.5
    x = ndtri(np.where(flip, 1.0 - u, u))
    return np.where(flip, -x, x)


@dataclass(frozen=True)
class DrawStore:
    """Immutable standard-normal Halton draws, z[obs, draw, dim].

    Rebuilding with the same (n_obs, config) yields bit-identical values.
    """

    z: np.ndarray = field(repr=False)
    config: HaltonConfig

    def __post_init__(self):
        self.z.flags.writeable = False

    @property
    def n_obs(self) -> int:
        return self.z.shape[0]

    @property
    def draws_per_obs(self) -> int:
        return self.z.shape[1]

    @property
    def n_dims(self) -> int:
        return self.z.shape[2]


def build_draw_store(n_obs: int, config: HaltonConfig) -> DrawStore:
    """Build the full draw store for `n_obs` observations.

    z[i, r, d] is the normal quantile of radical_inverse(burn + i*R + r + 1,
    bases[d]): each observation owns R consecutive points of each base's
    sequence after the burn.  An allocation of n_obs * draws_per_obs *
    n_dims doubles above _MEMORY_CAP_BYTES is refused with its size.
    """
    if n_obs < 1:
        raise ValueError("n_obs must be >= 1")
    r = config.draws_per_obs
    d = len(config.bases)
    nbytes = n_obs * r * d * 8
    if nbytes > _MEMORY_CAP_BYTES:
        raise FuelGapError(
            f"draw store of {n_obs} x {r} x {d} doubles needs {nbytes} bytes, "
            f"above the cap of {_MEMORY_CAP_BYTES}")
    z = np.empty((n_obs, r, d))
    for dim, base in enumerate(config.bases):
        u = _radical_inverse_block(config.burn + 1, n_obs * r, base)
        z[:, :, dim] = _inverse_normal_cdf_array(u).reshape(n_obs, r)
    return DrawStore(z=z, config=config)
