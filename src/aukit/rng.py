"""Deterministic pseudo-random numbers: splitmix64-seeded xoshiro256++.

Every random decision in the toolkit (parameter init, shuffling, data
augmentation, synthetic data) flows through this generator so that a fixed
seed reproduces identical bit streams on every platform.  The algorithms are
the public-domain ones by Blackman and Vigna; integer arithmetic is done
modulo 2**64.

Arrays are drawn in lanes, with the same bits as the sequential stream.
xoshiro256++ advances its 256-bit state by a linear map M over GF(2), so the
state 2**j steps ahead is the current one times M**(2**j) (Blackman & Vigna,
arXiv 1805.01407).  ``uniform_array`` and ``normal_array`` split n draws into
lanes of 2**k consecutive steps, 2**k about sqrt(n) / 2.  Lane i starts from
the state i * 2**k steps ahead, reached by doubling with cached jump matrices;
then all lanes step together in numpy uint64 arithmetic.  The values come out
in the order of n calls of ``next_u64``, and the generator ends exactly n
steps ahead.  The jump matrices are cached as uint8 bits; their products are
float32 matmuls whose entries are integers of at most 256, hence exact under
any BLAS and any summation order.

Box-Muller keeps ``math.log``, ``math.cos`` and ``math.sin`` per element:
numpy's SIMD ``log`` differs from libm's in the last bit for some inputs
(6,915 of 2,000,000 on an AVX-512 machine), numpy promises no particular
rounding for ``cos`` and ``sin`` either, and the stream is defined by the
libm values.  ``np.sqrt`` is correctly rounded, so it gives the same bits as
``math.sqrt``.
"""

from __future__ import annotations

import math
import threading

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53


def _splitmix64_step(x: int) -> tuple[int, int]:
    """Advance a splitmix64 state, returning (new_state, output)."""
    x = (x + _GOLDEN) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return x, z ^ (z >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Mix a base seed with integer tags into a fresh 64-bit seed.

    Used to give independent, reproducible streams to sub-tasks (per-epoch
    shuffles, per-video generation, parameter init) without sharing state.
    """
    x = seed & _MASK
    for tag in tags:
        x, out = _splitmix64_step(x ^ ((tag * _GOLDEN) & _MASK))
        x = out
    x, out = _splitmix64_step(x)
    return out


def _advance(s0, s1, s2, s3, t) -> None:
    """One xoshiro256 state transition on uint64 word arrays, in place."""
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, 45, out=t)
    s3 >>= 19
    s3 |= t


def _to_bits(words: np.ndarray) -> np.ndarray:
    """(L, 4) uint64 states -> (L, 256) bits; bit 64*w + b is bit b of word w."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")


def _from_bits(bits: np.ndarray) -> np.ndarray:
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _gf2_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit matrix product over GF(2); float32 sums of at most 256 ones are exact."""
    product = a.astype(np.float32) @ b.astype(np.float32)
    return (product.astype(np.int16) & 1).astype(np.uint8)


# _JUMPS[j] holds the bits of M**(2**j): row b is the state 2**j steps after
# the state whose only set bit is b, so a bit row r jumps to r @ _JUMPS[j].
# The lock keeps two threads from appending the same level twice.
_JUMPS: list[np.ndarray] = []
_JUMPS_LOCK = threading.Lock()


def _jump(j: int) -> np.ndarray:
    with _JUMPS_LOCK:
        if not _JUMPS:
            words = np.zeros((4, 256), dtype=np.uint64)
            b = np.arange(256)
            words[b // 64, b] = np.uint64(1) << (b % 64).astype(np.uint64)
            _advance(*words, np.empty(256, dtype=np.uint64))
            _JUMPS.append(_to_bits(words.T))
        while len(_JUMPS) <= j:
            _JUMPS.append(_gf2_product(_JUMPS[-1], _JUMPS[-1]))
        return _JUMPS[j]


def _lane_starts(state: list[int], lanes: int, k: int) -> np.ndarray:
    """(4, lanes) uint64 words; lane i is ``state`` advanced i * 2**k steps."""
    bits = _to_bits(np.array([state], dtype=np.uint64))
    j = k
    while len(bits) < lanes:
        ahead = _gf2_product(bits[: lanes - len(bits)], _jump(j))
        bits = np.concatenate([bits, ahead])
        j += 1
    return np.ascontiguousarray(_from_bits(bits).T)


class Xoshiro256pp:
    """xoshiro256++ generator with a splitmix64-filled state."""

    def __init__(self, seed: int):
        state = []
        x = seed & _MASK
        for _ in range(4):
            x, out = _splitmix64_step(x)
            state.append(out)
        self._s = state
        self._gauss_spare: float | None = None

    def next_u64(self) -> int:
        s = self._s
        result = ((self._rotl(s[0] + s[3], 23) + s[0])) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = self._rotl(s[3], 45)
        return result

    @staticmethod
    def _rotl(x: int, k: int) -> int:
        x &= _MASK
        return ((x << k) | (x >> (64 - k))) & _MASK

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling (unbiased)."""
        if n <= 0:
            raise ValueError("randint bound must be positive")
        threshold = (2 ** 64 // n) * n
        while True:
            draw = self.next_u64()
            if draw < threshold:
                return draw % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def _draws(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_u64`` as uint64, in stream order."""
        if n == 0:
            return np.empty(0, dtype=np.uint64)
        k = max(n.bit_length() // 2 - 1, 0)
        steps = 1 << k
        lanes = -(-n // steps)
        s = _lane_starts(self._s, lanes, k)
        s0, s1, s2, s3 = s
        t = np.empty(lanes, dtype=np.uint64)
        out = np.empty((steps, lanes), dtype=np.uint64)
        last = n - (lanes - 1) * steps  # steps the last lane needs, 1..steps
        for i, row in enumerate(out):
            np.add(s0, s3, out=t)
            np.left_shift(t, 23, out=row)
            t >>= 41
            row |= t
            row += s0
            _advance(s0, s1, s2, s3, t)
            if i + 1 == last:
                self._s = [int(word) for word in s[:, -1]]
        return out.T.reshape(-1)[:n]

    def _random_array(self, n: int) -> np.ndarray:
        """``n`` values of ``random()``, the same bits in the same order."""
        draws = self._draws(n)
        draws >>= 11
        values = draws.astype(np.float64)
        values *= _UNIT
        return values

    def uniform_array(self, shape: tuple[int, ...], low: float, high: float) -> np.ndarray:
        """``low + (high - low) * random()`` per element, in C order."""
        n = int(np.prod(shape)) if shape else 1
        values = self._random_array(n)
        values *= high - low
        values += low
        return values.reshape(shape)

    def normal_array(self, shape: tuple[int, ...]) -> np.ndarray:
        """Standard normals via Box-Muller on draw pairs (2j, 2j + 1).

        Pair j gives ``r cos(theta)`` then ``r sin(theta)``, with
        ``r = sqrt(-2 log(1 - u_2j))`` (1 - u lies in (0, 1], so the log is
        finite) and ``theta = 2 pi u_2j+1``.  A spare left by an odd count is
        returned first by the next call.
        """
        n = int(np.prod(shape)) if shape else 1
        out = np.empty(n, dtype=np.float64)
        head = 0
        if n and self._gauss_spare is not None:
            out[0] = self._gauss_spare
            self._gauss_spare = None
            head = 1
        pairs = (n - head + 1) // 2
        if pairs:
            u = self._random_array(2 * pairs)
            log_u1 = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64, pairs)
            theta = ((2.0 * math.pi) * u[1::2]).tolist()
            r = np.sqrt(-2.0 * log_u1)
            z = np.empty(2 * pairs, dtype=np.float64)
            z[0::2] = r * np.fromiter(map(math.cos, theta), np.float64, pairs)
            z[1::2] = r * np.fromiter(map(math.sin, theta), np.float64, pairs)
            out[head:] = z[: n - head]
            if (n - head) % 2:
                self._gauss_spare = float(z[-1])
        return out.reshape(shape)

    def fork(self, tag: int) -> "Xoshiro256pp":
        """Child generator with a stream derived from this one plus a tag."""
        return Xoshiro256pp(derive_seed(self.next_u64(), tag))
