"""Deterministic named random streams.

Every stochastic component (workload think times, daemon skew, ...) draws
from its own named stream so that adding randomness to one component never
perturbs another — runs stay reproducible and comparable across schemes.

Each stream is a :class:`PCG64Stream`: a pure-Python port of the chain
behind ``numpy.random.default_rng(seed)`` — ``SeedSequence`` → PCG64 →
the ``Generator`` draw methods — equal to numpy bit for bit on the draws
it offers.  So the model needs no numpy, and its outputs no longer depend
on which numpy version happens to be installed (NEP 19 does not promise
stable ``Generator`` streams across versions).
"""

from __future__ import annotations

import hashlib
from math import copysign, exp, log1p
from operator import index

from repro.sim._ziggurat import FE, KE, WE

_M32 = 0xFFFFFFFF
_M53 = (1 << 53) - 1
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_TWO_M53 = 1.0 / 9007199254740992.0
_ZIGGURAT_EXP_R = 7.69711747013104972

# SeedSequence's hash constants (numpy/random/bit_generator.pyx); all
# arithmetic there is on uint32.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# Generator.choice(replace=False) shuffles an index range instead of
# running Floyd's algorithm above this population, when the sample is
# larger than population // _CHOICE_CUTOFF.
_CHOICE_TAIL_SHUFFLE_POP = 10000
_CHOICE_CUTOFF = 50


def _seed_sequence_state(entropy: int) -> tuple[int, int, int, int]:
    """``SeedSequence(entropy).generate_state(4, numpy.uint64)``."""
    if entropy < 0:
        raise ValueError(f"seed must be non-negative, got {entropy}")
    words = [entropy & _M32]
    entropy >>= 32
    while entropy:
        words.append(entropy & _M32)
        entropy >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        out.append(value ^ (value >> 16))
    return tuple(out[k] | (out[k + 1] << 32) for k in range(0, 8, 2))


class PCG64Stream:
    """``numpy.random.default_rng(seed)``, in pure Python.

    PCG64 is a 128-bit LCG with the XSL-RR output function.  Only the
    draws the model uses exist, each with exactly the arguments numpy
    would accept for the same result; anything else raises instead of
    quietly diverging from numpy.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_sequence_state(index(seed))
        inc = ((((i0 << 64) | i1) << 1) | 1) & _M128
        # pcg64_srandom_r: step from state 0 (giving inc), add the seed
        # state, step again.
        self._state = (((inc + ((s0 << 64) | s1)) & _M128) * _PCG_MULT
                       + inc) & _M128
        self._inc = inc
        # The upper half of the last 64-bit output, when a 32-bit draw
        # left it unused (PCG64's has_uint32/uinteger buffer).
        self._half = None

    def _next64(self) -> int:
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        hi = s >> 64
        x = hi ^ (s & _M64)
        # XSL-RR: rotate x right by the top 6 state bits.
        return ((x << 64 | x) >> (hi >> 58)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        n = self._next64()
        self._half = n >> 32
        return n & _M32

    def _bounded(self, rng: int) -> int:
        """A uniform integer in ``[0, rng]`` (numpy's
        ``random_bounded_uint64`` with Lemire's rejection method)."""
        if rng == 0:
            return 0
        if rng < _M32:
            excl = rng + 1
            m = self._next32() * excl
            if (m & _M32) < excl:
                threshold = (_M32 - rng) % excl
                while (m & _M32) < threshold:
                    m = self._next32() * excl
            return m >> 32
        if rng == _M32:
            return self._next32()
        if rng == _M64:
            return self._next64()
        excl = rng + 1
        m = self._next64() * excl
        if (m & _M64) < excl:
            threshold = (_M64 - rng) % excl
            while (m & _M64) < threshold:
                m = self._next64() * excl
        return m >> 64

    def random(self) -> float:
        """A float in ``[0, 1)``: the top 53 output bits, scaled.

        The hot draw, so ``_next64`` is inlined, with the rotation and
        the ``>> 11`` folded into one shift.
        """
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        hi = s >> 64
        x = hi ^ (s & _M64)
        return (((x << 64 | x) >> ((hi >> 58) + 11)) & _M53) * _TWO_M53

    def uniform(self, low: float, high: float) -> float:
        """A float in ``[low, high)``."""
        low = float(low)
        scale = float(high) - low
        if scale - scale != 0.0:  # inf or NaN
            raise OverflowError(f"uniform range {low}..{high} is not finite")
        if copysign(1.0, scale) < 0:
            raise ValueError(
                f"uniform needs high - low >= 0, got {low}..{high}")
        return low + scale * self.random()

    def integers(self, low: int, high: int | None = None,
                 size: int | None = None) -> int | list[int]:
        """An int in ``[low, high)`` (``[0, low)`` when ``high`` is None);
        a list of ``size`` of them when ``size`` is given."""
        if high is None:
            low, high = 0, low
        low = index(low)
        high = index(high) - 1
        if low < -(1 << 63) or high > (1 << 63) - 1:
            raise ValueError(f"integers bounds {low}..{high + 1} exceed int64")
        if low > high:
            raise ValueError(
                f"integers needs low < high, got {low}, {high + 1}")
        rng = high - low
        if size is None:
            return low + self._bounded(rng)
        size = index(size)
        if size < 0:
            raise ValueError(f"negative size {size}")
        bounded = self._bounded
        return [low + bounded(rng) for _ in range(size)]

    def exponential(self, scale: float) -> float:
        """An exponential variate of mean ``scale`` (numpy's ziggurat)."""
        scale = float(scale)
        if scale != scale or copysign(1.0, scale) < 0:
            raise ValueError(f"exponential scale must be >= 0, got {scale}")
        while True:
            ri = self._next64() >> 3
            idx = ri & 0xFF
            ri >>= 8
            x = ri * WE[idx]
            if ri < KE[idx]:
                return scale * x
            if idx == 0:
                # The tail: 1 - U avoids log(0).
                return scale * (_ZIGGURAT_EXP_R - log1p(-self.random()))
            if (FE[idx - 1] - FE[idx]) * self.random() + FE[idx] < exp(-x):
                return scale * x

    def choice(self, a: int, size: int, replace: bool = True) -> list[int]:
        """``size`` distinct ints from ``range(a)`` (``replace=False``)."""
        if replace:
            raise NotImplementedError("only choice(a, size, replace=False)")
        pop = index(a)
        size = index(size)
        if size < 0:
            raise ValueError(f"negative size {size}")
        if pop <= 0 and size:
            raise ValueError("a must be a positive integer unless no "
                             "samples are taken")
        if size > pop:
            raise ValueError(f"cannot take {size} distinct samples from {pop}")
        if (pop > _CHOICE_TAIL_SHUFFLE_POP
                and size > pop // _CHOICE_CUTOFF):
            picks = list(range(pop))
            self._shuffle(picks, max(pop - size, 1))
            return picks[pop - size:]
        # Floyd's algorithm, then a full shuffle of the picks.
        picks = []
        taken = set()
        for j in range(pop - size, pop):
            val = self._bounded(j)
            if val in taken:
                val = j
            taken.add(val)
            picks.append(val)
        self._shuffle(picks, 1)
        return picks

    def _shuffle(self, data: list[int], first: int) -> None:
        """numpy's ``_shuffle_int``: Fisher-Yates over positions
        ``len(data) - 1`` down to ``first``."""
        bounded = self._bounded
        for i in range(len(data) - 1, first - 1, -1):
            j = bounded(i)
            data[i], data[j] = data[j], data[i]


def _substream_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """A factory of independent, reproducibly seeded RNGs."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: dict[str, PCG64Stream] = {}

    def stream(self, name: str) -> PCG64Stream:
        """The generator for ``name`` (created on first use, then cached)."""
        gen = self._streams.get(name)
        if gen is None:
            gen = PCG64Stream(_substream_seed(self.seed, name))
            self._streams[name] = gen
        return gen

    def fork(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of the parent's."""
        return RandomStreams(_substream_seed(self.seed, f"fork:{name}"))
