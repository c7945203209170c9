"""``PCG64Stream`` against numpy's ``default_rng``, draw for draw.

numpy is the oracle here and nowhere else: the run path uses the
pure-Python port only.  Each method is checked on at least 10**5 draws
over 20+ seeds, half of them real ``_substream_seed`` outputs, and on
mixed-method sequences that cross PCG64's buffered 32-bit half-word.
Run on every supported Python, this is also what shows the platform's
``math.exp`` / ``math.log1p`` agree with the ones numpy was built with.
"""

from __future__ import annotations

import pytest

from repro.sim import rand
from repro.sim.rand import PCG64Stream, _seed_sequence_state, _substream_seed
from tests.sim.test_trace_rand import DRAW_DIGEST, draw_digest

np = pytest.importorskip("numpy")

SEEDS = ([0, 1, 3, 17, 2**32 - 1, 2**32, 2**64 - 1, 2**127 + 5, 2**200 + 3,
          123456789]
         + [_substream_seed(root, name) for root in (0, 3, 17)
            for name in ("control-ethernet", "faults:sram:0",
                         "chaos-failstop", "fork:faults")])
DRAWS = 100_000
PER_SEED = DRAWS // len(SEEDS) + 1


def test_enough_seeds():
    assert len(SEEDS) >= 20


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_sequence_and_pcg64_state(seed):
    expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    assert _seed_sequence_state(seed) == tuple(int(v) for v in expected)
    bitgen = np.random.PCG64(seed).state["state"]
    ours = PCG64Stream(seed)
    assert (ours._state, ours._inc) == (bitgen["state"], bitgen["inc"])


def test_random():
    for seed in SEEDS:
        ours = PCG64Stream(seed)
        assert ([ours.random() for _ in range(PER_SEED)]
                == np.random.default_rng(seed).random(PER_SEED).tolist())


def test_uniform():
    for k, seed in enumerate(SEEDS):
        low, high = -3.5 * k, 1e-6 + 2.0 ** k
        ours = PCG64Stream(seed)
        theirs = np.random.default_rng(seed).uniform(low, high, PER_SEED)
        assert [ours.uniform(low, high)
                for _ in range(PER_SEED)] == theirs.tolist()


@pytest.mark.parametrize("low, high", [
    (7, None), (0, 2), (-5, 1000), (0, 2**32 - 1), (0, 2**32),
    (0, 2**32 + 1), (-(2**40), 2**50), (-(2**63), 2**63 - 1), (4, 5)])
def test_integers(low, high):
    """Bounds on both sides of the 32-bit and 64-bit Lemire paths."""
    n = PER_SEED
    for seed in SEEDS:
        ours = PCG64Stream(seed)
        theirs = np.random.default_rng(seed).integers(low, high, n).tolist()
        assert [ours.integers(low, high) for _ in range(n // 2)] \
            + ours.integers(low, high, n - n // 2) == theirs


def test_exponential_hits_tail_and_wedge(monkeypatch):
    calls = {"log1p": 0, "exp": 0}

    def counted(name, fn):
        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    monkeypatch.setattr(rand, "log1p", counted("log1p", rand.log1p))
    monkeypatch.setattr(rand, "exp", counted("exp", rand.exp))
    per_seed = 15_000
    for seed in SEEDS:
        ours = PCG64Stream(seed)
        theirs = np.random.default_rng(seed).exponential(2.5, per_seed)
        assert [ours.exponential(2.5)
                for _ in range(per_seed)] == theirs.tolist()
    assert calls["log1p"] > 0  # the tail beyond r (idx == 0)
    assert calls["exp"] > 0    # the wedge test outside the rectangles


@pytest.mark.parametrize("pop, size", [
    (1, 1), (5, 0), (10, 3), (10, 10), (40, 37), (10_000, 400),
    (20_000, 400), (20_000, 401), (30_000, 30_000)])
def test_choice_without_replacement(pop, size):
    """Floyd's algorithm up to the cutoff (``(20_000, 400)`` sits on
    it), numpy's tail shuffle of an index range above it; >= 10**5
    samples per shape, bar the two degenerate ones."""
    calls = -(-DRAWS // (len(SEEDS) * size)) if size > 1 else 20
    for seed in SEEDS:
        ours = PCG64Stream(seed)
        theirs = np.random.default_rng(seed)
        for _ in range(calls):
            assert ours.choice(pop, size, replace=False) \
                == theirs.choice(pop, size=size, replace=False).tolist()


def _mixed_ops(gen, seed, n):
    """Every draw kind, interleaved so 32-bit halves straddle them."""
    out = []
    for k in range(n):
        m = (k * 7 + seed) % 6
        if m == 0:
            out.append(gen.random())
        elif m == 1:
            out.append(gen.uniform(0.0, 3e-6))
        elif m == 2:
            out.append(gen.integers(k % 97 + 1))
        elif m == 3:
            out.append(gen.exponential(0.125))
        elif m == 4:
            out.append(gen.integers(0, 2**33, 3))
        else:
            out.append(gen.choice(k % 23 + 3, k % 4, replace=False))
    return out


def _plain(values):
    return [v.tolist() if hasattr(v, "tolist") else v for v in values]


def test_mixed_interleavings():
    n = DRAWS // len(SEEDS)
    for seed in SEEDS:
        assert _mixed_ops(PCG64Stream(seed), seed, n) == _plain(
            _mixed_ops(np.random.default_rng(seed), seed, n))


def test_pinned_digest_is_numpys():
    """The numpy-free digest test pins what numpy itself draws."""
    assert draw_digest(np.random.default_rng(2026)) == DRAW_DIGEST
