"""Known answers and a per-element oracle for the xoshiro256++ generator.

The array methods must reproduce, bit for bit, the stream of the plain
per-element loop on ``next_u64``; the oracle below keeps that loop.  The
pinned digests fix the parameter init and the synthetic data for seed 0.
"""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from aukit import dataset, rng
from aukit.model import init_attention_entries, init_relation_entries
from aukit.rng import Xoshiro256pp, _splitmix64_step, derive_seed

SHAPES = [(), (0,), (1,), (2,), (3,), (7, 5), (4097,), (70_001,)]


# ---------------------------------------------------------------------------
# The per-element oracle
# ---------------------------------------------------------------------------


def oracle_uniform(gen, low, high):
    return low + (high - low) * gen.random()


def oracle_normal(gen):
    """Box-Muller on consecutive draws; the sine half waits as a spare."""
    if gen._gauss_spare is not None:
        z = gen._gauss_spare
        gen._gauss_spare = None
        return z
    u1 = 1.0 - gen.random()
    u2 = gen.random()
    r = math.sqrt(-2.0 * math.log(u1))
    theta = 2.0 * math.pi * u2
    gen._gauss_spare = r * math.sin(theta)
    return r * math.cos(theta)


def oracle_array(draw, shape):
    n = int(np.prod(shape)) if shape else 1
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        out[i] = draw()
    return out.reshape(shape)


def oracle_uniform_array(gen, shape, low, high):
    return oracle_array(lambda: oracle_uniform(gen, low, high), shape)


def oracle_normal_array(gen, shape):
    return oracle_array(lambda: oracle_normal(gen), shape)


def pair(seed):
    return Xoshiro256pp(seed), Xoshiro256pp(seed)


def assert_same(fast_out, slow_out, fast, slow):
    assert fast_out.shape == slow_out.shape
    assert fast_out.dtype == np.float64
    assert fast_out.tobytes() == slow_out.tobytes()
    assert fast._s == slow._s
    assert all(type(word) is int for word in fast._s)
    if slow._gauss_spare is None:
        assert fast._gauss_spare is None
    else:
        assert fast._gauss_spare == slow._gauss_spare
        assert type(fast._gauss_spare) is float


# ---------------------------------------------------------------------------
# Known answers
# ---------------------------------------------------------------------------


def test_splitmix64_known_answer():
    assert _splitmix64_step(0) == (0x9E3779B97F4A7C15, 0xE220A8397B1DCDAF)


def test_xoshiro256pp_known_answer():
    gen = Xoshiro256pp(0)
    gen._s = [1, 2, 3, 4]
    assert [gen.next_u64() for _ in range(3)] == [41943041, 58720359, 3588806011781223]


def test_seeding_fills_state_from_splitmix64():
    x, words = 7, []
    for _ in range(4):
        x, out = _splitmix64_step(x)
        words.append(out)
    assert Xoshiro256pp(7)._s == words


def test_random_has_53_bits():
    gen, ref = pair(3)
    for _ in range(100):
        u = gen.random()
        assert u == (ref.next_u64() >> 11) * 2.0 ** -53
        assert 0.0 <= u < 1.0


def test_derive_seed_depends_on_every_tag():
    seeds = {derive_seed(0), derive_seed(0, 1), derive_seed(0, 2), derive_seed(0, 1, 0),
             derive_seed(1, 1)}
    assert len(seeds) == 5
    assert derive_seed(5, 3, 4) == derive_seed(5, 3, 4)


# ---------------------------------------------------------------------------
# Array methods against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
def test_uniform_array_matches_oracle(shape):
    fast, slow = pair(11)
    out = fast.uniform_array(shape, -0.25, 0.75)
    assert_same(out, oracle_uniform_array(slow, shape, -0.25, 0.75), fast, slow)


@pytest.mark.parametrize("spare", [False, True])
@pytest.mark.parametrize("shape", SHAPES)
def test_normal_array_matches_oracle(shape, spare):
    fast, slow = pair(12)
    if spare:
        assert fast.normal_array((1,))[0] == oracle_normal(slow)
        assert fast._gauss_spare is not None
    out = fast.normal_array(shape)
    assert_same(out, oracle_normal_array(slow, shape), fast, slow)


@pytest.mark.parametrize("shape", [(0,), (1,)])
def test_call_without_draws_leaves_state_untouched(shape):
    gen = Xoshiro256pp(13)
    gen.normal_array((1,))
    state, spare = list(gen._s), gen._gauss_spare
    gen.normal_array(shape)
    if shape == (0,):
        assert (gen._s, gen._gauss_spare) == (state, spare)
        gen.uniform_array(shape, 0.0, 1.0)
        assert (gen._s, gen._gauss_spare) == (state, spare)
    else:
        assert gen._s == state and gen._gauss_spare is None


def test_interleaved_calls_match_oracle():
    fast, slow = pair(14)
    steps = [
        ("normal", (3,)), ("random", None), ("uniform", (5, 2)), ("randint", 7),
        ("normal", (0,)), ("normal", (1,)), ("uniform", ()), ("normal", (2, 3)),
        ("shuffle", 9), ("normal", (4097,)), ("uniform", (1,)), ("normal", ()),
        ("fork", 3), ("uniform", (70_001,)), ("normal", (70_001,)), ("random", None),
    ]
    for kind, arg in steps:
        if kind == "normal":
            assert_same(fast.normal_array(arg), oracle_normal_array(slow, arg), fast, slow)
        elif kind == "uniform":
            got = fast.uniform_array(arg, 1.5, 2.0)
            assert_same(got, oracle_uniform_array(slow, arg, 1.5, 2.0), fast, slow)
        elif kind == "random":
            assert fast.random() == slow.random()
        elif kind == "randint":
            assert fast.randint(arg) == slow.randint(arg)
        elif kind == "shuffle":
            a, b = list(range(arg)), list(range(arg))
            fast.shuffle(a)
            slow.shuffle(b)
            assert a == b
        else:
            assert fast.fork(arg)._s == slow.fork(arg)._s
        assert fast._s == slow._s


def test_uniform_array_with_full_last_lane():
    fast, slow = pair(15)
    out = fast.uniform_array((1 << 17,), 0.0, 1.0)
    ref = np.array([slow.random() for _ in range(1 << 17)])
    assert out.tobytes() == ref.tobytes()
    assert fast._s == slow._s


def test_threads_growing_the_jump_cache_agree():
    expected = Xoshiro256pp(16).uniform_array((70_001,), 0.0, 1.0).tobytes()
    saved = list(rng._JUMPS)
    rng._JUMPS.clear()  # every thread starts by growing the cache
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def draw():
            results.append(Xoshiro256pp(16).uniform_array((70_001,), 0.0, 1.0).tobytes())

        workers = [threading.Thread(target=draw) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
        rng._JUMPS[:] = saved
    assert results == [expected] * 4


# ---------------------------------------------------------------------------
# Pinned digests: parameter init and synthetic data for seed 0
# ---------------------------------------------------------------------------


def _entries_digest(entries, skip=()):
    h = hashlib.sha256()
    for name, param in entries.items():
        if name in skip:
            continue
        data = np.ascontiguousarray(param.data, dtype="<f8")
        h.update(name.encode("utf-8"))
        h.update(repr(data.shape).encode("ascii"))
        h.update(data.tobytes())
    return h.hexdigest()


def test_paper_size_init_digest():
    stage1 = init_attention_entries(8, 12, 0)
    both = init_relation_entries(stage1, 5, 8, 0)
    assert _entries_digest(stage1) == (
        "84b8603c5b2efbd052075718c7ecc6d26ba9bd0a863a7425b14d9c75829ba74f"
    )
    assert _entries_digest(both, skip=stage1) == (
        "d0043e69496bfe83d4d9a234f1ea92b2a01517dc580a8f0ce91bdd586debb441"
    )


def test_generated_video_digest(tmp_path):
    spec = dataset.default_spec(videos=1, seed=0)
    dataset.generate(spec, tmp_path)
    frames = (tmp_path / "frames" / "v0000.stnt").read_bytes()
    labels = (tmp_path / "labels.csv").read_bytes()
    assert hashlib.sha256(frames).hexdigest() == (
        "50411fa6dcee641aa177939c96c6f8052c3a64c4bcc75510df70d4ab6434d290"
    )
    assert hashlib.sha256(labels).hexdigest() == (
        "e52cb2f3dc2f1a017a09f89b21bb1242ed9ec8e2e2b035681e7f00b061d2c550"
    )
