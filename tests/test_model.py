"""Checkpoints are checked against the architecture their sizes imply."""

import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import InlineExecutor, names_read, stage1_convs

from aukit import model
from aukit import tensor as T
from aukit.backbone import attention_stage_forward, backbone_from, branch_from
from aukit.config import resolve
from aukit.errors import ConfigError, FormatError, ShapeError
from aukit.graph import build_graph
from aukit.serialize import load_checkpoint, save_checkpoint
from aukit.stgcn import head_from, stgcn_forward, stgcn_from


def toy_relation_entries(seed=0):
    hp = resolve("toy")
    stage1 = model.init_attention_entries(hp.c, hp.m, seed)
    return model.init_relation_entries(stage1, t_k=3, depth=2, seed=seed)


def edited(path, tmp_path, edit):
    """A copy of the checkpoint at ``path`` with ``edit`` applied to its arrays."""
    arrays = load_checkpoint(path)
    edit(arrays)
    out = tmp_path / "edited.stck"
    save_checkpoint(out, arrays)
    return out


@pytest.fixture(scope="module")
def toy_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "toy.stck"
    labels = (np.random.default_rng(0).random((40, 4)) < 0.5).astype(float)
    model.save_model(path, model.embed_graph(toy_relation_entries(), build_graph(labels, 0.1)))
    return path


class TestEntryShapes:
    @pytest.mark.parametrize(
        "make", [toy_relation_entries, lambda: model.init_attention_entries(1, 3, seed=0)],
        ids=["relation", "stage1"],
    )
    def test_matches_fresh_entries(self, make):
        entries = make()
        shapes = model.entry_shapes(model.model_dims(entries))
        assert list(shapes.items()) == [(name, t.shape) for name, t in entries.items()]

    @pytest.mark.parametrize("preset", ["toy", "paper"])
    def test_readers_read_every_entry_once(self, preset):
        # The readers and the table are the two places that know entry names.
        hp = resolve(preset)
        dims = model.ModelDims(c=hp.c, m=hp.m, depth=hp.depth, t_k=hp.t_k)

        def read_all(entries):
            backbone_from(entries)
            for j in range(1, dims.m + 1):
                branch_from(entries, j)
            stgcn_from(entries, dims.depth)
            head_from(entries, dims.m)

        names = names_read(read_all, model.entry_shapes(dims))
        assert sorted(names) == sorted(model.entry_shapes(dims))

    def test_relation_init_needs_a_layer(self):
        # At depth 0 the table holds no heads, and a checkpoint no graph stack.
        with pytest.raises(ConfigError):
            model.init_relation_entries(model.init_attention_entries(1, 2, 0), 3, 0, 0)


class TestLoadModel:
    def test_valid_checkpoint_loads(self, toy_ckpt):
        entries = model.load_model(toy_ckpt)
        assert model.extract_graph(entries) is not None

    @pytest.mark.parametrize("name", ["branch.2.feat.kernels", "backbone.layer2.stage2.bias",
                                      "gst.2.edge.3", "head.4.bias"])
    def test_missing_entry_rejected(self, toy_ckpt, tmp_path, name):
        path = edited(toy_ckpt, tmp_path, lambda arrays: arrays.pop(name))
        with pytest.raises(FormatError, match=name):
            model.load_model(path)

    def test_misshaped_entry_rejected(self, toy_ckpt, tmp_path):
        def narrow(arrays):
            arrays["branch.3.feat.kernels"] = np.zeros((16, 16, 3, 5))

        with pytest.raises(FormatError, match="branch.3.feat.kernels"):
            model.load_model(edited(toy_ckpt, tmp_path, narrow))

    def test_unknown_entry_rejected(self, toy_ckpt, tmp_path):
        def extra(arrays):
            arrays["branch.1.extra"] = np.zeros(3)

        with pytest.raises(FormatError, match="branch.1.extra"):
            model.load_model(edited(toy_ckpt, tmp_path, extra))

    def test_later_branches_of_a_dropped_one_are_unknown(self, toy_ckpt, tmp_path):
        # Without branch.2.att.kernels the sizes say one branch: 2..4 are extra.
        path = edited(toy_ckpt, tmp_path, lambda arrays: arrays.pop("branch.2.att.kernels"))
        with pytest.raises(FormatError, match="branch.2"):
            model.load_model(path)

    def test_malformed_size_entries_rejected(self, toy_ckpt, tmp_path):
        for name in ("backbone.layer1.input.kernels", "gst.1.phi2.kernels"):
            path = edited(toy_ckpt, tmp_path, lambda arrays: arrays.update({name: np.zeros(3)}))
            with pytest.raises(FormatError, match=name):
                model.load_model(path)


class TestStageForwards:
    """The entry-built forwards equal the passes assembled by hand, bitwise."""

    def test_stage1_forward(self):
        entries = toy_relation_entries()
        frames = T.Tensor(np.random.default_rng(1).standard_normal((3, 3, 32, 32)))
        branches = [branch_from(entries, j) for j in range(1, 5)]
        expected = attention_stage_forward(frames, backbone_from(entries), branches)
        for got, want in zip(model.stage1_forward(entries, frames), expected):
            assert got.data.tobytes() == want.data.tobytes()

    def test_stage2_forward(self):
        entries = toy_relation_entries()
        for name in entries:  # a fresh stack is the identity; move it off
            if name.startswith("gst."):
                entries[name] = T.Tensor(entries[name].data + 0.01)
        labels = (np.random.default_rng(0).random((40, 4)) < 0.5).astype(float)
        graph = build_graph(labels, 0.1)
        f0 = T.Tensor(np.random.default_rng(2).standard_normal((2, 16, 8, 4)))
        expected = stgcn_forward(f0, graph, stgcn_from(entries, 2), head_from(entries, 4),
                                 expected_layers=2)
        assert model.stage2_forward(entries, graph, f0).data.tobytes() == expected.data.tobytes()


def moved_off_identity(entries):
    """The entries with the graph stack moved off its identity init."""
    rng = np.random.default_rng(3)
    return {name: T.Tensor(t.data + 0.05 * rng.standard_normal(t.shape))
            if name.startswith("gst.") else t for name, t in entries.items()}


def stage1_digest(frames_n, size, c, m, seed):
    """SHA-256 over ``stage1_forward``'s outputs, then the gradients of a fixed
    weighting of them for every stage-1 entry (in entry order) and the frames."""
    entries = model.init_attention_entries(c, m, seed)
    rng = np.random.default_rng(seed)
    frames = T.Tensor(rng.standard_normal((frames_n, 3, size, size)), requires_grad=True)
    with T.Tape() as tape:
        outs = model.stage1_forward(entries, frames)
        loss = T.sum_all(T.mul(outs[0], T.Tensor(rng.standard_normal(outs[0].shape))))
        for out in outs[1:]:
            loss = T.add(loss, T.sum_all(T.mul(out, T.Tensor(rng.standard_normal(out.shape)))))
    tape.backward(loss)
    digest = hashlib.sha256()
    for array in [out.data for out in outs] + [
            tape.grad(t) for t in [*model.stage1_entries(entries).values(), frames]]:
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_stage1_bytes_are_pinned():
    # 2 frames of 64 px at c=8, m=12: every per-patch convolution splits, and
    # so do the whole-map convolutions, such as layer 2's input convolution
    # (64 x 32*9 x 32*32*2 = 37.7M multiply-adds); the GEMMs are below the
    # size at which BLAS threads change the bytes.
    assert T.SPLIT_MACS <= 32 * 32 * 9 * 64 * 64 * 2  # a layer-1 per-patch convolution
    assert T.SPLIT_MACS <= 64 * 32 * 9 * 32 * 32 * 2  # layer 2's input convolution
    # Every kind of block runs: a grid-8 row of layer 2's windows (8 patches
    # x 64*9 x 4*4*2) fits a block, so its blocks are whole rows, and one of
    # layer 1's (8 x 32*9 x 8*8*2) does not, so its blocks are runs of
    # patches; the dx windows of layer 2's input convolution (64*9 x
    # 32*32*2 = 1,179,648 values) do not fit one block, so they run in bands.
    assert 8 * 64 * 9 * 4 * 4 * 2 <= T.BLOCK_VALUES < 8 * 32 * 9 * 8 * 8 * 2
    assert T.BLOCK_VALUES < 64 * 9 * 32 * 32 * 2
    assert len(T._conv_blocks(1, 32, 64, (3, 3), (32, 32, 2), (1, 1))[1]) > 1
    assert stage1_digest(2, 64, c=8, m=12, seed=5) == (
        "9c8d4558ff35bdc54bf07203650f63ac51a436ecfcdf995ea625a71797fc002c")


def test_stage1_bytes_are_pinned_at_176_px():
    # One frame of the paper's 176 px at c=8, m=12, where the whole-map
    # convolutions and the grid-2 patches run in bands and row blocks.  GEMMs
    # this large give other bytes under two BLAS threads, so it runs in a
    # process with one, as the program does.  Digest computed before blocks
    # cut within a patch.
    tests = os.path.dirname(os.path.abspath(__file__))
    probe = (f"import sys; sys.path.insert(0, {tests!r}); from test_model import stage1_digest; "
             "print(stage1_digest(1, 176, c=8, m=12, seed=5))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(T.__file__)),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "cdb0aa223159b5e8c2d16670767340155a628fdd78423b86f33fe07b2251dcff")


def test_scratch_buffers_stay_within_four_blocks(monkeypatch):
    # A forward and backward of 2 frames of 64 px at c=8, m=12 with every
    # convolution split: both threads' window buffers, from empty, stay
    # within 4 * BLOCK_VALUES (a whole-map window matrix here is up to
    # 1,179,648 values).
    monkeypatch.setattr(T, "SPLIT_MACS", 0)
    entries = model.init_attention_entries(8, 12, 5)
    frames = T.Tensor(np.random.default_rng(5).standard_normal((2, 3, 64, 64)),
                      requires_grad=True)
    worker = T._POOL
    worker.submit(setattr, T._SCRATCH, "buf", None).result(timeout=60)
    sizes = []

    def run():  # a fresh thread starts without a buffer
        with T.Tape() as tape:
            loss = T.sum_all(model.stage1_forward(entries, frames)[1])
        tape.backward(loss)
        assert tape.grad(frames).shape == frames.shape
        sizes.extend([T._SCRATCH.buf.size, worker.submit(
            lambda: T._SCRATCH.buf.size).result(timeout=60)])

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert len(sizes) == 2 and max(sizes) <= 4 * T.BLOCK_VALUES


class TestBatchIndependence:
    """Frames and sequences sit side by side in one batch-last array inside
    the forwards: each must come out as if run alone."""

    def test_stage1_on_five_frames_is_two_plus_three(self):
        entries = toy_relation_entries(seed=4)
        frames = np.random.default_rng(5).standard_normal((5, 3, 32, 32))
        whole = model.stage1_forward(entries, T.Tensor(frames))
        first = model.stage1_forward(entries, T.Tensor(frames[:2]))
        rest = model.stage1_forward(entries, T.Tensor(frames[2:]))
        for got, a, b in zip(whole, first, rest):
            assert np.abs(got.data - np.concatenate([a.data, b.data])).max() < 1e-12

    def test_stgcn_on_three_sequences_is_each_run_alone(self):
        entries = moved_off_identity(toy_relation_entries(seed=6))
        labels = (np.random.default_rng(7).random((40, 4)) < 0.5).astype(float)
        graph = build_graph(labels, 0.1)
        layers, head = stgcn_from(entries, 2), head_from(entries, 4)
        f0 = np.random.default_rng(8).standard_normal((3, 16, 6, 4))
        batched = stgcn_forward(T.Tensor(f0), graph, layers, head, expected_layers=2).data
        assert batched.shape == (3, 6, 4)
        for b in range(3):
            for seq in (f0[b:b + 1], f0[b]):  # a batch of one and the unbatched form
                alone = stgcn_forward(T.Tensor(seq), graph, layers, head, expected_layers=2)
                assert np.abs(batched[b] - alone.data.reshape(6, 4)).max() < 1e-12


class TestAttentionMaps:
    def test_maps_are_per_frame_and_frames_first(self):
        entries = toy_relation_entries(seed=9)
        frames = np.random.default_rng(10).standard_normal((3, 3, 32, 32))
        maps, feats, probs = model.attention_predict(entries, frames)
        assert maps.shape == (3, 4, 8, 8)  # (t, m, h/4, w/4)
        assert feats.shape == (3, 4, 16) and probs.shape == (3, 4)
        for i in range(3):
            alone = model.attention_predict(entries, frames[i:i + 1])
            for got, want in zip((maps, feats, probs), alone):
                assert np.abs(got[i] - want[0]).max() < 1e-12


class TestFramesPerPass:
    """``attention_predict`` runs stage 1 on at most FRAMES_PER_PASS frames at
    once; every chunk boundary must leave the per-frame results unchanged."""

    @pytest.fixture(scope="class")
    def per_frame(self):
        entries = toy_relation_entries(seed=12)
        frames = np.random.default_rng(13).standard_normal((32, 3, 32, 32))
        alone = [model.attention_predict(entries, frames[i:i + 1]) for i in range(32)]
        return entries, frames, [np.concatenate([a[k] for a in alone]) for k in range(3)]

    @pytest.mark.parametrize("t", [0, 1, 7, 8, 9, 13, 32])
    def test_matches_per_frame_predictions(self, per_frame, t):
        entries, frames, expected = per_frame
        got = model.attention_predict(entries, frames[:t])
        for g, want in zip(got, expected):
            assert g.shape == want[:t].shape
            assert t == 0 or np.abs(g - want[:t]).max() < 1e-12

    def test_zero_frames_keep_empty_shapes(self, per_frame):
        entries, frames, _ = per_frame
        got = model.attention_predict(entries, frames[:0])
        assert [g.shape for g in got] == [(0, 4, 8, 8), (0, 4, 16), (0, 4)]

    def test_scratch_buffer_stops_growing_after_one_pass(self):
        entries = toy_relation_entries(seed=14)
        frames = np.random.default_rng(15).standard_normal((64, 3, 32, 32))
        worker = T._POOL
        worker.submit(setattr, T._SCRATCH, "buf", None).result(timeout=60)
        sizes = []

        def run():  # a fresh thread starts without a buffer
            for t in (8, 64):
                model.attention_predict(entries, frames[:t])
                sizes.append((T._SCRATCH.buf.size, worker.submit(
                    lambda: T._SCRATCH.buf.size).result(timeout=60)))

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert len(sizes) == 2 and sizes[0] == sizes[1] and min(sizes[0]) > 0


def serial_passes(entries, frames):
    """The oracle: ``stage1_forward`` on consecutive SERVING_PASS-frame slices, in order."""
    parts = [model.stage1_forward(entries, T.Tensor(frames[i:i + model.SERVING_PASS]))
             for i in range(0, max(len(frames), 1), model.SERVING_PASS)]
    return [np.concatenate([part[k].data for part in parts]) for k in range(3)]


class TestServingThreads:
    """``attention_predict`` runs the first half of its passes on the calling
    thread and the second half on a worker: the bytes must not depend on
    which thread ran what."""

    @pytest.fixture(scope="class")
    def video(self):
        entries = toy_relation_entries(seed=16)
        return entries, np.random.default_rng(17).standard_normal((32, 3, 32, 32))

    def test_serving_pass_is_half_the_frames_in_flight(self):
        assert model.SERVING_PASS == 4 and 2 * model.SERVING_PASS == model.FRAMES_PER_PASS

    @pytest.mark.parametrize("worker", ["thread", "inline"])
    @pytest.mark.parametrize("t", [0, 1, 3, 4, 5, 8, 9, 13, 32])
    def test_equals_serial_passes_bitwise(self, video, monkeypatch, worker, t):
        entries, frames = video
        if worker == "inline":
            monkeypatch.setattr(T, "_POOL", InlineExecutor())
        got = model.attention_predict(entries, frames[:t])
        for g, want in zip(got, serial_passes(entries, frames[:t])):
            assert g.shape == want.shape and g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("split", [False, True])
    def test_concurrent_callers_get_the_bytes_of_calls_in_turn(self, video, monkeypatch, split):
        entries, frames = video
        videos = [frames[i:i + 9 + i] for i in range(5)]  # 9..13 frames, more callers than cores
        in_turn = [model.attention_predict(entries, v) for v in videos]
        if split:  # each caller's lone last pass hands convolution halves to the one worker
            monkeypatch.setattr(T, "SPLIT_MACS", 0)
        results = [None] * len(videos)

        def predict(i):
            results[i] = model.attention_predict(entries, videos[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=predict, args=(i,)) for i in range(len(videos))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, in_turn):
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("failing", [0, 1, 2, 3])
    def test_failed_pass_raises_once_no_pass_runs(self, video, monkeypatch, failing):
        entries, frames = video
        # The first half, passes 0 and 1, on the caller; the second half, 2 and 3, on the worker.
        frames = frames[:4 * model.SERVING_PASS]
        firsts = frames[::model.SERVING_PASS, 0, 0, 0]
        original, lock = model.stage1_forward, threading.Lock()
        live, started, raised = [0], [], []

        class PassFailed(Exception):
            pass

        def counting(entries, x):
            index = int(np.flatnonzero(firsts == x.data[0, 0, 0, 0])[0])
            with lock:
                live[0] += 1
                started.append(index)
            try:
                time.sleep(0.05 if index == failing else 0.3)  # others outlast the failure
                if index == failing:
                    raised.append(PassFailed(index))
                    raise raised[-1]
                return original(entries, x)
            finally:
                with lock:
                    live[0] -= 1

        monkeypatch.setattr(model, "stage1_forward", counting)
        with pytest.raises(PassFailed) as exc:
            model.attention_predict(entries, frames)
        assert exc.value is raised[0] and live[0] == 0
        count = len(started)
        T._POOL.submit(int).result(timeout=60)  # after every pass queued before it
        assert live[0] == 0 and len(started) == count  # no cancelled pass started later

    @pytest.mark.parametrize("worker", ["thread", "inline"])
    @pytest.mark.parametrize("t", [3, 9, 13, 17])
    def test_split_convolutions_finish_and_keep_the_bytes(self, video, monkeypatch, worker, t):
        # With every convolution large enough to split and cut into its
        # fewest-row blocks, a pass on the caller splits only while no pass
        # of its call runs on the worker: a lone pass (t=3) and the last of
        # an odd count (t=9, 17) do.  Only convolution halves are counted,
        # not the serving passes' own.
        entries, frames = video
        monkeypatch.setattr(T, "SPLIT_MACS", math.inf)
        want = serial_passes(entries, frames[:t])
        monkeypatch.setattr(T, "SPLIT_MACS", 0)
        monkeypatch.setattr(T, "BLOCK_VALUES", 1)
        lone = 3 if t == 3 else 1  # the frames of the pass that splits
        splits = sum(len(T._conv_blocks(g, ci, co, k, patch, pad)[0]) > 1
                     for _, g, ci, co, k, patch, pad in stage1_convs(2, 4, 32, lone))
        if worker == "inline":
            monkeypatch.setattr(T, "_POOL", InlineExecutor())
        halves, submit = [], T.submit
        monkeypatch.setattr(T, "submit", lambda fn, *args: (
            halves.append(args) if fn.__module__ == T.__name__ else None) or submit(fn, *args))
        got = []
        thread = threading.Thread(target=lambda: got.extend(model.attention_predict(
            entries, frames[:t])))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert splits > 0 and len(halves) == (0 if t == 13 else splits)  # forwards only

    def test_bad_frame_size_is_a_shape_error(self, video):
        entries, _ = video
        frames = np.zeros((2 * model.SERVING_PASS, 3, 40, 40))
        with pytest.raises(ShapeError):
            model.attention_predict(entries, frames)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="processes cannot fork here")
    def test_forked_child_predicts(self, video):
        entries, frames = video
        want = model.attention_predict(entries, frames[:8])[2]  # the parent's worker is up
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=lambda: queue.put(
            model.attention_predict(entries, frames[:8])[2].tobytes()))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
        assert not child.is_alive() and child.exitcode == 0
        assert got == want.tobytes()
