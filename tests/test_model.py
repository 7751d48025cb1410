"""Checkpoints are checked against the architecture their sizes imply."""

import threading

import numpy as np
import pytest

from aukit import model
from aukit import tensor as T
from aukit.backbone import attention_stage_forward, backbone_from, branch_from
from aukit.config import resolve
from aukit.errors import FormatError
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
        sizes = []

        def run():  # a fresh thread starts without a buffer
            for t in (8, 64):
                model.attention_predict(entries, frames[:t])
                sizes.append(T._SCRATCH.buf.size)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert len(sizes) == 2 and sizes[0] == sizes[1] > 0
