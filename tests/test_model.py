"""Checkpoints are checked against the architecture their sizes imply."""

import numpy as np
import pytest

from aukit import model
from aukit.config import resolve
from aukit.errors import FormatError
from aukit.graph import build_graph
from aukit.serialize import load_checkpoint, save_checkpoint


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
