import numpy as np
import pytest

from conftest import names_read

from aukit import backbone as B
from aukit import tensor as T
from aukit.config import PRESETS, resolve
from aukit.errors import ShapeError
from aukit.losses import attention_stage_loss
from aukit.model import init_attention_entries


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def fresh_backbone(c, seed):
    return B.backbone_from(init_attention_entries(c, 1, seed))


def fresh_region_layer(seed):
    """The first region layer of a c=2 backbone: 3 -> 8 channels."""
    return fresh_backbone(2, seed).layer1


def tiled_bank(kernels, bias, patches):
    """A per-patch bank using the same kernels in every patch cell."""
    k = np.broadcast_to(kernels, (patches,) + kernels.shape).copy()
    b = np.broadcast_to(bias, (patches,) + bias.shape).copy()
    return B.ConvParams(T.Tensor(k), T.Tensor(b))


def identity_bank(patches, channels, scales=None):
    """1x1 per-patch kernels that copy every channel, patch p scaled by scales[p]."""
    scales = np.ones(patches) if scales is None else np.asarray(scales, dtype=float)
    k = scales[:, None, None] * np.eye(channels)[None]
    return T.Tensor(k[..., None, None]), T.Tensor(np.zeros((patches, channels)))


class TestPatchSplitting:
    """conv2d_per_patch cuts its map into a row-major grid and pastes back."""

    def test_round_trip(self):
        x = T.Tensor(rand((5, 16, 16, 1)))
        out = T.conv2d_per_patch(x, *identity_bank(16, 5), padding=(0, 0))
        assert np.array_equal(out.data, x.data)

    def test_round_trip_batched(self):
        x = T.Tensor(rand((5, 8, 8, 3)))
        out = T.conv2d_per_patch(x, *identity_bank(4, 5), padding=(0, 0))
        assert np.array_equal(out.data, x.data)

    def test_patch_contents_row_major(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        kernels, bias = identity_bank(4, 1, scales=[1.0, 10.0, 100.0, 1000.0])
        out = T.conv2d_per_patch(T.Tensor(x), kernels, bias, padding=(0, 0)).data[0, :, :, 0]
        assert np.array_equal(out[:2, :2], [[0, 1], [4, 5]])            # patch 0
        assert np.array_equal(out[:2, 2:], [[20, 30], [60, 70]])        # patch 1
        assert np.array_equal(out[2:, :2], [[800, 900], [1200, 1300]])  # patch 2
        assert np.array_equal(out[2:, 2:], 1000 * x[0, 2:, 2:, 0])      # patch 3

    def test_indivisible_size_rejected(self):
        with pytest.raises(ShapeError):
            T.conv2d_per_patch(T.Tensor(rand((1, 6, 6, 1))), *identity_bank(16, 1), padding=(0, 0))


class TestRegionLayerStage:
    def test_identical_kernels_match_full_map_conv_on_interiors(self):
        grid, size = 4, 16
        x = T.Tensor(rand((3, size, size, 1), seed=1))
        kernels = rand((5, 3, 3, 3), seed=2)
        bias = rand((5,), seed=3)

        bank = tiled_bank(kernels, bias, grid * grid)
        per_patch = T.conv2d_per_patch(x, bank.kernels, bank.bias).data[..., 0]
        full = T.conv2d(x, T.Tensor(kernels), T.Tensor(bias), padding=(1, 1)).data[..., 0]

        patch = size // grid
        interior = np.zeros((size, size), dtype=bool)
        for gy in range(grid):
            for gx in range(grid):
                interior[
                    gy * patch + 1 : (gy + 1) * patch - 1,
                    gx * patch + 1 : (gx + 1) * patch - 1,
                ] = True
        assert np.abs(per_patch[:, interior] - full[:, interior]).max() < 1e-12
        # ... and the patch borders genuinely differ (per-patch zero padding).
        assert np.abs(per_patch[:, ~interior] - full[:, ~interior]).max() > 1e-6

    def test_single_pixel_perturbation_stays_in_patch(self):
        grid, size = 4, 16
        base = rand((2, size, size, 1), seed=4)
        poked = base.copy()
        poked[1, 5, 6, 0] += 1.0  # inside patch cell (1, 1)
        bank = B.ConvParams(T.Tensor(rand((grid * grid, 3, 2, 3, 3), seed=5)),
                            T.Tensor(np.zeros((grid * grid, 3))))

        def stage(x):
            return T.conv2d_per_patch(T.Tensor(x), bank.kernels, bank.bias).data[..., 0]

        before, after = stage(base), stage(poked)
        patch = size // grid
        touched = np.zeros((size, size), dtype=bool)
        touched[patch : 2 * patch, patch : 2 * patch] = True
        assert np.array_equal(before[:, ~touched], after[:, ~touched])
        assert not np.array_equal(before[:, touched], after[:, touched])


class TestRegionLayer:
    def test_output_shape(self):
        layer = fresh_region_layer(6)
        out = B.region_layer_forward(T.Tensor(rand((3, 16, 16, 1))), layer)
        assert out.shape == (8, 16, 16, 1)

    def test_zero_fusion_gives_zero_output(self):
        layer = fresh_region_layer(7)
        layer.fusion_conv = B.ConvParams(
            T.Tensor(np.zeros(layer.fusion_conv.kernels.shape)),
            T.Tensor(np.zeros(layer.fusion_conv.bias.shape)),
        )
        out = B.region_layer_forward(T.Tensor(rand((3, 16, 16, 1))), layer)
        assert not out.data.any()

    def test_batched_matches_per_frame(self):
        layer = fresh_region_layer(8)
        maps = rand((3, 16, 16, 3), seed=9)
        batched = B.region_layer_forward(T.Tensor(maps), layer).data
        for i in range(3):
            single = B.region_layer_forward(T.Tensor(maps[..., i : i + 1]), layer).data
            assert np.abs(batched[..., i] - single[..., 0]).max() < 1e-12

    def test_unbatched_input_rejected(self):
        layer = fresh_region_layer(8)
        with pytest.raises(ShapeError):
            B.region_layer_forward(T.Tensor(rand((3, 16, 16))), layer)

    def test_one_node_per_patch_stage(self):
        layer = fresh_region_layer(8)
        with T.Tape() as tape:
            B.region_layer_forward(T.Tensor(rand((3, 16, 16, 1))), layer)
        # input conv, three per-patch convs, concat, fusion conv: each conv
        # applies its tanh itself
        assert len(tape._nodes) == 1 + 3 + 1 + 1


class TestBackbone:
    def test_toy_output_shape(self):
        params = fresh_backbone(2, 10)
        out = B.backbone_forward(T.Tensor(rand((1, 3, 32, 32))), params)
        assert out.shape == (16, 8, 8, 1)

    def test_batched_output_shape(self):
        params = fresh_backbone(2, 11)
        out = B.backbone_forward(T.Tensor(rand((2, 3, 32, 32))), params)
        assert out.shape == (16, 8, 8, 2)  # batch-last

    def test_default_scale_shape_arithmetic(self):
        # 176 -> two pools -> 44; channels 8c = 64.  Checked symbolically;
        # the full-scale forward pass is exercised at toy sizes above.
        l, c = 176, 8
        assert (8 * c, l // 4, l // 4) == (64, 44, 44)

    def test_bad_frame_size_rejected(self):
        params = fresh_backbone(1, 12)
        with pytest.raises(ShapeError):
            B.backbone_forward(T.Tensor(rand((1, 3, 40, 40))), params)
        with pytest.raises(ShapeError):
            B.backbone_forward(T.Tensor(rand((1, 1, 32, 32))), params)
        with pytest.raises(ShapeError):  # stage 1 takes a batch only
            B.backbone_forward(T.Tensor(rand((3, 32, 32))), params)

    def test_frame_size_multiple_of_16_accepted(self):
        # 48 px: layer 2 runs the 8x8 grid on 24 px, so patches are 3 px.
        params = fresh_backbone(1, 12)
        out = B.backbone_forward(T.Tensor(rand((1, 3, 48, 48))), params)
        assert out.shape == (8, 12, 12, 1)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_resolves(self, name):
        hp = resolve(name)
        assert hp.l % B.FRAME_MULTIPLE == 0

    def test_gradient_flows_to_all_parameters(self):
        entries = init_attention_entries(1, 1, seed=13)
        x = T.Tensor(rand((1, 3, 32, 32), seed=14))
        with T.Tape() as tape:
            loss = T.sum_all(B.backbone_forward(x, B.backbone_from(entries)))
            tape.backward(loss)
        for name, tensor in entries.items():
            if not name.startswith("backbone."):
                continue
            g = tape.grad(tensor)
            assert g is not None, name
            assert g.shape == tensor.shape


class TestAttentionBranch:
    def make_feat(self, c=2, batch=1, seed=20):
        return T.Tensor(rand((8 * c, 8, 8, batch), seed=seed))

    def make_branches(self, seed, c=2, m=3):
        entries = init_attention_entries(c, m, seed)
        return [B.branch_from(entries, j) for j in range(1, m + 1)]

    def test_zero_att_conv_gives_half_maps(self):
        branches = self.make_branches(21)
        for branch in branches:
            branch.att_conv = B.ConvParams(
                T.Tensor(np.zeros(branch.att_conv.kernels.shape)),
                T.Tensor(np.zeros(branch.att_conv.bias.shape)),
            )
        m, _, _ = B.attention_branch_forward(self.make_feat(), branches)
        assert np.array_equal(m.data, np.full((1, 3, 8, 8), 0.5))

    def test_zero_feature_map_isolates_biases(self):
        branches = self.make_branches(22)
        for j, branch in enumerate(branches):
            branch.feat_conv.bias = T.Tensor(rand((16,), seed=j))
        feat = T.Tensor(np.zeros((16, 8, 8, 1)))
        m, f0, _ = B.attention_branch_forward(feat, branches)
        # att bias is zero -> M is exactly 0.5; weighted input is zero, so
        # each f0 row collapses to its own branch's feat_conv bias.
        assert np.array_equal(m.data, np.full((1, 3, 8, 8), 0.5))
        for j, branch in enumerate(branches):
            assert np.abs(f0.data[0, j] - branch.feat_conv.bias.data).max() < 1e-15

    def test_outputs_in_open_unit_interval(self):
        branches = self.make_branches(23)
        m, f0, p0 = B.attention_branch_forward(self.make_feat(seed=24), branches)
        assert m.shape == (1, 3, 8, 8) and f0.shape == (1, 3, 16) and p0.shape == (1, 3)
        assert 0.0 < m.data.min() and m.data.max() < 1.0
        assert 0.0 < p0.data.min() and p0.data.max() < 1.0

    def test_batched_matches_per_frame(self):
        branches = self.make_branches(25)
        feat = self.make_feat(batch=3, seed=26)
        m_b, f_b, p_b = B.attention_branch_forward(feat, branches)
        assert m_b.shape == (3, 3, 8, 8) and f_b.shape == (3, 3, 16) and p_b.shape == (3, 3)
        for i in range(3):
            m, f0, p0 = B.attention_branch_forward(T.Tensor(feat.data[..., i : i + 1]), branches)
            assert np.abs(m_b.data[i] - m.data[0]).max() < 1e-12
            assert np.abs(f_b.data[i] - f0.data[0]).max() < 1e-12
            assert np.abs(p_b.data[i] - p0.data[0]).max() < 1e-12

    def test_unbatched_input_rejected(self):
        branches = self.make_branches(25)
        with pytest.raises(ShapeError):
            B.attention_branch_forward(T.Tensor(rand((16, 8, 8))), branches)

    def test_gradient_matches_finite_differences(self):
        branches = self.make_branches(27, c=1, m=2)
        feat = rand((8, 8, 8, 1), seed=28)

        def f(att_kernels, feat_kernels):
            probe = list(branches)
            probe[1] = B.AttentionBranchParams(
                att_conv=B.ConvParams(att_kernels, branches[1].att_conv.bias),
                feat_conv=B.ConvParams(feat_kernels, branches[1].feat_conv.bias),
                head_weight=branches[1].head_weight,
                head_bias=branches[1].head_bias,
            )
            _, _, p0 = B.attention_branch_forward(T.Tensor(feat), probe)
            return T.sum_all(p0)

        params = [branches[1].att_conv.kernels, branches[1].feat_conv.kernels]
        err = T.grad_check(f, params, max_coords=20, seed=1)
        assert err < 1e-6


def per_branch_oracle(feat, branches):
    """One branch at a time, as the attention stage was composed before the
    branches ran as one pass: the reference the fused pass must match.

    ``feat`` is batch-last, as the convolutions take it; gating and pooling
    run frames first, as ``broadcast_mul_channelwise`` and
    ``global_avg_pool`` take them.
    """
    b = feat.shape[-1]
    frames_first = T.transpose(feat, (3, 0, 1, 2))
    maps, feats, probs = [], [], []
    for branch in branches:
        logits = T.conv2d(feat, branch.att_conv.kernels, branch.att_conv.bias, padding=(1, 1))
        m = T.transpose(T.reshape(T.sigmoid(logits), feat.shape[1:]), (2, 0, 1))  # (b, h, w)
        weighted = T.transpose(T.broadcast_mul_channelwise(m, frames_first), (1, 2, 3, 0))
        refined = T.conv2d(
            weighted, branch.feat_conv.kernels, branch.feat_conv.bias, padding=(1, 1)
        )
        f0 = T.global_avg_pool(T.transpose(refined, (3, 0, 1, 2)))
        logit = T.bias_add_row(
            T.matmul(f0, T.transpose(branch.head_weight, (1, 0))), branch.head_bias
        )
        p0 = T.sigmoid(T.reshape(logit, (b,)))
        maps.append(T.reshape(m, (b, 1) + m.shape[1:]))
        feats.append(T.reshape(f0, (b, 1, f0.shape[1])))
        probs.append(T.reshape(p0, (b, 1)))
    return T.concat(maps, axis=1), T.concat(feats, axis=1), T.concat(probs, axis=1)


def attention_step_nodes(c, m, frames):
    """Tape nodes of one attention step's forward and loss."""
    entries = init_attention_entries(c, m, seed=0)
    labels = np.zeros((frames.shape[0], m))
    with T.Tape() as tape:
        maps, _, probs = B.attention_stage_forward(
            T.Tensor(frames), B.backbone_from(entries),
            [B.branch_from(entries, j) for j in range(1, m + 1)])
        attention_stage_loss(probs, maps, labels, np.full(m, 0.5), 0.1)
    return len(tape._nodes)


class TestFusedBranches:
    """The one-pass branches against the per-branch composition."""

    @pytest.mark.parametrize("m", [4, 1])
    def test_matches_per_branch_composition(self, m):
        hp = resolve("toy")
        entries = init_attention_entries(hp.c, m, seed=50)
        frames = T.Tensor(rand((3, 3, hp.l, hp.l), seed=51))
        h = hp.l // 4
        ups = [T.Tensor(rand(shape, seed=52 + i))
               for i, shape in enumerate(((3, m, h, h), (3, m, 8 * hp.c), (3, m)))]
        results = []
        for branch_pass in (B.attention_branch_forward, per_branch_oracle):
            with T.Tape() as tape:
                feat = B.backbone_forward(frames, B.backbone_from(entries))
                outputs = branch_pass(feat, [B.branch_from(entries, j) for j in range(1, m + 1)])
                loss = T.add(T.add(T.sum_all(T.mul(outputs[0], ups[0])),
                                   T.sum_all(T.mul(outputs[1], ups[1]))),
                             T.sum_all(T.mul(outputs[2], ups[2])))
            tape.backward(loss)
            results.append(([o.data for o in outputs],
                            {name: tape.grad(t) for name, t in entries.items()}))
        (fused, fused_grads), (oracle, oracle_grads) = results
        for got, expected in zip(fused, oracle):
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() < 1e-12
        assert all(name.startswith(("backbone.", "branch.")) for name in entries)
        for name, expected in oracle_grads.items():
            assert fused_grads[name].shape == expected.shape, name
            assert np.abs(fused_grads[name] - expected).max() < 1e-12, name

    # 7 nodes per region layer and its pool (the convolutions apply their
    # tanh), 9 for the branches (2 concat, conv2d, sigmoid, attention_pool, 2
    # transposes, per_node_head, sigmoid) and 10 for the loss (7 for
    # detection, 3 for the attention term): 33 at any c and m.  The frames'
    # transpose to batch-last records no node.
    def test_paper_size_step_node_count(self):
        # Node counts do not depend on the frame size: 32 px keeps this cheap.
        assert attention_step_nodes(8, 12, rand((1, 3, 32, 32))) == 33

    def test_toy_step_node_count(self):
        hp = resolve("toy")
        assert attention_step_nodes(hp.c, hp.m, rand((hp.t, 3, hp.l, hp.l))) == 33


class TestAttentionStage:
    def test_stacked_shapes_and_ranges(self):
        entries = init_attention_entries(2, 3, seed=30)
        params = B.backbone_from(entries)
        branches = [B.branch_from(entries, j) for j in range(1, 4)]
        frames = T.Tensor(rand((4, 3, 32, 32), seed=31))
        m, f0, p0 = B.attention_stage_forward(frames, params, branches)
        assert m.shape == (4, 3, 8, 8)
        assert f0.shape == (4, 3, 16)
        assert p0.shape == (4, 3)
        assert 0.0 < m.data.min() and m.data.max() < 1.0
        assert 0.0 < p0.data.min() and p0.data.max() < 1.0


class TestCheckpointEntries:
    def test_names_are_unique_and_stable(self):
        names = names_read(B.backbone_from, init_attention_entries(1, 1, seed=41))
        assert len(names) == len(set(names))
        assert "backbone.layer1.input.kernels" in names
        assert "backbone.layer2.stage3.bias" in names
        assert all(name.startswith("backbone.") for name in names)
