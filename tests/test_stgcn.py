import math
from collections import Counter

import numpy as np
import pytest

from aukit import graph as G
from aukit import stgcn as S
from aukit import tensor as T
from aukit.errors import ConfigError, ShapeError
from aukit.losses import au_detection_loss
from aukit.rng import Xoshiro256pp


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def toy_graph(m=3, seed=0, tau=0.1):
    rng = np.random.default_rng(seed)
    labels = (rng.random((60, m)) < 0.5).astype(np.float64)
    return G.build_graph(labels, tau=tau)


def identity_phi1(layer, ch):
    eye = np.eye(ch).reshape(ch, ch, 1, 1)
    layer.phi1_kernels = [T.Tensor(eye, requires_grad=True) for _ in range(3)]
    layer.phi1_bias = [T.Tensor(np.zeros(ch), requires_grad=True) for _ in range(3)]


def identity_phi2(layer, ch, t_k):
    kernels = np.zeros((ch, ch, t_k, 1))
    for o in range(ch):
        kernels[o, o, (t_k - 1) // 2, 0] = 1.0
    layer.phi2_kernels = T.Tensor(kernels, requires_grad=True)
    layer.phi2_bias = T.Tensor(np.zeros(ch), requires_grad=True)


def mixed_edges(part, w):
    """The edge matrix tanh(W) * A that ``partition_mix`` mixes nodes by.

    With one partition, a 1x1 identity kernel and frame t holding the
    one-hot node t, the output at frame t is column t of the matrix.
    """
    n = part.shape[0]
    one_hot = T.Tensor(np.eye(n)[None, :, None])  # (C, T, B, N) = (1, n, 1, n)
    out = T.partition_mix(one_hot, [part], [w], [T.Tensor.ones((1, 1, 1, 1))],
                          [T.Tensor.zeros((1,))])
    return out.data[0, :, 0].T


class TestAdaptiveEdges:
    """The learnable re-weighting tanh(W_q) * A_q inside ``partition_mix``."""

    def test_zero_weights_zero_edges(self):
        part = rand((4, 4), seed=1)
        out = mixed_edges(part, T.Tensor.zeros((4, 4)))
        assert not out.any()

    def test_saturated_weights_recover_partition(self):
        part = rand((4, 4), seed=2)
        out = mixed_edges(part, T.Tensor.full((4, 4), 50.0))
        assert np.abs(out - part).max() < 1e-12

    def test_all_ones_initialization_scale(self):
        part = rand((3, 3), seed=3)
        out = mixed_edges(part, T.Tensor.ones((3, 3)))
        assert np.abs(out - math.tanh(1.0) * part).max() < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.partition_mix(T.Tensor.zeros((1, 1, 2, 4)), [np.ones((3, 3))],
                            [T.Tensor.ones((4, 4))], [T.Tensor.ones((1, 1, 1, 1))],
                            [T.Tensor.zeros((1,))])


class TestLayerForward:
    def test_zero_init_is_bitwise_identity(self):
        graph = toy_graph()
        layer = S.init_stgcn_layer(Xoshiro256pp(4), c=2, m=3, t_k=3)
        f_in = T.Tensor(rand((16, 5, 3), seed=5))
        out = S.gst_layer_forward(f_in, graph, layer)
        assert np.array_equal(out.data, f_in.data)

    def test_matches_dense_oracle_with_identity_convs(self):
        graph = toy_graph(m=4, seed=6)
        ch, t = 8, 5
        rng = np.random.default_rng(7)
        for trial in range(5):
            layer = S.init_stgcn_layer(Xoshiro256pp(trial), c=1, m=4, t_k=3)
            identity_phi1(layer, ch)
            identity_phi2(layer, ch, 3)
            layer.edge_weights = [
                T.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
                for _ in range(3)
            ]
            f_in = rng.standard_normal((ch, t, 4))
            got = S.gst_layer_forward(T.Tensor(f_in), graph, layer).data

            mix = sum(
                np.tanh(w.data) * part
                for w, part in zip(layer.edge_weights, graph.parts)
            )
            want = np.empty_like(f_in)
            for c in range(ch):
                for i in range(t):
                    for j in range(4):
                        want[c, i, j] = (
                            sum(mix[j, k] * f_in[c, i, k] for k in range(4))
                            + f_in[c, i, j]
                        )
            assert np.abs(got - want).max() < 1e-12

    def test_single_frame_preserved(self):
        graph = toy_graph()
        layer = S.init_stgcn_layer(Xoshiro256pp(8), c=2, m=3, t_k=5)
        out = S.gst_layer_forward(T.Tensor(rand((16, 1, 3), seed=9)), graph, layer)
        assert out.shape == (16, 1, 3)

    @pytest.mark.parametrize("t_k,t", [(3, 1), (3, 6), (5, 2), (7, 10)])
    def test_shape_preserved(self, t_k, t):
        graph = toy_graph()
        layer = S.init_stgcn_layer(Xoshiro256pp(10), c=1, m=3, t_k=t_k)
        out = S.gst_layer_forward(T.Tensor(rand((8, t, 3), seed=11)), graph, layer)
        assert out.shape == (8, t, 3)

    def test_unbatched_adds_only_two_reshapes(self, monkeypatch):
        # One sequence (8c, t, m) runs as a batch of one, (8c, t, 1, m): the
        # same ops and bytes as the batched call, plus one reshape on entry
        # and one on exit.
        graph = toy_graph()
        layer = S.init_stgcn_layer(Xoshiro256pp(14), c=1, m=3, t_k=3)
        layer.phi2_kernels = T.Tensor(rand((8, 8, 3, 1), seed=15), requires_grad=True)
        f_in = rand((8, 4, 3), seed=16)
        calls = Counter()
        traced_fns = [(T, name) for name in dir(T) if not name.startswith("_")]
        for module, name in traced_fns + [(S, "gst_layer_forward")]:
            fn = getattr(module, name)
            if callable(fn) and not isinstance(fn, type):
                def counted(*args, _fn=fn, _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)
                monkeypatch.setattr(module, name, counted)

        def traced(x):
            calls.clear()
            with T.Tape() as tape:
                out = S.gst_layer_forward(T.Tensor(x, requires_grad=True), graph, layer)
            return out.data, Counter(calls), len(tape._nodes)

        out_1, calls_1, nodes_1 = traced(f_in)
        out_b, calls_b, nodes_b = traced(f_in[:, :, None])
        assert out_1.tobytes() == out_b[:, :, 0].tobytes()
        assert calls_1["gst_layer_forward"] == 1  # no recursion into a batched call
        assert calls_1 - calls_b == Counter(reshape=2) and not calls_b - calls_1
        assert nodes_1 == nodes_b + 2

    @pytest.mark.parametrize("track_input", [True, False])
    def test_layer_records_four_tape_nodes(self, track_input):
        # partition_mix, pad_edge, the temporal conv2d and the residual add.
        graph = toy_graph()
        layer = S.init_stgcn_layer(Xoshiro256pp(17), c=1, m=3, t_k=3)
        f_in = T.Tensor(rand((8, 4, 2, 3), seed=18), requires_grad=track_input)  # (8c, t, b, m)
        with T.Tape() as tape:
            S.gst_layer_forward(f_in, graph, layer)
        assert len(tape._nodes) == 4

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            S.init_stgcn_layer(Xoshiro256pp(12), c=1, m=3, t_k=4)

    def test_node_count_mismatch(self):
        graph = toy_graph(m=3)
        layer = S.init_stgcn_layer(Xoshiro256pp(13), c=1, m=5, t_k=3)
        with pytest.raises(ShapeError):
            S.gst_layer_forward(T.Tensor(rand((8, 4, 5))), graph, layer)


class TestStackForward:
    def build(self, m=3, c=2, t_k=3, depth=8, seed=20):
        rng = Xoshiro256pp(seed)
        graph = toy_graph(m=m, seed=seed)
        layers = S.init_stgcn(rng.fork(0), c=c, m=m, t_k=t_k, depth=depth)
        head = S.init_head(rng.fork(1), c=c, m=m)
        return graph, layers, head

    @pytest.mark.parametrize("c, m", [(2, 4), (8, 12)])
    def test_relation_step_records_42_tape_nodes(self, c, m):
        # 4 per layer at the default depth, the transpose back to batch first,
        # per_node_head (the m heads as lists: no stacking node) and sigmoid,
        # and 7 for the loss: the count does not grow with m.  The untracked
        # features' transpose to (8c, t, b, m) records no node.
        graph, layers, head = self.build(m=m, c=c)
        features = T.Tensor(rand((2, 8 * c, 4, m), seed=20))
        with T.Tape() as tape:
            probs = S.stgcn_forward(features, graph, layers, head)
            au_detection_loss(probs, np.zeros((2, 4, m)), np.full(m, 1.0 / m))
        assert len(tape._nodes) == 42

    def test_zero_init_stack_equals_head_on_input(self):
        graph, layers, head = self.build()
        f0 = T.Tensor(rand((16, 6, 3), seed=21))
        got = S.stgcn_forward(f0, graph, layers, head).data

        weight = np.stack([w.data for w in head.weights])
        bias = np.concatenate([b.data for b in head.biases])
        logits = np.einsum("ctj,jc->tj", f0.data, weight) + bias
        want = 1.0 / (1.0 + np.exp(-logits))
        assert np.abs(got - want).max() < 1e-12

    def test_variable_length_inference(self):
        graph, layers, head = self.build(t_k=5)
        for t in (1, 7, 48):
            out = S.stgcn_forward(T.Tensor(rand((16, t, 3), seed=t)), graph, layers, head)
            assert out.shape == (t, 3)
            assert 0.0 < out.data.min() and out.data.max() < 1.0

    def test_wrong_layer_count(self):
        graph, layers, head = self.build(depth=8)
        with pytest.raises(ConfigError):
            S.stgcn_forward(T.Tensor(rand((16, 4, 3))), graph, layers[:5], head)

    def test_batched_matches_per_sequence(self):
        graph, layers, head = self.build(depth=2)
        batch = rand((3, 16, 4, 3), seed=22)
        got = S.stgcn_forward(T.Tensor(batch), graph, layers, head, expected_layers=2).data
        for b in range(3):
            single = S.stgcn_forward(
                T.Tensor(batch[b]), graph, layers, head, expected_layers=2
            ).data
            assert np.abs(got[b] - single).max() < 1e-12

    def test_temporal_receptive_field_bound(self):
        # depth layers of kernel t_k reach depth*(t_k-1)/2 frames each way.
        graph, layers, head = self.build(c=1, t_k=3, depth=4, seed=23)
        for layer in layers:  # give the temporal convs real weight
            identity_phi2(layer, 8, 3)
            layer.phi2_kernels = T.Tensor(
                layer.phi2_kernels.data + rand((8, 8, 3, 1), seed=24) * 0.1,
                requires_grad=True,
            )
        base = rand((8, 20, 3), seed=25)
        poked = base.copy()
        poked[:, 10, :] += 1.0
        out_base = S.stgcn_forward(T.Tensor(base), graph, layers, head, expected_layers=4).data
        out_poked = S.stgcn_forward(T.Tensor(poked), graph, layers, head, expected_layers=4).data
        reach = 4 * (3 - 1) // 2
        changed = np.abs(out_base - out_poked).max(axis=1) > 0
        assert not changed[: 10 - reach].any()
        assert not changed[10 + reach + 1 :].any()
        assert changed[10]

    def test_masked_edge_weight_gradients(self):
        graph, layers, head = self.build(m=4, seed=26)
        for layer in layers:  # non-zero phi2 so gradients reach the edges
            layer.phi2_kernels = T.Tensor(
                rand(layer.phi2_kernels.shape, seed=27) * 0.1, requires_grad=True
            )
        f0 = T.Tensor(rand((16, 5, 4), seed=28))
        with T.Tape() as tape:
            loss = T.sum_all(S.stgcn_forward(f0, graph, layers, head))
            tape.backward(loss)
        for layer in layers:
            for w, part in zip(layer.edge_weights, graph.parts):
                grad = tape.grad(w)
                assert grad is not None
                assert not grad[part == 0.0].any()
                assert grad[part != 0.0].any()

    def test_gradient_matches_finite_differences(self):
        graph, layers, head = self.build(m=3, c=2, depth=2, seed=29)
        for layer in layers:
            layer.phi2_kernels = T.Tensor(
                rand(layer.phi2_kernels.shape, seed=30) * 0.2, requires_grad=True
            )
        f0 = rand((16, 4, 3), seed=31)
        labels = (np.random.default_rng(32).random((4, 3)) < 0.5).astype(float)

        def make_loss(edge_w, phi1_k, phi2_k, head_w):
            probe_layers = [
                S.StgcnLayerParams(
                    edge_weights=[edge_w] + layers[0].edge_weights[1:],
                    phi1_kernels=[phi1_k] + layers[0].phi1_kernels[1:],
                    phi1_bias=layers[0].phi1_bias,
                    phi2_kernels=phi2_k,
                    phi2_bias=layers[0].phi2_bias,
                ),
                layers[1],
            ]
            probe_head = S.StgcnHead([head_w] + head.weights[1:], head.biases)
            p_hat = S.stgcn_forward(
                T.Tensor(f0), graph, probe_layers, probe_head, expected_layers=2
            )
            target = T.Tensor(labels)
            diff = T.sub(p_hat, target)
            return T.mean_all(T.mul(diff, diff))

        err = T.grad_check(
            make_loss,
            [
                layers[0].edge_weights[0],
                layers[0].phi1_kernels[0],
                layers[0].phi2_kernels,
                head.weights[0],
            ],
            max_coords=25,
            seed=2,
        )
        assert err < 1e-6


class TestCheckpointEntries:
    def test_round_trip_by_name(self):
        rng = Xoshiro256pp(40)
        layers = S.init_stgcn(rng.fork(0), c=2, m=3, t_k=3, depth=8)
        head = S.init_head(rng.fork(1), c=2, m=3)
        entries = dict(S.stgcn_entries(layers))
        entries.update(S.head_entries(head))

        rebuilt = S.stgcn_from(entries, depth=8)
        rebuilt_head = S.head_from(entries, m=3)
        assert rebuilt[0].edge_weights[0] is layers[0].edge_weights[0]
        assert rebuilt[7].phi2_kernels is layers[7].phi2_kernels
        assert rebuilt_head.weights[2] is head.weights[2]

    def test_names_are_unique_and_stable(self):
        layers = S.init_stgcn(Xoshiro256pp(41), c=1, m=3, t_k=3, depth=8)
        names = [name for name, _ in S.stgcn_entries(layers)]
        assert len(names) == len(set(names))
        assert "gst.1.edge.1" in names
        assert "gst.8.phi2.kernels" in names
        assert "gst.3.phi1.2.bias" in names
