"""Acceptance gate: ten scaled-down checks covering gradients, graph and
metric oracles, layer equivalences, and end-to-end training behaviour on
synthetic data.  Each test records a one-line verdict that the terminal
summary replays after the run (see conftest.py).

The suite is slower than the unit tests (several minutes): it trains the
full two-stage pipeline multiple times on purpose.
"""

import dataclasses
import math
import os
import time
from pathlib import Path

import numpy as np

from conftest import record_criterion

from aukit import dataset as D
from aukit import graph as G
from aukit import tensor as T
from aukit.backbone import attention_stage_forward, backbone_from, branch_from
from aukit.cli import main as cli_main
from aukit.config import TOY
from aukit.graph import build_graph
from aukit.losses import attention_stage_loss, au_detection_loss, class_weights
from aukit.metrics import binarize, f1_accuracy
from aukit.model import (
    attention_predict,
    embed_graph,
    extract_graph,
    init_attention_entries,
    init_relation_entries,
    load_model,
    relation_predict,
    save_model,
)
from aukit.stgcn import (
    StgcnLayerParams,
    gst_layer_forward,
    head_from,
    stgcn_forward,
    stgcn_from,
)
from aukit.training import train_attention_stage, train_relation_stage


def check(number, passed, detail=""):
    record_criterion(number, passed, detail)
    print(f"criterion {number}: {'PASS' if passed else 'FAIL'}  ({detail})")
    assert passed, f"criterion {number} failed ({detail})"


def make_sequences(spec):
    labels = D.generate_labels(spec)
    return [
        D.VideoSequence(f"v{i:04d}", D.render_video(spec, i, lab), lab)
        for i, lab in enumerate(labels)
    ]


def avg_f1_attention(entries, data):
    preds = np.concatenate([attention_predict(entries, s.frames)[2] for s in data])
    truth = np.concatenate([s.labels for s in data])
    return f1_accuracy(binarize(preds), truth).avg_f1


def avg_f1_relation(entries, graph, data):
    preds = np.concatenate([relation_predict(entries, graph, s.frames) for s in data])
    truth = np.concatenate([s.labels for s in data])
    return f1_accuracy(binarize(preds), truth).avg_f1


def random_graph(rng, m, n=60, tau=0.15):
    return build_graph(rng.integers(0, 2, size=(n, m)).astype(np.float64), tau)


# ---------------------------------------------------------------------------
# 1. Gradients of both training losses match central finite differences
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_suite():
    c, m, t, t_k, depth, l = 2, 3, 4, 3, 8, 32
    worst_att = worst_full = 0.0
    start = time.time()
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        frames = rng.standard_normal((t, 3, l, l)) * 0.5
        targets = rng.integers(0, 2, size=(t, m)).astype(np.float64)
        weights = class_weights(rng.uniform(0.2, 0.8, m))
        graph = random_graph(rng, m)

        stage1 = init_attention_entries(c, m, seed)
        names_a = sorted(stage1)

        def f_attention(*params):
            e = dict(zip(names_a, params))
            branches = [branch_from(e, j) for j in range(1, m + 1)]
            maps, _, probs = attention_stage_forward(
                T.Tensor(frames), backbone_from(e), branches)
            return attention_stage_loss(probs, maps, targets, weights, 1e-4)

        err = T.grad_check(f_attention, [stage1[n] for n in names_a],
                           max_coords=6, seed=seed)
        worst_att = max(worst_att, err)

        entries = init_relation_entries(stage1, t_k, depth, seed)
        names_u = sorted(entries)

        def f_unfrozen(*params):
            e = dict(zip(names_u, params))
            branches = [branch_from(e, j) for j in range(1, m + 1)]
            _, flat, _ = attention_stage_forward(
                T.Tensor(frames), backbone_from(e), branches)
            per_seq = T.reshape(flat, (1, t, m, flat.shape[-1]))
            f0 = T.transpose(per_seq, (0, 3, 1, 2))
            p_hat = stgcn_forward(f0, graph, stgcn_from(e, depth),
                                  head_from(e, m), expected_layers=depth)
            return au_detection_loss(p_hat, targets[np.newaxis], weights)

        err = T.grad_check(f_unfrozen, [entries[n] for n in names_u],
                           max_coords=3, seed=seed)
        worst_full = max(worst_full, err)
    elapsed = time.time() - start
    check(
        1,
        worst_att < 1e-6 and worst_full < 1e-6 and elapsed < 300,
        f"attention loss err {worst_att:.1e}, two-stage loss err "
        f"{worst_full:.1e}, 3 seeds, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 2. Graph statistics match brute-force oracles on 100 random label sets
# ---------------------------------------------------------------------------


def pcc_oracle(labels):
    n, m = labels.shape
    means = [math.fsum(labels[:, j]) / n for j in range(m)]
    sds = [
        math.sqrt(math.fsum((labels[i, j] - means[j]) ** 2 for i in range(n)) / n)
        for j in range(m)
    ]
    out = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            if j == k:
                out[j, k] = 1.0 if sds[j] > 0 else 0.0
            elif sds[j] > 0 and sds[k] > 0:
                cov = math.fsum(
                    (labels[i, j] - means[j]) * (labels[i, k] - means[k])
                    for i in range(n)
                ) / n
                out[j, k] = min(1.0, max(-1.0, cov / (sds[j] * sds[k])))
    return out


def adjacency_oracle(pcc, tau):
    m = pcc.shape[0]
    adj = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            if j == k or pcc[j, k] >= tau or pcc[k, j] >= tau:
                adj[j, k] = 1.0
    return adj


def normalize_oracle(adj):
    m = adj.shape[0]
    lam = np.array([1.0 / math.fsum(adj[j, k] for j in range(m)) for k in range(m)])
    a_norm = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            a_norm[j, k] = adj[j, k] * lam[k]
    return lam, a_norm


def gravity_oracle(adj):
    counts = [sum(adj[j, k] != 0 for k in range(adj.shape[0]) if k != j)
              for j in range(adj.shape[0])]
    return counts.index(max(counts))


def hops_oracle(adj, gravity):
    m = adj.shape[0]
    dist = {gravity: 0}
    level, d = {gravity}, 0
    while level:
        nxt = {k for j in level for k in range(m)
               if k != j and adj[j, k] != 0 and k not in dist}
        d += 1
        for k in nxt:
            dist[k] = d
        level = nxt
    return np.array([dist.get(j, G.UNREACHABLE) for j in range(m)], dtype=np.int64)


def partition_oracle(a_norm, hops):
    m = a_norm.shape[0]
    key = [math.inf if h == G.UNREACHABLE else int(h) for h in hops]
    root = np.zeros((m, m))
    centripetal = np.zeros((m, m))
    centrifugal = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            if j == k:
                root[j, j] = a_norm[j, j]
            elif key[k] <= key[j]:
                centripetal[j, k] = a_norm[j, k]
            else:
                centrifugal[j, k] = a_norm[j, k]
    return root, centripetal, centrifugal


def test_criterion_02_graph_oracles():
    rng = np.random.default_rng(20260814)
    worst = 0.0
    start = time.time()
    for case in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 201))
        labels = (rng.random((n, m)) < rng.uniform(0.1, 0.9, m)).astype(np.float64)
        if case % 7 == 0:
            labels[:, 0] = 1.0  # zero-variance column
        tau = float(rng.uniform(-0.3, 1.05))
        graph = build_graph(labels, tau)

        worst = max(worst, np.abs(graph.pcc - pcc_oracle(labels)).max())
        assert np.array_equal(graph.adjacency, adjacency_oracle(graph.pcc, tau))
        lam, a_norm = normalize_oracle(graph.adjacency)
        worst = max(worst, np.abs(graph.lam - lam).max())
        worst = max(worst, np.abs(graph.a_norm - a_norm).max())
        assert graph.gravity == gravity_oracle(graph.adjacency)
        assert np.array_equal(graph.hops, hops_oracle(graph.adjacency, graph.gravity))
        expected_parts = partition_oracle(graph.a_norm, graph.hops)
        for part, want in zip(graph.parts, expected_parts):
            assert np.array_equal(part, want)

        # Exact structural properties.
        for k in range(m):
            assert math.fsum(graph.a_norm[j, k] for j in range(m)) == 1.0
        assert np.array_equal(sum(graph.parts), graph.a_norm)
        support = sum((part != 0.0).astype(int) for part in graph.parts)
        assert support.max() <= 1
    elapsed = time.time() - start
    check(2, worst <= 1e-12 and elapsed < 30,
          f"100 label sets, max oracle diff {worst:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Graph-stack layer equals a dense matrix-multiplication oracle
# ---------------------------------------------------------------------------


def layer_oracle(f_in, graph, params):
    """Per-position loops and plain matmuls, no conv/einsum shortcuts."""
    ch, t, m = f_in.shape
    t_k = params.phi2_kernels.shape[2]
    spatial = np.zeros((ch, t, m))
    for q in range(3):
        a_q = np.tanh(params.edge_weights[q].data) * graph.parts[q]
        k_q = params.phi1_kernels[q].data.reshape(ch, ch)
        b_q = params.phi1_bias[q].data
        h = np.zeros((ch, t, m))
        for ti in range(t):
            for j in range(m):
                h[:, ti, j] = k_q @ f_in[:, ti, j] + b_q
        for j in range(m):
            for k in range(m):
                spatial[:, :, j] += a_q[j, k] * h[:, :, k]
    reach = (t_k - 1) // 2
    pads = [spatial[:, :1]] * reach + [spatial] + [spatial[:, -1:]] * reach
    padded = np.concatenate(pads, axis=1)
    k2 = params.phi2_kernels.data
    out = np.zeros((ch, t, m))
    for ti in range(t):
        for j in range(m):
            acc = params.phi2_bias.data.copy()
            for dt in range(t_k):
                acc = acc + k2[:, :, dt, 0] @ padded[:, ti + dt, j]
            out[:, ti, j] = acc
    return out + f_in


def test_criterion_03_layer_dense_oracle():
    rng = np.random.default_rng(33)
    worst = 0.0
    for case in range(20):
        ch = 8
        m = int(rng.integers(2, 6))
        t = int(rng.integers(1, 7))
        t_k = int(rng.choice([1, 3, 5]))
        graph = random_graph(rng, m)
        params = StgcnLayerParams(
            edge_weights=[T.Tensor(rng.standard_normal((m, m))) for _ in range(3)],
            phi1_kernels=[T.Tensor(rng.standard_normal((ch, ch, 1, 1)) * 0.3)
                          for _ in range(3)],
            phi1_bias=[T.Tensor(rng.standard_normal(ch) * 0.1) for _ in range(3)],
            phi2_kernels=T.Tensor(rng.standard_normal((ch, ch, t_k, 1)) * 0.3),
            phi2_bias=T.Tensor(rng.standard_normal(ch) * 0.1),
        )
        if case % 2:  # a layer takes a batch as (ch, t, b, m)
            batch = rng.standard_normal((2, ch, t, m))
            got = gst_layer_forward(T.Tensor(batch.transpose(1, 2, 0, 3)), graph, params).data
            got = got.transpose(2, 0, 1, 3)
            want = np.stack([layer_oracle(sample, graph, params) for sample in batch])
        else:
            f_in = rng.standard_normal((ch, t, m))
            got = gst_layer_forward(T.Tensor(f_in), graph, params).data
            want = layer_oracle(f_in, graph, params)
        worst = max(worst, np.abs(got - want).max())
    check(3, worst <= 1e-12, f"20 instances, max diff {worst:.1e}")


# ---------------------------------------------------------------------------
# 4. Freshly initialized 8-layer stack is bitwise the identity
# ---------------------------------------------------------------------------


def test_criterion_04_zero_init_identity():
    rng = np.random.default_rng(44)
    graph = random_graph(rng, 4)
    layers = stgcn_from(init_relation_entries(init_attention_entries(1, 4, 7), 3, 8, 7), 8)
    ok = True
    for shape in ((8, 5, 4), (8, 5, 2, 4)):  # unbatched, and a batch as (8c, t, b, m)
        f0 = rng.standard_normal(shape)
        out = T.Tensor(f0)
        for layer in layers:
            out = gst_layer_forward(out, graph, layer)
        ok = ok and out.data.tobytes() == f0.tobytes()
    check(4, ok, "8 layers, unbatched and batched, bitwise equal")


# ---------------------------------------------------------------------------
# 5. The two-stage pipeline overfits the reference toy dataset
# ---------------------------------------------------------------------------


def test_criterion_05_overfit():
    start = time.time()
    spec = D.default_spec(m=4, videos=16, frames_per_video=32)
    data = make_sequences(spec)
    hp = TOY
    stage1 = train_attention_stage(data, hp, seed=0)
    graph = build_graph(D.stacked_labels(data), hp.tau)
    stage2 = train_relation_stage(data, graph, stage1.entries, hp, seed=0)
    f1 = avg_f1_relation(stage2.entries, graph, data)
    elapsed = time.time() - start
    check(5, f1 >= 0.95 and elapsed < 600,
          f"training-set avg F1 {f1:.4f} (needs 0.95), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. Relation stage helps on held-out data with strong label structure
# ---------------------------------------------------------------------------


def test_criterion_06_relation_benefit():
    start = time.time()
    # The sequence model earns its keep when the frame-level model is good
    # but imperfect: isolated errors under strong label persistence are what
    # temporal-graph smoothing can repair.  The relation stage trains longer
    # than the preset default because its epochs are nearly free (cached
    # frozen features).
    hp = dataclasses.replace(TOY, relation_epochs=48, relation_period=16)
    spec_kw = dict(m=4, videos=8, frames_per_video=32,
                   cooccurrence=0.7, persistence=0.95, noise=0.15)
    wins, pairs = 0, []
    for seed in range(5):
        train = make_sequences(D.default_spec(seed=seed, **spec_kw))
        held_out = make_sequences(
            D.default_spec(seed=seed + 1000, **dict(spec_kw, videos=16)))
        stage1 = train_attention_stage(train, hp, seed)
        graph = build_graph(D.stacked_labels(train), hp.tau)
        stage2 = train_relation_stage(train, graph, stage1.entries, hp, seed)
        f1_att = avg_f1_attention(stage1.entries, held_out)
        f1_rel = avg_f1_relation(stage2.entries, graph, held_out)
        wins += f1_rel >= f1_att
        pairs.append(f"{f1_att:.3f}->{f1_rel:.3f}")
    elapsed = time.time() - start
    check(6, wins >= 4,
          f"relation >= attention-only on {wins}/5 seeds "
          f"[{', '.join(pairs)}], {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. The attention penalty suppresses response away from the blobs
# ---------------------------------------------------------------------------


def outside_mass(entries, spec, data):
    """Mean attention response outside a (2 x radius) box around each blob."""
    scale = 4.0  # map cells are 4x4 pixel blocks
    masses = []
    for seq in data:
        maps = attention_predict(entries, seq.frames)[0]
        _, m, h, w = maps.shape
        ys = (np.arange(h) + 0.5) * scale
        xs = (np.arange(w) + 0.5) * scale
        for j in range(m):
            cy, cx = spec.centers[j]
            half = 2.0 * spec.radius[j]
            far = (np.abs(ys[:, None] - cy) > half) | (np.abs(xs[None, :] - cx) > half)
            masses.append(maps[:, j, :, :][:, far].mean())
    return float(np.mean(masses))


def test_criterion_07_attention_regularization():
    start = time.time()
    wins, pairs = 0, []
    for seed in range(100, 105):
        spec = D.default_spec(m=4, videos=8, frames_per_video=16, seed=seed)
        data = make_sequences(spec)
        hp_reg = dataclasses.replace(TOY, lambda_r=1e-2)
        hp_off = dataclasses.replace(TOY, lambda_r=0.0)
        reg = train_attention_stage(data, hp_reg, seed, epochs=6).entries
        off = train_attention_stage(data, hp_off, seed, epochs=6).entries
        mass_reg = outside_mass(reg, spec, data)
        mass_off = outside_mass(off, spec, data)
        wins += mass_reg < mass_off
        pairs.append(f"{mass_reg:.3f}<{mass_off:.3f}")
    elapsed = time.time() - start
    check(7, wins >= 4,
          f"penalty lowered outside mass on {wins}/5 seeds "
          f"[{', '.join(pairs)}], {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Detection metrics equal brute-force confusion counting
# ---------------------------------------------------------------------------


def metrics_oracle(pred, truth):
    n, m = pred.shape
    rows = []
    for j in range(m):
        tp = sum(1 for i in range(n) if pred[i, j] == 1 and truth[i, j] == 1)
        fp = sum(1 for i in range(n) if pred[i, j] == 1 and truth[i, j] == 0)
        fn = sum(1 for i in range(n) if pred[i, j] == 0 and truth[i, j] == 1)
        tn = n - tp - fp - fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        rows.append((precision, recall, f1, (tp + tn) / n))
    return np.array(rows)


def test_criterion_08_metric_oracle():
    rng = np.random.default_rng(88)
    worst = 0.0
    for case in range(100):
        n = int(rng.integers(1, 61))
        m = int(rng.integers(1, 7))
        pred = rng.integers(0, 2, size=(n, m)).astype(np.float64)
        truth = rng.integers(0, 2, size=(n, m)).astype(np.float64)
        if case % 5 == 0:
            pred[:, 0] = 0.0  # never-predicted label
        if case % 9 == 0:
            truth[:, -1] = 1.0  # always-on label
        report = f1_accuracy(pred, truth)
        want = metrics_oracle(pred, truth)
        got = np.stack([report.precision, report.recall, report.f1,
                        report.accuracy], axis=1)
        worst = max(worst, np.abs(got - want).max())
    check(8, worst <= 1e-12, f"100 instances, max diff {worst:.1e}")


# ---------------------------------------------------------------------------
# 9. One checkpoint serves any sequence length with consistent padding
# ---------------------------------------------------------------------------


def test_criterion_09_variable_length(tmp_path):
    rng = np.random.default_rng(99)
    stage1 = init_attention_entries(c=1, m=3, seed=9)
    graph = random_graph(rng, 3)
    entries = init_relation_entries(stage1, t_k=5, depth=8, seed=9)
    for name in list(entries):
        # Fresh stacks are exact identities; random temporal kernels make
        # the padding behaviour actually matter for this check.
        if name.endswith("phi2.kernels"):
            entries[name] = T.Tensor(
                rng.standard_normal(entries[name].shape) * 0.05, requires_grad=True)
    path = tmp_path / "model.stck"
    save_model(path, embed_graph(entries, graph))
    loaded = load_model(path)
    graph2 = extract_graph(loaded)

    frame = rng.standard_normal((1, 3, 32, 32))
    centers = {}
    for length in (1, 7, 48):
        probs = relation_predict(loaded, graph2, np.repeat(frame, length, axis=0))
        assert probs.shape == (length, 3)
        centers[length] = probs[length // 2]
    spread = max(
        np.abs(centers[a] - centers[b]).max()
        for a in centers for b in centers if a < b
    )
    check(9, spread <= 1e-9,
          f"lengths 1/7/48, center prediction spread {spread:.1e}")


# ---------------------------------------------------------------------------
# 10. Seeded end-to-end runs are byte-for-byte reproducible
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    def pipeline(root):
        os.makedirs(root)
        spec = os.path.join(root, "spec.json")
        data = os.path.join(root, "data")
        att = os.path.join(root, "att.stck")
        rel = os.path.join(root, "rel.stck")
        metrics = os.path.join(root, "metrics.csv")
        D.save_spec(spec, D.default_spec(m=2, videos=2, frames_per_video=8, seed=5))
        flags = ["--c", "1", "--t", "4", "--m", "2", "--depth", "2",
                 "--epochs", "2", "--seed", "3"]
        assert cli_main(["gen-data", "--spec", spec, "--out", data]) == 0
        assert cli_main(["train", "--stage", "attention", "--data", data,
                         "--out", att] + flags) == 0
        assert cli_main(["train", "--stage", "relation", "--data", data,
                         "--stage1", att, "--out", rel] + flags) == 0
        assert cli_main(["eval", "--ckpt", rel, "--data", data,
                         "--out", metrics]) == 0
        return [att, rel, metrics]

    first = pipeline(str(tmp_path / "run1"))
    second = pipeline(str(tmp_path / "run2"))
    same = all(
        Path(a).read_bytes() == Path(b).read_bytes()
        for a, b in zip(first, second)
    )
    check(10, same, "checkpoints and metrics byte-identical across two runs")
