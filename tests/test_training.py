"""Optimizer, schedule, and training-loop tests.

Oracle strategy: the momentum update is replayed with explicit scalar
arithmetic, and the training loops are checked against hand-computable
invariants (zero-epoch identity, bitwise determinism, frozen parameters).
"""

import csv
import math

import numpy as np
import pytest

from aukit import tensor as T
from aukit import training
from aukit.backbone import attention_stage_forward, backbone_from, branch_from
from aukit.config import HyperParams, resolve
from aukit.dataset import VideoSequence, default_spec, generate_labels, render_video
from aukit.errors import ConfigError, DataError, NumericalError
from aukit.graph import build_graph
from aukit.losses import attention_stage_loss, au_detection_loss
from aukit.model import (
    FRAMES_PER_PASS,
    embed_graph,
    init_attention_entries,
    init_relation_entries,
    load_model,
    model_dims,
    save_model,
    stage1_forward,
    stage2_forward,
)
from aukit.training import (
    LrSchedule,
    OptimizerState,
    attention_schedule,
    lr_at,
    relation_schedule,
    save_training_log,
    sgd_step,
    train_attention_stage,
    train_relation_stage,
    _augmented_window,
    _center_window,
)
from aukit.rng import Xoshiro256pp


# ---------------------------------------------------------------------------
# Learning-rate schedule
# ---------------------------------------------------------------------------


def default_hp(**kw):
    base = dict(l=32, c=1, t=4, m=2, t_k=3, depth=2, batch_size=4,
                attention_epochs=2, relation_epochs=2)
    base.update(kw)
    return HyperParams(**base)


def test_attention_schedule_hand_values():
    sched = attention_schedule(HyperParams(l=32, c=2, t=8, m=4, t_k=3))
    assert lr_at(sched, 0) == 0.006
    assert lr_at(sched, 1) == 0.006
    assert lr_at(sched, 2) == pytest.approx(0.0018, abs=1e-15)
    assert lr_at(sched, 11) == pytest.approx(0.006 * 0.3**5, rel=1e-12)


def test_relation_schedule_hand_values():
    sched = relation_schedule(HyperParams(l=32, c=2, t=8, m=4, t_k=3))
    assert lr_at(sched, 0) == 0.02
    assert lr_at(sched, 5) == 0.02
    assert lr_at(sched, 6) == pytest.approx(0.006, rel=1e-12)
    assert lr_at(sched, 23) == pytest.approx(0.02 * 0.3**3, rel=1e-12)


def test_lr_beyond_schedule_rejected():
    sched = attention_schedule(HyperParams(l=32, c=2, t=8, m=4, t_k=3))
    with pytest.raises(ConfigError):
        lr_at(sched, 12)
    with pytest.raises(ConfigError):
        lr_at(sched, -1)
    with pytest.raises(ConfigError):
        lr_at(relation_schedule(HyperParams(l=32, c=2, t=8, m=4, t_k=3)), 24)


def test_lr_generic_periods():
    sched = LrSchedule(initial=1.0, decay=0.5, period=3, max_epochs=9)
    values = [lr_at(sched, e) for e in range(9)]
    assert values == [1.0] * 3 + [0.5] * 3 + [0.25] * 3


# ---------------------------------------------------------------------------
# Momentum SGD
# ---------------------------------------------------------------------------


def test_sgd_hand_case():
    # theta=1, g=1, lr=0.1, mu=0.9, no decay:
    #   v = 0.9*0 + 1 = 1;  theta' = 1 - 0.1*(1 + 0.9*1) = 0.81
    entries = {"w": T.Tensor(np.asarray(1.0))}
    state = OptimizerState(momentum=0.9, weight_decay=0.0)
    out = sgd_step(entries, {"w": np.asarray(1.0)}, 0.1, state)
    assert float(out["w"].data) == pytest.approx(0.81, abs=1e-15)
    assert float(state.velocity["w"]) == 1.0

    # Second identical gradient: v = 0.9 + 1 = 1.9,
    # theta'' = 0.81 - 0.1*(1 + 0.9*1.9) = 0.539
    out2 = sgd_step(out, {"w": np.asarray(1.0)}, 0.1, state)
    assert float(out2["w"].data) == pytest.approx(0.539, abs=1e-15)


def test_sgd_matches_scalar_replay():
    rng = np.random.default_rng(7)
    theta = 0.5
    entries = {"w": T.Tensor(np.asarray(theta))}
    mu, wd, lr = 0.9, 5e-4, 0.05
    state = OptimizerState(momentum=mu, weight_decay=wd)
    v = 0.0
    for _ in range(6):
        g = float(rng.normal())
        entries = sgd_step(entries, {"w": np.asarray(g)}, lr, state)
        gp = g + wd * theta
        v = mu * v + gp
        theta = theta - lr * (gp + mu * v)
        assert float(entries["w"].data) == pytest.approx(theta, rel=1e-14)


def test_sgd_without_momentum_is_plain_descent():
    entries = {"w": T.Tensor(np.asarray(2.0))}
    state = OptimizerState(momentum=0.0, weight_decay=0.0)
    # f(w) = w^2, grad = 2w; descent with lr 0.25 jumps straight to 1.0
    out = sgd_step(entries, {"w": np.asarray(4.0)}, 0.25, state)
    assert float(out["w"].data) == 1.0


def test_weight_decay_shrinks_gradient_free_parameters():
    entries = {"w": T.Tensor(np.full((3,), 10.0))}
    state = OptimizerState(momentum=0.9, weight_decay=5e-4)
    norms = [np.linalg.norm(entries["w"].data)]
    for _ in range(5):
        entries = sgd_step(entries, {"w": np.zeros(3)}, 0.1, state)
        norms.append(np.linalg.norm(entries["w"].data))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_sgd_leaves_unlisted_parameters_alone():
    entries = {
        "a": T.Tensor(np.asarray(1.0)),
        "b": T.Tensor(np.asarray(2.0)),
    }
    state = OptimizerState()
    out = sgd_step(entries, {"a": np.asarray(1.0)}, 0.1, state)
    assert out["b"] is entries["b"]
    assert float(out["a"].data) != 1.0


def test_sgd_rejects_nan_gradient():
    entries = {"w": T.Tensor(np.asarray(1.0))}
    with pytest.raises(NumericalError, match="'w'"):
        sgd_step(entries, {"w": np.asarray(float("nan"))}, 0.1, OptimizerState())


def test_sgd_overflow_names_the_parameter_and_keeps_velocity(recwarn):
    entries = {"a": T.Tensor(np.ones(3)), "w": T.Tensor(np.full(2, 1e300))}
    state = OptimizerState()
    sgd_step(entries, {"a": np.ones(3), "w": np.zeros(2)}, 1e-3, state)
    before = {name: v.copy() for name, v in state.velocity.items()}
    with pytest.raises(NumericalError, match="'w'"):
        sgd_step(entries, {"a": np.ones(3), "w": np.full(2, 1e300)}, 1e10, state)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert list(state.velocity) == list(before)
    for name, v in before.items():
        assert state.velocity[name].tobytes() == v.tobytes(), name


def sgd_per_name(entries, grads, lr, state):
    """The momentum rule one parameter at a time, in plain numpy."""
    updated = dict(entries)
    for name, grad in grads.items():
        theta = entries[name].data
        g = grad + state.weight_decay * theta
        v = state.velocity.get(name)
        v = g if v is None else state.momentum * v + g
        state.velocity[name] = v
        updated[name] = T.Tensor(theta - lr * (g + state.momentum * v), requires_grad=True)
    return updated


def test_sgd_chunks_equal_the_per_name_rule_bytewise():
    # Sizes around the chunk bound: a parameter larger than a chunk, names
    # that straddle a chunk boundary, and many small ones.
    chunk = training._CHUNK
    shapes = {"s1": (3,), "big": (chunk + 5,), "s2": (2, 2), "half1": (chunk // 2 + 1,),
              "half2": (chunk // 2 + 1,), "one": (), "exact": (chunk,), "tail": (7, 3)}
    rng = np.random.default_rng(11)
    entries = {n: T.Tensor(rng.standard_normal(s), requires_grad=True)
               for n, s in shapes.items()}
    ref_entries = dict(entries)
    state, ref_state = OptimizerState(0.9, 5e-4), OptimizerState(0.9, 5e-4)
    for step in range(3):
        grads = {n: rng.standard_normal(s) for n, s in shapes.items()}
        if step == 0:  # then s2 alone starts without a velocity
            del grads["s2"]
        if step == 2:  # a velocity set from outside is read, not the stale flat copy
            state.velocity["s2"] = state.velocity["s2"] + 1.0
            ref_state.velocity["s2"] = ref_state.velocity["s2"] + 1.0
        entries = sgd_step(entries, grads, 0.05, state)
        ref_entries = sgd_per_name(ref_entries, grads, 0.05, ref_state)
        assert list(state.velocity) == list(ref_state.velocity)
        for name in shapes:
            assert entries[name].shape == shapes[name]
            assert entries[name].data.tobytes() == ref_entries[name].data.tobytes(), (step, name)
            if name not in grads:
                continue
            assert entries[name].requires_grad
            assert not entries[name].data.flags.writeable
            v, ref_v = state.velocity[name], ref_state.velocity[name]
            assert v.shape == ref_v.shape and v.tobytes() == ref_v.tobytes(), (step, name)


def test_sgd_rejects_unknown_name_and_bad_shape():
    entries = {"w": T.Tensor(np.zeros(2))}
    with pytest.raises(ConfigError):
        sgd_step(entries, {"q": np.zeros(2)}, 0.1, OptimizerState())
    with pytest.raises(ConfigError):
        sgd_step(entries, {"w": np.zeros(3)}, 0.1, OptimizerState())


# ---------------------------------------------------------------------------
# Augmentation helpers
# ---------------------------------------------------------------------------


def _frames(t=4, size=36):
    # Distinct values so crops are identifiable.
    return np.arange(t * 3 * size * size, dtype=np.float64).reshape(t, 3, size, size)


def test_augmented_window_is_a_shared_crop():
    frames = _frames()
    rng = Xoshiro256pp(123)
    clip = _augmented_window(frames, 1, 2, 32, rng, "test")
    assert clip.shape == (2, 3, 32, 32)
    # Whatever the crop was, both frames must use the same offsets: their
    # difference equals the constant frame-to-frame stride of the input.
    stride = frames[2, 0, 0, 0] - frames[1, 0, 0, 0]
    assert np.all(clip[1] - clip[0] == stride)


def test_augmentation_covers_crops_and_mirrors():
    frames = _frames(t=1)
    rng = Xoshiro256pp(0)
    seen_offsets, seen_mirror = set(), set()
    for _ in range(64):
        clip = _augmented_window(frames, 0, 1, 32, rng, "test")
        # Recover offset and orientation from the corner value.
        value = clip[0, 0, 0, 0]
        mirr = clip[0, 0, 0, 0] > clip[0, 0, 0, 1]
        seen_mirror.add(bool(mirr))
        seen_offsets.add(float(value))
    assert seen_mirror == {True, False}
    assert len(seen_offsets) > 4


def test_center_window_crop():
    frames = _frames(t=2)
    clip = _center_window(frames, 32, "test")
    assert clip.shape == (2, 3, 32, 32)
    assert clip[0, 0, 0, 0] == frames[0, 0, 2, 2]


def test_crop_smaller_than_target_rejected():
    frames = np.zeros((2, 3, 16, 16))
    with pytest.raises(ConfigError):
        _center_window(frames, 32, "test")


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_data():
    spec = default_spec(m=2, videos=2, frames_per_video=8, seed=5)
    labels = generate_labels(spec)
    return [
        VideoSequence(f"v{i:04d}", render_video(spec, i, labels[i]), labels[i])
        for i in range(spec.videos)
    ]


@pytest.fixture(scope="module")
def mini_graph(mini_data):
    stacked = np.concatenate([s.labels for s in mini_data])
    return build_graph(stacked, 0.0)


@pytest.fixture(scope="module")
def stage1(mini_data):
    return train_attention_stage(mini_data, default_hp(), seed=3)


def assert_entries_equal(a, b):
    assert list(a) == list(b)
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name


def test_zero_epochs_is_identity(mini_data):
    hp = default_hp()
    result = train_attention_stage(mini_data, hp, seed=3, epochs=0)
    init = init_attention_entries(hp.c, hp.m, seed=3)
    assert result.log == []
    assert_entries_equal(result.entries, init)


def test_attention_training_is_deterministic(mini_data, stage1):
    again = train_attention_stage(mini_data, default_hp(), seed=3)
    assert_entries_equal(stage1.entries, again.entries)
    assert stage1.log == again.log


def test_toy_attention_step_is_bytewise_repeatable():
    # One toy-preset step (forward, backward, sgd_step) run twice in one
    # process from the same entries and frames: gradients and updated
    # entries must agree to the byte, not just to a tolerance.
    hp = resolve("toy")
    spec = default_spec(m=hp.m, videos=1, frames_per_video=4, seed=7)
    labels = generate_labels(spec)[0]
    frames = render_video(spec, 0, labels)
    entries = init_attention_entries(hp.c, hp.m, seed=7)
    weights = np.full(hp.m, 0.5)

    def step():
        with T.Tape() as tape:
            branches = [branch_from(entries, j) for j in range(1, hp.m + 1)]
            maps, _, probs = attention_stage_forward(
                T.Tensor(frames), backbone_from(entries), branches)
            loss = attention_stage_loss(probs, maps, labels, weights, hp.lambda_r)
        tape.backward(loss)
        grads = {name: tape.grad(t) for name, t in entries.items()}
        state = OptimizerState(hp.momentum, hp.weight_decay)
        return grads, sgd_step(entries, grads, hp.attention_lr, state)

    grads_a, updated_a = step()
    grads_b, updated_b = step()
    assert list(grads_a) == list(grads_b)
    for name in grads_a:
        assert grads_a[name].tobytes() == grads_b[name].tobytes(), name
    assert_entries_equal(updated_a, updated_b)


def keep_all_backward(tape, loss):
    """``Tape.backward`` before it dropped node outputs' gradients once used:
    every gradient, intermediate or leaf, stays until the end."""
    grads = {loss.id: np.ones(())}

    def accumulate(tensor_id, value):
        grads[tensor_id] = grads[tensor_id] + value if tensor_id in grads else value

    for node in reversed(tape._nodes):
        if node.out_id in grads:
            node.backward(grads[node.out_id], accumulate)
    return grads


def test_backward_drops_intermediate_gradients_and_keeps_leaf_bytes():
    hp = resolve("toy")
    spec = default_spec(m=hp.m, videos=1, frames_per_video=4, seed=7)
    labels = generate_labels(spec)[0]
    frames = render_video(spec, 0, labels)
    entries = init_attention_entries(hp.c, hp.m, seed=7)
    leaf_bytes = []
    for drop in (True, False):
        with T.Tape() as tape:
            maps, _, probs = stage1_forward(entries, T.Tensor(frames))
            loss = attention_stage_loss(probs, maps, labels, np.full(hp.m, 0.5), hp.lambda_r)
        produced = {node.out_id for node in tape._nodes}
        if drop:
            tape.backward(loss)
            assert not produced & set(tape.gradients)
            grads = tape.gradients
        else:
            grads = keep_all_backward(tape, loss)
        leaf_bytes.append({name: grads[t.id].tobytes() for name, t in entries.items()})
    assert leaf_bytes[0] == leaf_bytes[1]


@pytest.fixture(scope="module")
def twenty_frames():
    spec = default_spec(m=4, videos=1, frames_per_video=20, seed=11)
    labels = generate_labels(spec)
    return [VideoSequence("v0000", render_video(spec, 0, labels[0]), labels[0])]


def one_attention_step(data, monkeypatch, frames_per_pass):
    """Gradients, result and pass sizes of one toy attention step on 20
    frames (a batch of 4 windows of 5) run ``frames_per_pass`` at a time."""
    hp = HyperParams(l=32, c=2, t=5, m=4, t_k=3, batch_size=4)
    grads, passes = [], []

    def recording_sgd_step(entries, step_grads, lr, state):
        grads.append(step_grads)
        return sgd_step(entries, step_grads, lr, state)

    def recording_stage1(entries, frames):
        passes.append(frames.shape[0])
        return stage1_forward(entries, frames)

    monkeypatch.setattr(training, "FRAMES_PER_PASS", frames_per_pass)
    monkeypatch.setattr(training, "sgd_step", recording_sgd_step)
    monkeypatch.setattr(training, "stage1_forward", recording_stage1)
    result = train_attention_stage(data, hp, seed=5, epochs=1)
    assert len(grads) == 1
    return grads[0], result, passes


def test_chunked_attention_step_repeats_and_matches_whole_batch(twenty_frames, monkeypatch):
    first, again = (one_attention_step(twenty_frames, monkeypatch, FRAMES_PER_PASS)
                    for _ in range(2))
    whole = one_attention_step(twenty_frames, monkeypatch, 20)
    assert first[2] == [8, 8, 4] and whole[2] == [20]
    assert list(first[0]) == list(again[0]) == list(whole[0])
    for name, grad in first[0].items():
        assert grad.tobytes() == again[0][name].tobytes(), name
        assert np.abs(grad - whole[0][name]).max() < 1e-12, name
    assert_entries_equal(first[1].entries, again[1].entries)
    assert first[1].log == again[1].log
    assert abs(first[1].log[0][4] - whole[1].log[0][4]) < 1e-12


def test_toy_relation_step_is_bytewise_repeatable():
    # One frozen toy-preset relation step (graph stack and heads on fixed
    # features) run twice: gradients and updated entries agree to the byte.
    hp = resolve("toy")
    rng = np.random.default_rng(9)
    labels = (rng.random((hp.batch_size, hp.t, hp.m)) < 0.5).astype(np.float64)
    graph = build_graph(labels.reshape(-1, hp.m), hp.tau)
    stage1 = init_attention_entries(hp.c, hp.m, seed=9)
    entries = init_relation_entries(stage1, hp.t_k, hp.depth, seed=9)
    for name in entries:  # non-zero phi2, so gradients reach every layer's edges
        if name.endswith("phi2.kernels"):
            entries[name] = T.Tensor(0.1 * rng.standard_normal(entries[name].shape),
                                     requires_grad=True)
    features = np.tanh(rng.standard_normal((hp.batch_size, 8 * hp.c, hp.t, hp.m)))
    trainable = [n for n in entries if n.startswith(("gst.", "head."))]

    def step():
        with T.Tape() as tape:
            probs = stage2_forward(entries, graph, T.Tensor(features))
            loss = au_detection_loss(probs, labels, np.full(hp.m, 0.5))
        tape.backward(loss)
        grads = {name: tape.grad(entries[name]) for name in trainable}
        state = OptimizerState(hp.momentum, hp.weight_decay)
        return grads, sgd_step(entries, grads, hp.relation_lr, state)

    grads_a, updated_a = step()
    grads_b, updated_b = step()
    assert list(grads_a) == list(grads_b)
    for name in grads_a:
        assert grads_a[name].tobytes() == grads_b[name].tobytes(), name
    assert list(updated_a) == list(updated_b)
    for name in updated_a:
        assert updated_a[name].data.tobytes() == updated_b[name].data.tobytes(), name


def test_attention_training_updates_all_parameters(mini_data, stage1):
    init = init_attention_entries(1, 2, seed=3)
    for name in init:
        assert not np.array_equal(stage1.entries[name].data, init[name].data), name


def test_attention_log_structure(stage1):
    hp = default_hp()
    sched = attention_schedule(hp)
    assert len(stage1.log) == 2  # one window batch per epoch at this scale
    for stage_name, epoch, step, lr, loss in stage1.log:
        assert stage_name == "attention"
        assert step == 0
        assert lr == lr_at(sched, epoch)
        assert math.isfinite(loss)
    assert [row[1] for row in stage1.log] == [0, 1]


def test_attention_empty_dataset_rejected():
    with pytest.raises(DataError):
        train_attention_stage([], default_hp(), seed=0)


def test_attention_too_short_sequences_rejected(mini_data):
    with pytest.raises(DataError):
        train_attention_stage(mini_data, default_hp(t=16), seed=0)


def test_attention_checkpoint_size_mismatch(mini_data):
    wrong = init_attention_entries(c=2, m=2, seed=0)
    with pytest.raises(ConfigError):
        train_attention_stage(mini_data, default_hp(), seed=0, init_entries=wrong)


def test_attention_epochs_beyond_schedule(mini_data):
    with pytest.raises(ConfigError):
        train_attention_stage(mini_data, default_hp(), seed=0, epochs=3)


def test_attention_resume_runs_from_checkpoint(mini_data, stage1):
    resumed = train_attention_stage(
        mini_data, default_hp(), seed=9, init_entries=stage1.entries, epochs=1
    )
    assert len(resumed.log) == 1
    assert any(
        not np.array_equal(resumed.entries[n].data, stage1.entries[n].data)
        for n in stage1.entries
    )


def test_attention_resume_from_a_relation_checkpoint_drops_its_stack(
        mini_data, mini_graph, stage1):
    relation = train_relation_stage(mini_data, mini_graph, stage1.entries,
                                    default_hp(), seed=3, epochs=0)
    resumed = embed_graph(relation.entries, mini_graph)
    result = train_attention_stage(mini_data, default_hp(), seed=3,
                                   init_entries=resumed, epochs=1)
    assert model_dims(result.entries).depth == 0
    assert list(result.entries) == list(stage1.entries)


def test_relation_training_freezes_stage1(mini_data, mini_graph, stage1):
    result = train_relation_stage(mini_data, mini_graph, stage1.entries,
                                  default_hp(), seed=3)
    for name in stage1.entries:
        assert np.array_equal(result.entries[name].data,
                              stage1.entries[name].data), name
    # ... while the second-stage parameters moved.
    init = init_relation_entries(stage1.entries, 3, 2, seed=3)
    moved = [n for n in init if n.startswith("gst.") or n.startswith("head.")]
    assert any(
        not np.array_equal(result.entries[n].data, init[n].data) for n in moved
    )


def test_relation_training_is_deterministic(mini_data, mini_graph, stage1):
    a = train_relation_stage(mini_data, mini_graph, stage1.entries,
                             default_hp(), seed=3)
    b = train_relation_stage(mini_data, mini_graph, stage1.entries,
                             default_hp(), seed=3)
    assert_entries_equal(a.entries, b.entries)
    assert a.log == b.log


def test_relation_zero_epochs_is_identity(mini_data, mini_graph, stage1):
    result = train_relation_stage(mini_data, mini_graph, stage1.entries,
                                  default_hp(), seed=3, epochs=0)
    init = init_relation_entries(stage1.entries, 3, 2, seed=3)
    assert result.log == []
    assert_entries_equal(result.entries, init)


def test_relation_node_count_mismatch(mini_data, stage1):
    bad = build_graph(np.eye(3), 0.0)  # 3-node graph vs 2-branch model
    with pytest.raises(ConfigError):
        train_relation_stage(mini_data, bad, stage1.entries, default_hp(m=3),
                             seed=0)


def test_relation_unfrozen_mode_updates_backbone(mini_data, mini_graph, stage1):
    result = train_relation_stage(mini_data, mini_graph, stage1.entries,
                                  default_hp(freeze_backbone=False), seed=3, epochs=1)
    changed = [
        n for n in stage1.entries
        if not np.array_equal(result.entries[n].data, stage1.entries[n].data)
    ]
    assert any(n.startswith("backbone.") for n in changed)
    assert any(n.startswith("branch.") for n in changed)


def test_relation_resume_requires_stack_entries(mini_data, mini_graph, stage1):
    with pytest.raises(ConfigError):
        train_relation_stage(mini_data, mini_graph, stage1.entries,
                             default_hp(), seed=0,
                             init_entries=stage1.entries)


def test_relation_resume_continues(mini_data, mini_graph, stage1):
    first = train_relation_stage(mini_data, mini_graph, stage1.entries,
                                 default_hp(), seed=3, epochs=1)
    resumed = train_relation_stage(mini_data, mini_graph, stage1.entries,
                                   default_hp(), seed=3,
                                   init_entries=first.entries, epochs=1)
    dims = model_dims(resumed.entries)
    assert (dims.depth, dims.t_k) == (2, 3)
    assert any(
        not np.array_equal(resumed.entries[n].data, first.entries[n].data)
        for n in first.entries if n.startswith("gst.")
    )


@pytest.mark.parametrize("change", [{"depth": 3}, {"t_k": 5}, {"depth": 1, "t_k": 1}])
def test_relation_resume_rejects_other_depth_or_t_k(mini_data, mini_graph, stage1, change):
    first = train_relation_stage(mini_data, mini_graph, stage1.entries,
                                 default_hp(), seed=3, epochs=0)
    hp = default_hp(**change)
    with pytest.raises(ConfigError, match=(
            rf"\(depth=2, t_k=3\) do not match config \(depth={hp.depth}, t_k={hp.t_k}\)")):
        train_relation_stage(mini_data, mini_graph, stage1.entries, hp, seed=3,
                             init_entries=first.entries, epochs=1)


def test_relation_stage1_from_a_relation_checkpoint_drops_its_stack(
        tmp_path, mini_data, mini_graph, stage1):
    # A relation model given as stage 1 contributes only its stage-1 entries:
    # the result has the configured depth and t_k, and its file loads.
    deep = train_relation_stage(mini_data, mini_graph, stage1.entries,
                                default_hp(depth=3), seed=3, epochs=1)
    result = train_relation_stage(mini_data, mini_graph, deep.entries,
                                  default_hp(depth=2, t_k=5), seed=4, epochs=1)
    dims = model_dims(result.entries)
    assert (dims.depth, dims.t_k) == (2, 5)
    path = tmp_path / "retrained.stck"
    save_model(path, result.entries)
    assert list(load_model(path)) == list(result.entries)
    for name in deep.entries:
        if name.startswith(("backbone.", "branch.")):
            assert np.array_equal(result.entries[name].data, deep.entries[name].data)


@pytest.mark.parametrize("stage, loss_name", [("attention", "attention_stage_loss"),
                                              ("relation", "au_detection_loss")])
def test_nan_loss_stops_training(monkeypatch, mini_data, mini_graph, stage1,
                                 stage, loss_name):
    monkeypatch.setattr(training, loss_name,
                        lambda *args: T.Tensor._wrap(np.asarray(np.nan)))
    with pytest.raises(NumericalError,
                       match=f"NaN loss in {stage} stage at epoch 0 step 0"):
        if stage == "attention":
            train_attention_stage(mini_data, default_hp(), seed=3)
        else:
            train_relation_stage(mini_data, mini_graph, stage1.entries,
                                 default_hp(), seed=3)


def test_training_log_round_trip(tmp_path, stage1):
    path = tmp_path / "log.csv"
    save_training_log(path, stage1.log)
    with open(path, newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["stage", "epoch", "step", "lr", "loss"]
    assert len(rows) == len(stage1.log) + 1
    for row, (stage_name, epoch, step, lr, loss) in zip(rows[1:], stage1.log):
        assert row[0] == stage_name
        assert int(row[1]) == epoch and int(row[2]) == step
        assert float(row[3]) == lr and float(row[4]) == loss
