"""Tests of the benchmark's own checks and of its exit status.

    python3 -m pytest -q bench

Each check must pass on a correct input and fail on a deliberately wrong
one.  The last tests run the benchmark command on a copy of the sources with
a planted fault, and in a directory without the sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from aukit import dataset, graph, metrics, model  # noqa: E402


def ok(result):
    return result[0]


def test_labels_binary():
    good = [np.array([[0.0, 1.0], [1.0, 0.0]])]
    assert ok(checks.labels_binary(good))
    bad = [good[0].copy()]
    bad[0][1, 1] = 0.5
    assert not ok(checks.labels_binary(bad))


@pytest.fixture(scope="module")
def small_data():
    spec = dataset.default_spec(videos=2, frames_per_video=16, seed=3)
    labels = [dataset.generate_video_labels(spec, v) for v in range(spec.videos)]
    frames = [dataset.render_video(spec, v, y) for v, y in enumerate(labels)]
    return spec, labels, frames


def test_residual_is_noise(small_data):
    spec, labels, frames = small_data
    assert ok(checks.residual_is_noise(frames, labels, spec))
    # Blobs drawn for the wrong labels, and noise at the wrong level.
    swapped = [y[:, ::-1] for y in labels]
    assert not ok(checks.residual_is_noise(frames, swapped, spec))
    louder = [f + 0.05 * np.sign(f) for f in frames]
    assert not ok(checks.residual_is_noise(louder, labels, spec))


def test_graph_consistent(small_data):
    _, labels, _ = small_data
    g = graph.build_graph(np.concatenate(labels), 0.15)
    assert ok(checks.graph_consistent(g))
    a_norm = g.a_norm.copy()
    a_norm[0, 0] += 1e-9
    assert not ok(checks.graph_consistent(dataclasses.replace(g, a_norm=a_norm)))
    parts = (g.parts[0], g.parts[1] * 0.5, g.parts[2])
    assert not ok(checks.graph_consistent(dataclasses.replace(g, parts=parts)))


def test_all_finite():
    assert ok(checks.all_finite([0.5, 1.0]))
    assert not ok(checks.all_finite([0.5, math.nan]))
    assert not ok(checks.all_finite([]))


def test_identical_entries():
    entries = model.init_attention_entries(1, 2, 0)
    assert ok(checks.identical_entries(entries, [model.init_attention_entries(1, 2, 0)]))
    changed = dict(entries)
    name = "branch.1.head.weight"
    changed[name] = model.T.Tensor(np.nextafter(entries[name].data, 1.0))
    assert not ok(checks.identical_entries(entries, [changed]))


def test_directional_derivative():
    target = {"a": np.array([1.0, -2.0]), "b": np.array([[0.5]])}

    def loss_at(params):
        return sum(float(((params[k] - target[k]) ** 2).sum()) for k in params)

    params = {"a": np.array([0.3, 0.1]), "b": np.array([[2.0]])}
    grads = {k: 2.0 * (params[k] - target[k]) for k in params}
    assert ok(checks.directional_derivative(loss_at, params, grads))
    wrong = dict(grads, b=-grads["b"])
    assert not ok(checks.directional_derivative(loss_at, params, wrong))


def test_grads_complete():
    params = {"w": np.zeros((2, 3)), "b": np.zeros(3)}
    names = list(params)
    assert ok(checks.grads_complete(params, {"w": np.ones((2, 3)), "b": np.ones(3)}, names))
    assert not ok(checks.grads_complete(params, {"w": np.ones((2, 3))}, names))
    assert not ok(checks.grads_complete(params, {"w": np.ones((3, 2)), "b": np.ones(3)}, names))


def test_probabilities_valid():
    probs = np.full((4, 3), 0.5)
    assert ok(checks.probabilities_valid(probs, 4, 3))
    assert not ok(checks.probabilities_valid(probs, 3, 4))
    probs[2, 1] = 1.0 + 1e-9
    assert not ok(checks.probabilities_valid(probs, 4, 3))


def test_halves_agree():
    whole = np.arange(12.0).reshape(4, 3)
    assert ok(checks.halves_agree(whole, whole[:2], whole[2:]))
    assert not ok(checks.halves_agree(whole, whole[2:], whole[:2]))


def test_head_on_features():
    rng = np.random.default_rng(0)
    feats, weights, biases = rng.normal(size=(8, 5, 3)), rng.normal(size=(3, 8)), rng.normal(size=3)
    probs = np.stack([checks.sigmoid(weights[j] @ feats[:, :, j] + biases[j]) for j in range(3)], 1)
    assert ok(checks.head_on_features(probs, feats, weights, biases))
    probs[4, 2] += 1e-6
    assert not ok(checks.head_on_features(probs, feats, weights, biases))


def test_eval_csv_matches(tmp_path):
    rng = np.random.default_rng(1)
    probs = rng.uniform(size=(40, 3))
    truth = (rng.uniform(size=(40, 3)) < 0.5).astype(float)
    path = tmp_path / "metrics.csv"
    metrics.save_metrics_csv(path, metrics.f1_accuracy(metrics.binarize(probs), truth))
    assert ok(checks.eval_csv_matches(path, probs, truth))
    flipped = probs.copy()
    flipped[0, 0] = 1.0 - flipped[0, 0]
    assert not ok(checks.eval_csv_matches(path, flipped, truth))


def test_infer_csv_matches(tmp_path):
    probs = np.random.default_rng(2).uniform(size=(6, 2))
    path = tmp_path / "probs.csv"
    rows = ["frame_idx,au_1,au_2"]
    rows += [f"{i},{float(a)!r},{float(b)!r}" for i, (a, b) in enumerate(probs)]
    path.write_text("\n".join(rows) + "\n")
    assert ok(checks.infer_csv_matches(path, probs))
    assert not ok(checks.infer_csv_matches(path, probs[::-1]))


def test_init_in_range():
    entries = model.init_attention_entries(2, 4, 0)
    assert ok(checks.init_in_range(entries))
    for name, factor in (("backbone.layer1.stage1.kernels", 1.2),
                         ("backbone.layer2.stage1.kernels", 0.8)):
        scaled = dict(entries, **{name: model.T.Tensor(entries[name].data * factor)})
        assert not ok(checks.init_in_range(scaled))
    biased = dict(entries, **{"branch.1.att.bias": model.T.Tensor(np.full(1, 0.1))})
    assert not ok(checks.init_in_range(biased))


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def _copy_checkout(dest, with_sources=True):
    shutil.copytree(HERE, os.path.join(dest, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))


def _bench(cwd, workload="toy-serve"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_command_fails_when_a_check_fails(tmp_path):
    _copy_checkout(tmp_path)
    source = tmp_path / "src" / "aukit" / "metrics.py"
    text = source.read_text()
    planted = text.replace("recall = _ratio(tp, tp + fn)", "recall = _ratio(tp, tp + fn + 1.0)")
    assert planted != text
    source.write_text(planted)
    proc = _bench(tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "check FAIL eval scores equal counts" in proc.stdout


def test_command_fails_without_sources(tmp_path):
    _copy_checkout(tmp_path, with_sources=False)
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
