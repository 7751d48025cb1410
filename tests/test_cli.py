"""End-to-end tests for the command line: every subcommand runs in-process
against a tiny generated dataset, and each documented exit code has a test.
"""

import csv
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from aukit import cli
from aukit import dataset as D
from aukit import graph as G
from aukit import serialize
from aukit import tensor as T
from aukit import training
from aukit.config import load_config
from aukit.errors import AukitError, ConfigError, IoError, NumericalError, ShapeError
from aukit.model import attention_predict, load_model, model_dims


def run(*argv):
    return cli.main(list(argv))


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read().splitlines()


# ---------------------------------------------------------------------------
# Parser-level behaviour (argparse exits via SystemExit)
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("aukit ")


def test_help_shows_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("gen-data", "build-graph", "train", "eval", "infer",
                 "export-attention"):
        assert name in out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


def test_unknown_preset_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("train", "--stage", "attention", "--preset", "huge",
            "--data", str(tmp_path), "--out", str(tmp_path / "x.stck"))
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Shared workspace: dataset -> graph -> both training stages, all via the CLI
# ---------------------------------------------------------------------------

TRAIN_FLAGS = ("--c", "1", "--t", "4", "--m", "2", "--depth", "2", "--epochs", "1")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = SimpleNamespace(
        spec=str(root / "spec.json"),
        data=str(root / "data"),
        graph=str(root / "graph.json"),
        att=str(root / "att.stck"),
        rel=str(root / "rel.stck"),
        video=str(root / "data" / "frames" / "v0000.stnt"),
        root=root,
    )
    D.save_spec(paths.spec, D.default_spec(m=2, videos=2, frames_per_video=8, seed=5))
    assert run("gen-data", "--spec", paths.spec, "--out", paths.data) == 0
    assert run("build-graph", "--labels", os.path.join(paths.data, "labels.csv"),
               "--tau", "0.0", "--out", paths.graph) == 0
    assert run("train", "--stage", "attention", "--data", paths.data,
               "--out", paths.att, *TRAIN_FLAGS) == 0
    assert run("train", "--stage", "relation", "--data", paths.data,
               "--graph", paths.graph, "--stage1", paths.att,
               "--out", paths.rel, *TRAIN_FLAGS) == 0
    return paths


def test_gen_data_layout(ws):
    assert os.path.exists(os.path.join(ws.data, "labels.csv"))
    assert os.path.exists(os.path.join(ws.data, "spec.json"))
    assert os.path.exists(ws.video)
    rows = read_lines(os.path.join(ws.data, "labels.csv"))
    assert rows[0] == "video_id,frame_idx,au_1,au_2"
    assert len(rows) == 1 + 2 * 8  # header + videos * frames
    frames = serialize.load_tensor(ws.video)
    assert frames.shape == (8, 3, 32, 32)


def test_gen_data_is_deterministic(ws, tmp_path):
    assert run("gen-data", "--spec", ws.spec, "--out", str(tmp_path / "again")) == 0
    for rel in ("labels.csv", os.path.join("frames", "v0001.stnt")):
        a = open(os.path.join(ws.data, rel), "rb").read()
        b = open(str(tmp_path / "again" / rel), "rb").read()
        assert a == b


def test_gen_data_missing_spec(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run("gen-data", "--spec", missing, "--out", str(tmp_path / "d")) == 2
    assert missing in capsys.readouterr().err


def test_build_graph_round_trip(ws):
    graph = G.load_graph(ws.graph)
    assert graph.m == 2
    assert np.array_equal(graph.adjacency, graph.adjacency.T)
    assert np.allclose(graph.a_norm.sum(axis=0), 1.0)


def test_build_graph_tau_above_one_warns_and_writes_identity(ws, tmp_path, capsys):
    out = str(tmp_path / "ident.json")
    assert run("build-graph", "--labels", os.path.join(ws.data, "labels.csv"),
               "--tau", "1.5", "--out", out) == 0
    err = capsys.readouterr().err
    assert "warning" in err and "1.5" in err
    assert np.array_equal(G.load_graph(out).adjacency, np.eye(2))


def test_train_writes_checkpoint_and_log(ws):
    assert os.path.exists(ws.att)
    rows = read_lines(ws.att + ".log.csv")
    assert rows[0] == "stage,epoch,step,lr,loss"
    # 2 videos x 2 non-overlapping windows of length 4, batch 4 -> 1 step
    assert len(rows) == 1 + 1
    stage, epoch, step, lr, loss = rows[1].split(",")
    assert stage == "attention" and epoch == "0" and step == "0"
    assert float(lr) > 0 and np.isfinite(float(loss))


def test_train_same_seed_reproduces_checkpoint(ws, tmp_path):
    out = str(tmp_path / "replay.stck")
    assert run("train", "--stage", "attention", "--data", ws.data,
               "--out", out, *TRAIN_FLAGS) == 0
    assert open(out, "rb").read() == open(ws.att, "rb").read()


def test_train_seed_changes_checkpoint(ws, tmp_path):
    out = str(tmp_path / "other.stck")
    assert run("train", "--stage", "attention", "--data", ws.data,
               "--seed", "7", "--out", out, *TRAIN_FLAGS) == 0
    assert open(out, "rb").read() != open(ws.att, "rb").read()


def test_train_relation_requires_graph_and_stage1(ws, tmp_path, capsys):
    assert run("train", "--stage", "relation", "--data", ws.data,
               "--out", str(tmp_path / "x.stck"), *TRAIN_FLAGS) == 2
    assert "--graph" in capsys.readouterr().err


def test_train_config_file_runs(ws, tmp_path):
    config = tmp_path / "hp.json"
    config.write_text(json.dumps(
        {"preset": "toy", "c": 1, "t": 4, "m": 2, "depth": 2}))
    assert run("train", "--stage", "attention", "--data", ws.data,
               "--config", str(config), "--epochs", "1",
               "--out", str(tmp_path / "cfg.stck")) == 0


@pytest.mark.parametrize("key, value", [("freeze_backbone", "false"), ("t", 8.6),
                                        ("batch_size", True)])
def test_train_config_value_of_wrong_type_rejected(ws, tmp_path, capsys, key, value):
    config = tmp_path / "hp.json"
    config.write_text(json.dumps({"c": 1, "t": 4, "m": 2, key: value}))
    with pytest.raises(ConfigError, match=key):
        load_config(config)
    assert run("train", "--stage", "attention", "--data", ws.data,
               "--config", str(config), "--out", str(tmp_path / "x.stck")) == 2
    assert key in capsys.readouterr().err


def test_config_int_accepted_for_float_field(tmp_path):
    config = tmp_path / "hp.json"
    config.write_text(json.dumps({"lambda_r": 0}))
    hp = load_config(config)
    assert hp.lambda_r == 0.0 and isinstance(hp.lambda_r, float)


def test_train_config_and_preset_conflict(ws, tmp_path, capsys):
    config = tmp_path / "hp.json"
    config.write_text(json.dumps({"m": 2}))
    assert run("train", "--stage", "attention", "--data", ws.data,
               "--config", str(config), "--preset", "toy",
               "--out", str(tmp_path / "x.stck")) == 2
    assert "not both" in capsys.readouterr().err


def test_train_label_count_mismatch(ws, tmp_path):
    assert run("train", "--stage", "attention", "--data", ws.data,
               "--c", "1", "--t", "4", "--m", "3", "--epochs", "1",
               "--out", str(tmp_path / "x.stck")) == 2


def test_train_epochs_beyond_schedule(ws, tmp_path):
    assert run("train", "--stage", "attention", "--data", ws.data,
               "--out", str(tmp_path / "x.stck"),
               "--c", "1", "--t", "4", "--m", "2", "--epochs", "99") == 2


@pytest.mark.parametrize("stage", ["attention", "relation"])
def test_train_negative_epochs_rejected(ws, tmp_path, capsys, stage):
    out = tmp_path / "x.stck"
    assert run("train", "--stage", stage, "--data", ws.data, "--graph", ws.graph,
               "--stage1", ws.att, "--out", str(out), *TRAIN_FLAGS, "--epochs", "-1") == 2
    assert "epochs must be >= 0, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _stage1_entries(path):
    entries = load_model(path)
    return {n: t.data for n, t in entries.items() if n.startswith(("backbone.", "branch."))}


def test_train_relation_freeze_backbone_flag(ws, tmp_path):
    stage1 = _stage1_entries(ws.att)
    frozen = _stage1_entries(ws.rel)  # trained with the default
    assert list(frozen) == list(stage1)
    assert all(frozen[n].tobytes() == stage1[n].tobytes() for n in stage1)
    out = str(tmp_path / "unfrozen.stck")
    assert run("train", "--stage", "relation", "--data", ws.data, "--graph", ws.graph,
               "--stage1", ws.att, "--out", out, *TRAIN_FLAGS,
               "--freeze-backbone", "false") == 0
    unfrozen = _stage1_entries(out)
    changed = [n for n in stage1 if not np.array_equal(unfrozen[n], stage1[n])]
    assert any(n.startswith("backbone.") for n in changed)
    assert any(n.startswith("branch.") for n in changed)


def test_train_relation_on_a_relation_checkpoint(ws, tmp_path):
    # The given model's graph stack is dropped, not carried into the output.
    out = str(tmp_path / "again.stck")
    assert run("train", "--stage", "relation", "--data", ws.data, "--graph", ws.graph,
               "--stage1", ws.rel, "--out", out, *TRAIN_FLAGS,
               "--depth", "1", "--t-k", "5") == 0
    dims = model_dims(load_model(out))
    assert (dims.depth, dims.t_k) == (1, 5)


@pytest.mark.parametrize("stage, loss_name", [("attention", "attention_stage_loss"),
                                              ("relation", "au_detection_loss")])
def test_train_nan_loss_exits_4(ws, tmp_path, monkeypatch, capsys, stage, loss_name):
    monkeypatch.setattr(training, loss_name,
                        lambda *args: T.Tensor._wrap(np.asarray(np.nan)))
    assert run("train", "--stage", stage, "--data", ws.data, "--graph", ws.graph,
               "--stage1", ws.att, "--out", str(tmp_path / "x.stck"), *TRAIN_FLAGS) == 4
    assert f"NaN loss in {stage} stage at epoch 0 step 0" in capsys.readouterr().err


def test_eval_metrics_csv(ws, tmp_path, capsys):
    out = str(tmp_path / "metrics.csv")
    assert run("eval", "--ckpt", ws.rel, "--data", ws.data, "--out", out) == 0
    assert "avg F1" in capsys.readouterr().out
    with open(out, newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["au", "precision", "recall", "f1", "accuracy"]
    assert [r[0] for r in rows[1:]] == ["au_1", "au_2", "Avg"]
    for row in rows[1:]:
        assert all(0.0 <= float(v) <= 1.0 for v in row[1:])


def test_eval_attention_only_checkpoint(ws, tmp_path):
    out = str(tmp_path / "metrics.csv")
    assert run("eval", "--ckpt", ws.att, "--data", ws.data, "--out", out) == 0
    assert read_lines(out)[-1].startswith("Avg,")


def test_eval_with_explicit_graph(ws, tmp_path):
    out = str(tmp_path / "metrics.csv")
    assert run("eval", "--ckpt", ws.rel, "--data", ws.data,
               "--graph", ws.graph, "--out", out) == 0


def test_eval_graph_node_mismatch(ws, tmp_path, capsys):
    labels3 = tmp_path / "labels3.csv"
    labels3.write_text(
        "video_id,frame_idx,au_1,au_2,au_3\n"
        "a,0,1,0,1\na,1,0,1,1\na,2,1,1,0\na,3,0,0,1\n"
    )
    graph3 = str(tmp_path / "graph3.json")
    assert run("build-graph", "--labels", str(labels3), "--out", graph3) == 0
    assert run("eval", "--ckpt", ws.rel, "--data", ws.data,
               "--graph", graph3, "--out", str(tmp_path / "m.csv")) == 2
    assert "3 nodes" in capsys.readouterr().err


def test_infer_probability_rows(ws, tmp_path):
    out = str(tmp_path / "probs.csv")
    assert run("infer", "--ckpt", ws.rel, "--frames", ws.video, "--out", out) == 0
    rows = read_lines(out)
    assert rows[0] == "frame_idx,au_1,au_2"
    assert len(rows) == 1 + 8
    for i, row in enumerate(rows[1:]):
        cells = row.split(",")
        assert cells[0] == str(i)
        assert all(0.0 < float(v) < 1.0 for v in cells[1:])
    assert "np." not in "".join(rows)  # cells are plain decimal literals


def test_infer_with_attention_checkpoint(ws, tmp_path):
    out = str(tmp_path / "probs.csv")
    assert run("infer", "--ckpt", ws.att, "--frames", ws.video, "--out", out) == 0
    assert len(read_lines(out)) == 1 + 8


@pytest.mark.parametrize("kind", ["att", "rel"])
def test_infer_on_zero_frames_writes_a_header_only_csv(ws, tmp_path, kind):
    empty = str(tmp_path / "empty.stnt")
    serialize.save_tensor(empty, serialize.load_tensor(ws.video)[:0])  # (0, 3, l, l)
    out = str(tmp_path / "probs.csv")
    assert run("infer", "--ckpt", getattr(ws, kind), "--frames", empty, "--out", out) == 0
    assert read_lines(out) == ["frame_idx,au_1,au_2"]


@pytest.fixture
def rel_without_graph(ws, tmp_path):
    arrays = serialize.load_checkpoint(ws.rel)
    path = str(tmp_path / "nograph.stck")
    serialize.save_checkpoint(path, {k: v for k, v in arrays.items()
                                     if not k.startswith("graph.")})
    return path


def test_infer_without_embedded_graph_names_no_option_it_lacks(
        ws, tmp_path, capsys, rel_without_graph):
    assert run("infer", "--ckpt", rel_without_graph, "--frames", ws.video,
               "--out", str(tmp_path / "p.csv")) == 2
    err = capsys.readouterr().err
    assert "no embedded graph" in err and "--graph" not in err


def test_eval_without_embedded_graph_asks_for_graph(ws, tmp_path, capsys, rel_without_graph):
    out = str(tmp_path / "m.csv")
    assert run("eval", "--ckpt", rel_without_graph, "--data", ws.data, "--out", out) == 2
    err = capsys.readouterr().err
    assert "no embedded graph" in err and "pass --graph" in err
    assert run("eval", "--ckpt", rel_without_graph, "--data", ws.data,
               "--graph", ws.graph, "--out", out) == 0


def test_infer_rejects_bad_frames_shape(ws, tmp_path, capsys):
    bad = str(tmp_path / "bad.stnt")
    serialize.save_tensor(bad, np.zeros((4, 4)))
    assert run("infer", "--ckpt", ws.rel, "--frames", bad,
               "--out", str(tmp_path / "p.csv")) == 2
    assert "(t, 3, h, w)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, edit",
    [
        ("branch.2.feat.kernels", lambda arrays: arrays.pop("branch.2.feat.kernels")),
        ("backbone.layer2.stage2.bias", lambda arrays: arrays.pop("backbone.layer2.stage2.bias")),
        ("branch.2.feat.kernels",
         lambda arrays: arrays.update({"branch.2.feat.kernels": np.zeros((8, 8, 3, 5))})),
    ],
    ids=["missing-branch-entry", "missing-backbone-entry", "narrow-feat-kernels"],
)
def test_infer_rejects_checkpoint_unlike_its_architecture(ws, tmp_path, capsys, name, edit):
    arrays = serialize.load_checkpoint(ws.rel)
    edit(arrays)
    bad = str(tmp_path / "bad.stck")
    serialize.save_checkpoint(bad, arrays)
    assert run("infer", "--ckpt", bad, "--frames", ws.video,
               "--out", str(tmp_path / "p.csv")) == 2
    assert name in capsys.readouterr().err


def test_infer_missing_checkpoint_is_io_error(ws, tmp_path):
    assert run("infer", "--ckpt", str(tmp_path / "none.stck"),
               "--frames", ws.video, "--out", str(tmp_path / "p.csv")) == 3


def test_export_attention_writes_one_map_per_frame_and_label(ws, tmp_path):
    out = tmp_path / "maps"
    assert run("export-attention", "--ckpt", ws.att, "--frames", ws.video,
               "--out", str(out)) == 0
    files = sorted(os.listdir(out))
    assert len(files) == 8 * 2  # frames x labels
    assert "v0000_0_1.pgm" in files and "v0000_7_2.pgm" in files
    assert "v0000_0_0.pgm" not in files  # label indices are 1-based
    with open(out / "v0000_0_1.pgm", "rb") as fp:
        assert fp.read(2) == b"P5"


def test_export_attention_of_a_three_frame_video_writes_each_frames_own_maps(ws, tmp_path):
    # Inside the model the frames are batch-last; each exported map must
    # still be its own frame's, as if that frame were predicted alone.
    frames = serialize.load_tensor(ws.video)[:3]
    video = tmp_path / "three.stnt"
    serialize.save_tensor(video, frames)
    out = tmp_path / "maps"
    assert run("export-attention", "--ckpt", ws.att, "--frames", str(video),
               "--out", str(out)) == 0
    assert sorted(os.listdir(out)) == [f"three_{i}_{j}.pgm" for i in range(3) for j in (1, 2)]
    entries = load_model(ws.att)
    for i in range(3):
        alone = attention_predict(entries, frames[i:i + 1])[0][0]  # (m, h/4, w/4)
        for j in (1, 2):
            expected = tmp_path / f"alone_{i}_{j}.pgm"
            serialize.save_pgm(expected, alone[j - 1])
            assert (out / f"three_{i}_{j}.pgm").read_bytes() == expected.read_bytes()


def test_json_logs_are_parseable(ws, tmp_path, capsys):
    assert run("build-graph", "--json-logs",
               "--labels", os.path.join(ws.data, "labels.csv"),
               "--out", str(tmp_path / "g.json")) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["level"] == "info" and line["nodes"] == 2


def test_json_logs_on_error_path(ws, tmp_path, capsys):
    assert run("train", "--json-logs", "--stage", "relation", "--data", ws.data,
               "--out", str(tmp_path / "x.stck"), *TRAIN_FLAGS) == 2
    line = json.loads(capsys.readouterr().err.strip())
    assert line["level"] == "error" and "--graph" in line["msg"]


@pytest.mark.parametrize(
    "exc,code",
    [
        (ShapeError("bad shape"), 2),
        (IoError("disk trouble"), 3),
        (NumericalError("loss diverged"), 4),
        (AukitError("broken invariant"), 1),
    ],
)
def test_exit_code_mapping(monkeypatch, capsys, exc, code):
    def boom(args, log):
        raise exc

    monkeypatch.setattr(cli, "_cmd_gen_data", boom)
    assert run("gen-data", "--spec", "s", "--out", "o") == code
    assert str(exc) in capsys.readouterr().err
