"""End-to-end tests for the command line: every subcommand runs in-process
against a tiny generated dataset, and each documented exit code has a test.
"""

import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import aukit
from aukit import cli
from aukit import dataset as D
from aukit import graph as G
from aukit import serialize
from aukit import tensor as T
from aukit import training
from aukit.config import HyperParams, load_config
from aukit.errors import AukitError, ConfigError, IoError, NumericalError, ShapeError
from aukit.model import (attention_predict, extract_graph, init_attention_entries, load_model,
                         model_dims, save_model)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    for name in ("gen-data", "train", "eval", "infer", "export-attention"):
        assert name in out
    assert "build-graph" not in out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2


def test_unknown_preset_rejected_by_parser(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("train", "--stage", "attention", "--preset", "huge",
            "--data", str(tmp_path), "--out", str(tmp_path / "x.stck"))
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("gen-data", "--spec", "spec.json", "--out", "data"),
    ("eval", "--ckpt", "model.stck", "--data", "data", "--out", "metrics.csv"),
    ("infer", "--ckpt", "model.stck", "--frames", "v.stnt", "--out", "probs.csv"),
    ("export-attention", "--ckpt", "model.stck", "--frames", "v.stnt", "--out", "maps"),
], ids=lambda argv: argv[0])
def test_seed_is_a_train_flag_only(argv, capsys):
    # Only training draws random numbers; gen-data takes its seed from the spec.
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--seed", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


# Each probe runs the program its own way, or imports it as a library, and
# prints the BLAS variables once numpy has loaded.
BLAS_PROBES = {
    "script": "from aukit.launch import main; main({argv!r})",
    "module": "sys.argv[1:] = {argv!r}; runpy.run_module('aukit.cli', run_name='__main__')",
    "library": "import aukit.cli",
}


@pytest.mark.parametrize("entry, argv, preset, expected", [
    ("script", ["infer", "--help"], {}, ["1", "1", "1"]),
    ("module", ["eval", "--help"], {}, ["1", "1", "1"]),
    ("script", ["export-attention", "--help"], {"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
    ("module", ["train", "--help"], {}, ["1", "1", "1"]),
    ("script", ["gen-data", "--help"], {}, ["1", "1", "1"]),
    ("library", [], {}, ["-", "-", "-"]),
], ids=["script-serving", "module-serving", "user-set", "module-train", "script-gen-data",
        "library"])
def test_blas_threads_default_to_one_for_the_program(entry, argv, preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(aukit.__file__))
    probe = ("import os, runpy, sys\ntry:\n    " + BLAS_PROBES[entry].format(argv=argv)
             + "\nexcept SystemExit:\n    pass\nassert 'numpy' in sys.modules\n"
             f"print(' '.join(os.environ.get(v, '-') for v in {BLAS_VARS!r}), file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe], env={**env, **preset},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == expected


# ---------------------------------------------------------------------------
# Shared workspace: dataset -> both training stages, all via the CLI
# ---------------------------------------------------------------------------

TRAIN_FLAGS = ("--c", "1", "--t", "4", "--m", "2", "--depth", "2", "--epochs", "1")
#: The relation stage builds its graph from the training labels at this tau.
RELATION_FLAGS = (*TRAIN_FLAGS, "--tau", "0.0")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = SimpleNamespace(
        spec=str(root / "spec.json"),
        data=str(root / "data"),
        att=str(root / "att.stck"),
        rel=str(root / "rel.stck"),
        video=str(root / "data" / "frames" / "v0000.stnt"),
        root=root,
    )
    D.save_spec(paths.spec, D.default_spec(m=2, videos=2, frames_per_video=8, seed=5))
    assert run("gen-data", "--spec", paths.spec, "--out", paths.data) == 0
    assert run("train", "--stage", "attention", "--data", paths.data,
               "--out", paths.att, *TRAIN_FLAGS) == 0
    assert run("train", "--stage", "relation", "--data", paths.data,
               "--stage1", paths.att, "--out", paths.rel, *RELATION_FLAGS) == 0
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
        a = Path(ws.data, rel).read_bytes()
        b = (tmp_path / "again" / rel).read_bytes()
        assert a == b


def test_gen_data_missing_spec(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run("gen-data", "--spec", missing, "--out", str(tmp_path / "d")) == 2
    assert missing in capsys.readouterr().err


def test_gen_data_rejects_a_spec_with_a_fractional_center(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    D.save_spec(spec, D.default_spec(m=2))
    payload = json.loads(spec.read_text())
    payload["centers"] = [[4.5, 4.5], [8, 24]]
    spec.write_text(json.dumps(payload))
    assert run("gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")) == 2
    assert "key 'centers': must hold whole numbers" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("key, value", [("noise", float("nan")), ("persistence", [None, 0.9]),
                                        ("radius", [float("inf"), 2.0])])
def test_gen_data_rejects_a_spec_with_a_non_finite_value(tmp_path, capsys, key, value):
    spec = tmp_path / "spec.json"
    D.save_spec(spec, D.default_spec(m=2))
    spec.write_text(json.dumps({**json.loads(spec.read_text()), key: value}))
    assert run("gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


#: SHA-256 of each text file that test_text_outputs_are_pinned writes.
TEXT_DIGESTS = {
    "spec.json": "1de8c3e609103e55bb9ea74a9929811d37a895a2eec0d09535fea781d96a3ded",
    "labels.csv": "a91b3ca7b044f303d929c3af29cbd884a869816b5de30abb3f686e0766e87592",
    "metrics.csv": "4f3ccb682e4a6be19c9d00ad162b0e282a306bbf7ec61e04769e7f26fdcf2c5a",
    "train.log.csv": "9726eadff1d5c004022f3d92f46a4b198333cf48ee65b890bc0ddd913beb11a5",
    "probs.csv": "01e938faab7382cf0298a1dedfbebe600fe6eaf9e02c0ed18b31110c27ab3748",
}


def test_text_outputs_are_pinned(tmp_path):
    # spec.json, labels.csv, metrics.csv, a training log and an infer CSV of
    # one fixed small input, each written by its own command or function.
    spec = tmp_path / "spec.json"
    D.save_spec(spec, D.default_spec(m=2, videos=2, frames_per_video=4, seed=0))
    data = tmp_path / "data"
    assert run("gen-data", "--spec", str(spec), "--out", str(data)) == 0
    ckpt = str(tmp_path / "model.stck")
    save_model(ckpt, init_attention_entries(1, 2, seed=4))
    assert run("eval", "--ckpt", ckpt, "--data", str(data),
               "--out", str(tmp_path / "metrics.csv")) == 0
    assert run("infer", "--ckpt", ckpt, "--frames", str(data / "frames" / "v0000.stnt"),
               "--out", str(tmp_path / "probs.csv")) == 0
    training.save_training_log(tmp_path / "train.log.csv", [
        ("attention", 0, 0, 0.01, 2.0 / 3.0), ("relation", 1, 12, 1e-05, 0.1)])
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (spec, data / "labels.csv", tmp_path / "metrics.csv",
                            tmp_path / "train.log.csv", tmp_path / "probs.csv")}
    assert (data / "spec.json").read_bytes() == spec.read_bytes()
    assert digests == TEXT_DIGESTS


def test_relation_checkpoint_embeds_the_training_labels_graph(ws):
    entries = load_model(ws.rel)
    assert [n for n in entries if n.startswith("graph.")] == ["graph.tau", "graph.pcc"]
    want = G.build_graph(D.stacked_labels(D.load_dataset(ws.data)), 0.0)
    assert entries["graph.pcc"].data.tobytes() == want.pcc.tobytes()
    assert entries["graph.tau"].data.tobytes() == np.asarray(0.0).tobytes()
    graph = extract_graph(entries)
    assert graph.m == 2 and graph.gravity == want.gravity
    assert np.array_equal(graph.adjacency, want.adjacency)
    assert np.array_equal(graph.adjacency, graph.adjacency.T)
    assert np.allclose(graph.a_norm.sum(axis=0), 1.0)


def test_train_relation_tau_above_one_embeds_the_identity_graph(ws, tmp_path, capsys):
    out = str(tmp_path / "ident.stck")
    assert run("train", "--stage", "relation", "--data", ws.data, "--stage1", ws.att,
               "--out", out, *TRAIN_FLAGS, "--tau", "1.5") == 0
    assert capsys.readouterr().out.strip().endswith(
        "; graph nodes 2, edges 0, gravity 1, tau 1.5")
    graph = extract_graph(load_model(out))
    assert graph.tau == 1.5 and np.array_equal(graph.adjacency, np.eye(2))
    # The workspace model, trained at tau 0.0, joins its two nodes.
    assert np.array_equal(extract_graph(load_model(ws.rel)).adjacency, np.ones((2, 2)))


@pytest.mark.parametrize("tau, code", [("0.0", 0), ("0.5", 2)])
def test_relation_resume_keeps_its_embedded_graph(ws, tmp_path, capsys, tau, code):
    # The workspace model embeds the graph of the training labels at tau 0.0.
    out = str(tmp_path / "resumed.stck")
    assert run("train", "--stage", "relation", "--data", ws.data, "--stage1", ws.att,
               "--from-checkpoint", ws.rel, "--out", out, *TRAIN_FLAGS, "--tau", tau) == code
    if code:
        assert "(tau=0.0) differs from the graph the training labels give at tau=0.5" in (
            capsys.readouterr().err)
        assert not os.path.exists(out)
    else:
        assert extract_graph(load_model(out)).pcc.tobytes() == (
            extract_graph(load_model(ws.rel)).pcc.tobytes())


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf"])
def test_train_non_finite_tau_rejected(ws, tmp_path, capsys, tau):
    out = tmp_path / "x.stck"
    assert run("train", "--stage", "relation", "--data", ws.data, "--stage1", ws.att,
               "--out", str(out), *TRAIN_FLAGS, f"--tau={tau}") == 2
    assert f"tau must be finite, got {float(tau)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    assert Path(out).read_bytes() == Path(ws.att).read_bytes()


def test_train_seed_changes_checkpoint(ws, tmp_path):
    out = str(tmp_path / "other.stck")
    assert run("train", "--stage", "attention", "--data", ws.data,
               "--seed", "7", "--out", out, *TRAIN_FLAGS) == 0
    assert Path(out).read_bytes() != Path(ws.att).read_bytes()


def test_train_relation_requires_stage1(ws, tmp_path, capsys):
    assert run("train", "--stage", "relation", "--data", ws.data,
               "--out", str(tmp_path / "x.stck"), *TRAIN_FLAGS) == 2
    assert "--stage1" in capsys.readouterr().err


def test_train_relation_rejects_a_stage1_of_other_sizes(ws, tmp_path, capsys):
    # The workspace stage 1 has c=1.
    out = tmp_path / "x.stck"
    assert run("train", "--stage", "relation", "--data", ws.data, "--stage1", ws.att,
               "--out", str(out), *RELATION_FLAGS, "--c", "2") == 2
    assert "sizes (c=1, m=2) do not match config (c=2, m=2)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_attention_rejects_stage1(ws, tmp_path, capsys):
    assert run("train", "--stage", "attention", "--data", ws.data, "--stage1", ws.att,
               "--out", str(tmp_path / "x.stck"), *TRAIN_FLAGS) == 2
    assert "--stage1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


#: A flag's text and its parsed value, and config values of the wrong kind, per annotation.
FLAG_VALUE = {"int": ("3", 3), "float": ("0.5", 0.5), "bool": ("false", False)}
WRONG_KIND = {"int": ["3", 2.5], "float": ["0.5"], "bool": [1]}


@pytest.mark.parametrize("field", dataclasses.fields(HyperParams), ids=lambda f: f.name)
def test_every_hyperparameter_has_a_typed_train_flag(field):
    args = cli.build_parser().parse_args(
        ["train", "--stage", "attention", "--data", "d", "--out", "o",
         "--" + field.name.replace("_", "-"), FLAG_VALUE[field.type][0]])
    value, want = getattr(args, field.name), FLAG_VALUE[field.type][1]
    assert type(value) is type(want) and value == want


@pytest.mark.parametrize("key, value", [
    (field.name, value) for field in dataclasses.fields(HyperParams)
    for value in WRONG_KIND[field.type]])
def test_config_value_of_the_wrong_kind_names_its_key(tmp_path, capsys, key, value):
    config = tmp_path / "hp.json"
    config.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=f"key '{key}': must"):
        load_config(config)
    out = tmp_path / "x.stck"
    assert run("train", "--stage", "attention", "--data", str(tmp_path),
               "--config", str(config), "--out", str(out)) == 2
    assert f"key '{key}': must" in capsys.readouterr().err
    assert not out.exists()


def test_config_unknown_key_is_rejected(tmp_path, capsys):
    config = tmp_path / "hp.json"
    config.write_text(json.dumps({"lambda": 0.1}))
    with pytest.raises(ConfigError, match="unknown key 'lambda'"):
        load_config(config)
    assert run("train", "--stage", "attention", "--data", str(tmp_path),
               "--config", str(config), "--out", str(tmp_path / "x.stck")) == 2
    assert "unknown key 'lambda'" in capsys.readouterr().err


@pytest.mark.parametrize("preset", [3, ["toy"], "huge"])
def test_config_preset_must_name_a_preset(tmp_path, preset):
    config = tmp_path / "hp.json"
    config.write_text(json.dumps({"preset": preset}))
    with pytest.raises(ConfigError, match="unknown preset"):
        load_config(config)


def test_config_whole_valued_float_loads_as_int(tmp_path):
    config = tmp_path / "hp.json"
    config.write_text(json.dumps({"t": 8.0, "preset": "paper"}))
    hp = load_config(config)
    assert type(hp.t) is int and hp.t == 8 and hp.c == 8


def test_config_non_finite_value_rejected(tmp_path):
    config = tmp_path / "hp.json"
    config.write_text('{"weight_decay": NaN}')
    with pytest.raises(ConfigError, match="weight_decay must be finite, got nan"):
        load_config(config)


@pytest.mark.parametrize("flag, text, field", [("--lambda-r", "nan", "lambda_r"),
                                               ("--attention-lr", "inf", "attention_lr"),
                                               ("--momentum", "-inf", "momentum")])
def test_train_non_finite_float_flag_rejected(tmp_path, capsys, flag, text, field):
    assert run("train", "--stage", "attention", "--data", str(tmp_path),
               "--out", str(tmp_path / "x.stck"), f"{flag}={text}") == 2
    assert f"{field} must be finite, got {float(text)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_train_flags_override_config_values_through_the_same_checks(tmp_path):
    config = tmp_path / "hp.json"
    config.write_text(json.dumps({"preset": "paper", "depth": 3, "tau": 0.5}))
    argv = ["train", "--stage", "attention", "--data", "d", "--out", "o",
            "--config", str(config), "--depth", "2"]
    hp = cli._resolve_hyperparams(cli.build_parser().parse_args(argv))
    assert hp == dataclasses.replace(load_config(config), depth=2) == load_config(
        config, {"depth": 2})
    with pytest.raises(ConfigError, match="tau must be finite"):
        cli._resolve_hyperparams(cli.build_parser().parse_args([*argv, "--tau", "nan"]))
    with pytest.raises(ConfigError, match="depth must be positive"):
        cli._resolve_hyperparams(cli.build_parser().parse_args([*argv, "--depth", "0"]))


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


def _stage_flags(ws, stage):
    return ("--stage1", ws.att, *RELATION_FLAGS) if stage == "relation" else TRAIN_FLAGS


@pytest.mark.parametrize("stage", ["attention", "relation"])
def test_train_negative_epochs_rejected(ws, tmp_path, capsys, stage):
    out = tmp_path / "x.stck"
    assert run("train", "--stage", stage, "--data", ws.data, "--out", str(out),
               *_stage_flags(ws, stage), "--epochs", "-1") == 2
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
    assert run("train", "--stage", "relation", "--data", ws.data,
               "--stage1", ws.att, "--out", out, *RELATION_FLAGS,
               "--freeze-backbone", "false") == 0
    unfrozen = _stage1_entries(out)
    changed = [n for n in stage1 if not np.array_equal(unfrozen[n], stage1[n])]
    assert any(n.startswith("backbone.") for n in changed)
    assert any(n.startswith("branch.") for n in changed)


def test_train_relation_on_a_relation_checkpoint(ws, tmp_path):
    # The given model's graph stack is dropped, not carried into the output.
    out = str(tmp_path / "again.stck")
    assert run("train", "--stage", "relation", "--data", ws.data,
               "--stage1", ws.rel, "--out", out, *RELATION_FLAGS,
               "--depth", "1", "--t-k", "5") == 0
    dims = model_dims(load_model(out))
    assert (dims.depth, dims.t_k) == (1, 5)


@pytest.mark.parametrize("stage, loss_name", [("attention", "attention_stage_loss"),
                                              ("relation", "au_detection_loss")])
def test_train_nan_loss_exits_4(ws, tmp_path, monkeypatch, capsys, stage, loss_name):
    monkeypatch.setattr(training, loss_name,
                        lambda *args: T.Tensor._wrap(np.asarray(np.nan)))
    assert run("train", "--stage", stage, "--data", ws.data,
               "--out", str(tmp_path / "x.stck"), *_stage_flags(ws, stage)) == 4
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


def test_eval_without_embedded_graph_names_no_option_it_lacks(
        ws, tmp_path, capsys, rel_without_graph):
    out = str(tmp_path / "m.csv")
    assert run("eval", "--ckpt", rel_without_graph, "--data", ws.data, "--out", out) == 2
    err = capsys.readouterr().err
    assert "no embedded graph" in err and "--graph" not in err


def test_infer_rejects_bad_frames_shape(ws, tmp_path, capsys):
    bad = str(tmp_path / "bad.stnt")
    serialize.save_tensor(bad, np.zeros((4, 4)))
    assert run("infer", "--ckpt", ws.rel, "--frames", bad,
               "--out", str(tmp_path / "p.csv")) == 2
    assert "(t, 3, h, w)" in capsys.readouterr().err


def test_infer_rejects_40_px_frames_over_two_passes(ws, tmp_path, capsys):
    bad = str(tmp_path / "bad.stnt")
    serialize.save_tensor(bad, np.zeros((8, 3, 40, 40)))  # two passes: caller and worker
    assert run("infer", "--ckpt", ws.rel, "--frames", bad,
               "--out", str(tmp_path / "p.csv")) == 2
    assert "40" in capsys.readouterr().err


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


def test_infer_read_error_partway_is_io_error(ws, tmp_path, monkeypatch, capsys):
    # The checkpoint opens, then a read inside it fails, as a failing disk does.
    def failing(reader):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(serialize, "read_tensor", failing)
    assert run("infer", "--ckpt", ws.rel, "--frames", ws.video,
               "--out", str(tmp_path / "p.csv")) == 3
    assert f"cannot read checkpoint {ws.rel}: " in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


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
    assert run("train", "--json-logs", "--stage", "relation", "--data", ws.data,
               "--stage1", ws.att, "--out", str(tmp_path / "x.stck"), *RELATION_FLAGS) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line["level"] == "info" and line["nodes"] == 2
    assert (line["edges"], line["gravity"], line["tau"]) == (1, 1, 0.0)


def _strict_json(line):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("command", ["gen-data", "train-0", "train-1", "eval", "infer"])
def test_json_logs_lines_are_strict_json(ws, tmp_path, capsys, command):
    argv = {
        "gen-data": ("gen-data", "--spec", ws.spec, "--out", str(tmp_path / "d")),
        "train-0": ("train", "--stage", "attention", "--data", ws.data,
                    "--out", str(tmp_path / "x.stck"), *TRAIN_FLAGS, "--epochs", "0"),
        "train-1": ("train", "--stage", "relation", "--data", ws.data, "--stage1", ws.att,
                    "--out", str(tmp_path / "x.stck"), *RELATION_FLAGS),
        "eval": ("eval", "--ckpt", ws.rel, "--data", ws.data,
                 "--out", str(tmp_path / "m.csv")),
        "infer": ("infer", "--ckpt", ws.rel, "--frames", ws.video,
                  "--out", str(tmp_path / "p.csv")),
    }[command]
    assert run(argv[0], "--json-logs", *argv[1:]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines
    records = [_strict_json(line) for line in lines]
    assert all(record["level"] == "info" for record in records)
    if command.startswith("train"):
        steps, loss = records[-1]["steps"], records[-1]["loss"]
        assert (steps == 0) == (loss is None)
        assert loss is None or math.isfinite(loss)


def test_json_logs_on_error_path(ws, tmp_path, capsys):
    assert run("train", "--json-logs", "--stage", "relation", "--data", ws.data,
               "--out", str(tmp_path / "x.stck"), *TRAIN_FLAGS) == 2
    line = json.loads(capsys.readouterr().err.strip())
    assert line["level"] == "error" and "--stage1" in line["msg"]


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
