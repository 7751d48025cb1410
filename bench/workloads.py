"""The benchmark's workloads.

Each workload class does its set-up in ``__init__``, including one untimed
warm-up call of every timed unit, so that no first call is ever timed.
``round`` makes one whole round of timed calls through ``timer(metric, fn,
*args)``; every round makes the same calls.  ``checks`` yields
``(name, (ok, detail))`` pairs and runs after the timed rounds.

Every unit fills one of four roles, so that each workload reports the same
end-to-end metrics:

    metric        toy-train                toy-serve                 paper-train
    attention_s   one attention epoch      attention_predict, 1 video  one attention step
    relation_s    relation stage, toy budget  relation_predict, 1 video   one graph-stack step
    pipeline_s    generate + load + graph  aukit eval, 16 videos     paper-size init
    infer_s       aukit infer, 1 video     aukit infer, 1 video      attention_predict, 2 frames
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os

import numpy as np

from aukit import (backbone, cli, config, dataset, graph as graphs, losses, model,
                   serialize, stgcn, tensor as T, training)

import checks

STAGE1 = ("backbone.", "branch.")
STAGE2 = ("gst.", "head.")


def run_cli(argv) -> None:
    """Run the ``aukit`` command line in this process, as the script does."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"aukit {' '.join(argv)} exited with {code}")


def attention_loss(entries, frames, labels, weights, lambda_r):
    """Stage-1 loss of one batch, composed as ``train_attention_stage`` does."""
    m = model.model_dims(entries).m
    maps, _, probs = backbone.attention_stage_forward(
        T.Tensor(frames), backbone.backbone_from(entries),
        [backbone.branch_from(entries, j) for j in range(1, m + 1)])
    return losses.attention_stage_loss(probs, maps, labels, weights, lambda_r)


def relation_loss(entries, graph, features, labels, weights):
    """Stage-2 loss of a batch of feature sequences (b, 8c, t, m)."""
    dims = model.model_dims(entries)
    probs = stgcn.stgcn_forward(
        T.Tensor(features), graph, stgcn.stgcn_from(entries, dims.depth),
        stgcn.head_from(entries, dims.m), expected_layers=dims.depth)
    return losses.au_detection_loss(probs, labels, weights)


@dataclasses.dataclass
class Step:
    loss: float
    grads: dict
    entries: dict


def train_step(loss_fn, entries, prefixes, hp, lr) -> Step:
    """Forward, backward and one ``sgd_step`` over the entries named by prefix."""
    with T.Tape() as tape:
        loss = loss_fn(entries)
    tape.backward(loss)
    grads = {}
    for name in entries:
        if name.startswith(prefixes) and tape.grad(entries[name]) is not None:
            grads[name] = tape.grad(entries[name])
    state = training.OptimizerState(hp.momentum, hp.weight_decay)
    return Step(float(loss.data), grads, training.sgd_step(entries, grads, lr, state))


def loss_of_arrays(loss_fn, entries):
    """The loss as a function of raw parameter arrays, by forward passes only."""
    def at(arrays):
        trial = dict(entries)
        trial.update({name: T.Tensor(arr) for name, arr in arrays.items()})
        return float(loss_fn(trial).data)
    return at


def step_checks(label, step, loss_fn, entries, prefixes):
    names = [n for n in entries if n.startswith(prefixes)]
    params = {n: entries[n].data for n in names}
    yield f"{label} loss is finite", checks.all_finite([step.loss])
    yield f"{label} gradients cover every entry", checks.grads_complete(params, step.grads, names)
    yield f"{label} directional derivative", checks.directional_derivative(
        loss_of_arrays(loss_fn, entries), params, step.grads)


class ToyTrain:
    """The toy preset end to end, from one fixed init and seed."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.hp = config.resolve("toy")
        self.spec = dataset.default_spec(seed=seed)  # 16 videos x 32 frames, 32 px, m=4
        self.data_dir = os.path.join(workdir, "data")
        self.data, self.graph = self.prepare()
        self.init = model.init_attention_entries(self.hp.c, self.hp.m, seed)
        # The warm-up epoch is a whole one: the timed epochs must equal it.
        self.reference = self.epoch()
        warm = training.train_relation_stage(
            self.data, self.graph, self.reference.entries, self.hp, seed, epochs=1)
        self.ckpt = os.path.join(workdir, "relation.stck")
        model.save_model(self.ckpt, model.embed_graph(warm.entries, self.graph))
        self.video = os.path.join(self.data_dir, "frames", f"{dataset.video_id(0)}.stnt")
        self.probs_csv = os.path.join(workdir, "probs.csv")
        self.infer()
        self.epochs, self.losses = [], []

    def prepare(self):
        dataset.generate(self.spec, self.data_dir)
        data = dataset.load_dataset(self.data_dir)
        return data, graphs.build_graph(dataset.stacked_labels(data), self.hp.tau)

    def epoch(self):
        return training.train_attention_stage(
            self.data, self.hp, self.seed, init_entries=self.init, epochs=1)

    def relation(self):
        return training.train_relation_stage(
            self.data, self.graph, self.reference.entries, self.hp, self.seed)

    def infer(self):
        run_cli(["infer", "--ckpt", self.ckpt, "--frames", self.video, "--out", self.probs_csv])

    def round(self, timer) -> None:
        # The slow units are interleaved with the short ones, and data
        # preparation runs at both ends of the round, so that each metric
        # samples more than one stretch of the machine's varying speed.
        self.data, self.graph = timer("pipeline_s", self.prepare)
        timer("infer_s", self.infer)
        epoch = timer("attention_s", self.epoch)
        timer("infer_s", self.infer)
        relation = timer("relation_s", self.relation)
        timer("infer_s", self.infer)
        self.data, self.graph = timer("pipeline_s", self.prepare)
        timer("infer_s", self.infer)
        self.epochs.append(epoch.entries)
        self.losses += [row[4] for row in epoch.log + relation.log]

    def checks(self):
        hp, data = self.hp, self.data
        yield "labels are 0/1", checks.labels_binary(s.labels for s in data)
        yield "frames are blobs plus noise", checks.residual_is_noise(
            [s.frames for s in data], [s.labels for s in data], self.spec)
        yield "graph columns and partitions", checks.graph_consistent(self.graph)
        yield "training losses are finite", checks.all_finite(self.losses)
        yield "epochs are byte-identical", checks.identical_entries(
            self.reference.entries, self.epochs)
        batch = data[:hp.batch_size]
        frames = np.concatenate([s.frames[:hp.t] for s in batch])
        labels = np.concatenate([s.labels[:hp.t] for s in batch])
        weights = losses.class_weights(dataset.stacked_labels(data).mean(axis=0))

        def loss_fn(entries):
            return attention_loss(entries, frames, labels, weights, hp.lambda_r)

        step = train_step(loss_fn, self.init, STAGE1, hp, hp.attention_lr)
        yield from step_checks("attention step", step, loss_fn, self.init, STAGE1)
        entries = model.load_model(self.ckpt)
        probs = model.relation_predict(
            entries, model.extract_graph(entries), serialize.load_tensor(self.video))
        yield "infer probabilities", checks.probabilities_valid(
            probs, data[0].frames.shape[0], hp.m)
        yield "infer output", checks.infer_csv_matches(self.probs_csv, probs)


class ToyServe:
    """Forward-only serving of a freshly initialised relation checkpoint."""

    INFER_REPS = 4

    def __init__(self, seed: int, workdir: str):
        hp = self.hp = config.resolve("toy")
        self.data_dir = os.path.join(workdir, "data")
        dataset.generate(dataset.default_spec(seed=seed), self.data_dir)
        self.data = dataset.load_dataset(self.data_dir)
        self.graph = graphs.build_graph(dataset.stacked_labels(self.data), hp.tau)
        stage1 = model.init_attention_entries(hp.c, hp.m, seed)
        self.entries = model.embed_graph(
            model.init_relation_entries(stage1, hp.t_k, hp.depth, seed), self.graph)
        self.ckpt = os.path.join(workdir, "relation.stck")
        model.save_model(self.ckpt, self.entries)
        self.video = os.path.join(self.data_dir, "frames", f"{dataset.video_id(0)}.stnt")
        self.metrics_csv = os.path.join(workdir, "metrics.csv")
        self.probs_csv = os.path.join(workdir, "probs.csv")
        frames = self.data[0].frames
        model.attention_predict(self.entries, frames)
        model.relation_predict(self.entries, self.graph, frames)
        self.eval()
        self.infer()

    def eval(self):
        run_cli(["eval", "--ckpt", self.ckpt, "--data", self.data_dir, "--out", self.metrics_csv])

    def infer(self):
        run_cli(["infer", "--ckpt", self.ckpt, "--frames", self.video, "--out", self.probs_csv])

    def round(self, timer) -> None:
        self.attention, self.relation = [], []
        for s in self.data:
            self.attention.append(
                timer("attention_s", model.attention_predict, self.entries, s.frames)[2])
            self.relation.append(
                timer("relation_s", model.relation_predict, self.entries, self.graph, s.frames))
        timer("pipeline_s", self.eval)
        for _ in range(self.INFER_REPS):
            timer("infer_s", self.infer)

    def checks(self):
        hp, entries, frames = self.hp, self.entries, self.data[0].frames
        t = frames.shape[0]
        for kind, outputs in (("attention", self.attention), ("relation", self.relation)):
            results = [checks.probabilities_valid(p, s.frames.shape[0], hp.m)
                       for p, s in zip(outputs, self.data)]
            bad = [detail for ok, detail in results if not ok]
            yield f"{kind} probabilities", (not bad, "; ".join(bad))
        half = t // 2
        yield "attention on halves", checks.halves_agree(
            self.attention[0],
            model.attention_predict(entries, frames[:half])[2],
            model.attention_predict(entries, frames[half:])[2])
        weights = np.stack([entries[f"head.{j}.weight"].data for j in range(1, hp.m + 1)])
        biases = np.concatenate([entries[f"head.{j}.bias"].data for j in range(1, hp.m + 1)])
        yield "fresh stack is the head on features", checks.head_on_features(
            self.relation[0], model.sequence_features(entries, frames), weights, biases)
        yield "eval scores equal counts", checks.eval_csv_matches(
            self.metrics_csv, np.concatenate(self.relation),
            dataset.stacked_labels(self.data))
        yield "infer output", checks.infer_csv_matches(self.probs_csv, self.relation[0])


class PaperTrain:
    """The paper-size model (c=8, m=12) on 160 px frames and t=48 sequences.

    160 px stands in for the paper's 176 px, which the configuration rejects.
    """

    SIZE = 160
    STEP_FRAMES = 1
    INFER_FRAMES = 2
    SEQUENCES = 2
    REPS = 2
    RELATION_REPS = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        hp = self.hp = dataclasses.replace(config.PRESETS["paper"], l=self.SIZE)
        hp.validate()
        spec = dataset.default_spec(m=hp.m, videos=self.SEQUENCES, frames_per_video=hp.t,
                                    image_size=self.SIZE, seed=seed)
        labels = [dataset.generate_video_labels(spec, v) for v in range(self.SEQUENCES)]
        self.graph = graphs.build_graph(np.concatenate(labels), hp.tau)
        self.weights = losses.class_weights(np.concatenate(labels).mean(axis=0))
        self.frames = dataset.render_video(spec, 0, labels[0][:self.INFER_FRAMES])
        self.frame_labels = labels[0][:self.STEP_FRAMES]
        self.sequence_labels = np.stack(labels)
        rng = np.random.default_rng(seed)
        self.features = np.tanh(
            rng.standard_normal((self.SEQUENCES, 8 * hp.c, hp.t, hp.m)))
        self.entries = self.init()
        self.attention_step()
        self.relation_step()
        model.attention_predict(self.entries, self.frames)

    def init(self):
        stage1 = model.init_attention_entries(self.hp.c, self.hp.m, self.seed)
        return model.init_relation_entries(stage1, self.hp.t_k, self.hp.depth, self.seed)

    def attention_loss(self, entries):
        return attention_loss(entries, self.frames[:self.STEP_FRAMES], self.frame_labels,
                              self.weights, self.hp.lambda_r)

    def relation_loss(self, entries):
        return relation_loss(entries, self.graph, self.features, self.sequence_labels,
                             self.weights)

    def attention_step(self):
        return train_step(self.attention_loss, self.entries, STAGE1, self.hp,
                          self.hp.attention_lr)

    def relation_step(self):
        return train_step(self.relation_loss, self.entries, STAGE2, self.hp,
                          self.hp.relation_lr)

    def round(self, timer) -> None:
        # Initialisation, the slowest unit, runs at both ends of the round.
        self.fresh = timer("pipeline_s", self.init)
        for _ in range(self.REPS):
            self.step = timer("attention_s", self.attention_step)
            self.probs = timer("infer_s", model.attention_predict, self.entries, self.frames)[2]
            for _ in range(self.RELATION_REPS):
                self.graph_step = timer("relation_s", self.relation_step)
        self.fresh = timer("pipeline_s", self.init)

    def checks(self):
        yield "init within fan-in bounds", checks.init_in_range(self.fresh)
        yield from step_checks("attention step", self.step, self.attention_loss,
                               self.entries, STAGE1)
        names = [n for n in self.entries if n.startswith(STAGE2)]
        yield "graph-stack loss is finite", checks.all_finite([self.graph_step.loss])
        yield "graph-stack gradients cover every entry", checks.grads_complete(
            {n: self.entries[n].data for n in names}, self.graph_step.grads, names)
        yield "inference probabilities", checks.probabilities_valid(
            self.probs, self.INFER_FRAMES, self.hp.m)


WORKLOADS = {"toy-train": ToyTrain, "toy-serve": ToyServe, "paper-train": PaperTrain}
