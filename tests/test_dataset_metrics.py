import csv
import hashlib
import os

import numpy as np
import pytest

from aukit import dataset as D
from aukit import graph as G
from aukit import metrics as M
from aukit.errors import ConfigError, FormatError, ShapeError


def confusion_oracle(pred, truth):
    """Independent scalar confusion counting."""
    n, m = pred.shape
    stats = []
    for j in range(m):
        tp = fp = fn = tn = 0
        for i in range(n):
            p, t = pred[i, j], truth[i, j]
            if p == 1 and t == 1:
                tp += 1
            elif p == 1 and t == 0:
                fp += 1
            elif p == 0 and t == 1:
                fn += 1
            else:
                tn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        stats.append((precision, recall, f1, (tp + tn) / n))
    return np.array(stats)


def tree_hash(root):
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(open(path, "rb").read())
    return digest.hexdigest()


class TestLabelGeneration:
    def test_full_persistence_freezes_labels(self):
        spec = D.default_spec(m=3, videos=4, frames_per_video=20, persistence=1.0)
        for labels in D.generate_labels(spec):
            assert np.array_equal(labels, np.tile(labels[0], (20, 1)))

    def test_labels_are_binary(self):
        spec = D.default_spec(m=4, videos=2, frames_per_video=50)
        for labels in D.generate_labels(spec):
            assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_uncoupled_chains_are_uncorrelated(self):
        spec = D.default_spec(
            m=4, videos=1, frames_per_video=10_000, cooccurrence=0.0, seed=3
        )
        r = G.compute_pcc(D.generate_video_labels(spec, 0))
        off = r[~np.eye(4, dtype=bool)]
        assert np.abs(off).max() < 0.1

    def test_strong_coupling_shows_up_in_pcc(self):
        spec = D.default_spec(
            m=4, videos=1, frames_per_video=10_000, cooccurrence=0.8, seed=4
        )
        r = G.compute_pcc(D.generate_video_labels(spec, 0))
        off = r[~np.eye(4, dtype=bool)]
        assert off.min() >= 0.5

    def test_negative_coupling_anticorrelates(self):
        spec = D.default_spec(
            m=2, videos=1, frames_per_video=10_000, cooccurrence=-0.8, seed=5
        )
        r = G.compute_pcc(D.generate_video_labels(spec, 0))
        assert r[0, 1] < -0.05

    def test_deterministic_per_video(self):
        spec = D.default_spec(m=3, videos=2, frames_per_video=30, seed=6)
        a = D.generate_video_labels(spec, 1)
        b = D.generate_video_labels(spec, 1)
        assert np.array_equal(a, b)


class TestRendering:
    def test_blob_appears_at_center_when_active(self):
        spec = D.default_spec(m=4, videos=1, frames_per_video=4, noise=0.0, seed=7)
        labels = np.zeros((4, 4))
        labels[0, 2] = 1.0  # label 3 active in frame 0 only
        frames = D.render_video(spec, 0, labels)
        cy, cx = spec.centers[2]
        assert frames[0, 0, cy, cx] == pytest.approx(1.0)
        assert frames[1].max() == 0.0  # no active labels, no noise

    def test_blob_additivity(self):
        spec = D.default_spec(m=2, videos=1, frames_per_video=1, noise=0.0, seed=8)
        both = D.render_video(spec, 0, np.array([[1.0, 1.0]]))
        first = D.render_video(spec, 0, np.array([[1.0, 0.0]]))
        second = D.render_video(spec, 0, np.array([[0.0, 1.0]]))
        assert np.abs(both - first - second).max() < 1e-12

    def test_frames_are_finite(self):
        spec = D.default_spec(m=3, videos=1, frames_per_video=8, seed=9)
        frames = D.render_video(spec, 0, D.generate_video_labels(spec, 0))
        assert np.isfinite(frames).all()


class TestSpecFile:
    def test_round_trip(self, tmp_path):
        spec = D.default_spec(m=3, seed=11)
        path = tmp_path / "spec.json"
        D.save_spec(path, spec)
        loaded = D.load_spec(path)
        assert (loaded.m, loaded.videos, loaded.frames_per_video) == (
            spec.m, spec.videos, spec.frames_per_video,
        )
        assert (loaded.image_size, loaded.noise, loaded.seed) == (
            spec.image_size, spec.noise, spec.seed,
        )
        for field in ("cooccurrence", "persistence", "centers", "radius"):
            assert np.array_equal(getattr(loaded, field), getattr(spec, field))

    def test_missing_key(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"m": 3}')
        with pytest.raises(ConfigError, match="missing key"):
            D.load_spec(path)

    def test_center_outside_image(self):
        spec = D.default_spec(m=2)
        bad = D.SyntheticSpec(
            **{**spec.__dict__, "centers": np.array([[0, 0], [40, 40]])}
        )
        with pytest.raises(ConfigError):
            bad.validate()


class TestDatasetOnDisk:
    def test_generate_layout_and_round_trip(self, tmp_path):
        spec = D.default_spec(m=3, videos=2, frames_per_video=6, seed=12)
        D.generate(spec, tmp_path)
        assert (tmp_path / "labels.csv").exists()
        assert (tmp_path / "spec.json").exists()
        sequences = D.load_dataset(tmp_path)
        assert [seq.video_id for seq in sequences] == ["v0000", "v0001"]
        for v, seq in enumerate(sequences):
            assert seq.frames.shape == (6, 3, 32, 32)
            assert np.array_equal(seq.labels, D.generate_video_labels(spec, v))
            want_frames = D.render_video(spec, v, seq.labels)
            assert seq.frames.tobytes() == want_frames.tobytes()

    def test_generation_is_bitwise_deterministic(self, tmp_path):
        spec = D.default_spec(m=2, videos=2, frames_per_video=4, seed=13)
        D.generate(spec, tmp_path / "one")
        D.generate(spec, tmp_path / "two")
        assert tree_hash(tmp_path / "one") == tree_hash(tmp_path / "two")

    def test_labels_csv_format(self, tmp_path):
        spec = D.default_spec(m=2, videos=1, frames_per_video=3, seed=14)
        D.generate(spec, tmp_path)
        rows = list(csv.reader(open(tmp_path / "labels.csv")))
        assert rows[0] == ["video_id", "frame_idx", "au_1", "au_2"]
        assert rows[1][0] == "v0000" and rows[1][1] == "0"
        assert all(cell in ("0", "1") for row in rows[1:] for cell in row[2:])

    def test_missing_label_column_named(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,frame_idx,au_1,oops\nv0,0,1,0\n")
        with pytest.raises(FormatError, match="au_2"):
            D.load_labels(path)

    def test_non_binary_cell_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,frame_idx,au_1\nv0,0,0.5\n")
        with pytest.raises(FormatError, match="non-binary"):
            D.load_labels(path)

    def test_gapped_frame_indices_rejected(self, tmp_path):
        spec = D.default_spec(m=2, videos=1, frames_per_video=3, seed=15)
        D.generate(spec, tmp_path)
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        del lines[2]  # drop the middle frame, leaving indices 0 and 2
        (tmp_path / "labels.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="not 0..t-1"):
            D.load_dataset(tmp_path)

    def test_interleaved_out_of_order_rows_load_the_same_sequences(self, tmp_path):
        spec = D.default_spec(m=2, videos=3, frames_per_video=5, seed=17)
        D.generate(spec, tmp_path)
        ordered = {seq.video_id: seq for seq in D.load_dataset(tmp_path)}
        header, *rows = (tmp_path / "labels.csv").read_text().splitlines()
        shuffled = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        (tmp_path / "labels.csv").write_text("\n".join([header] + shuffled) + "\n")
        first_seen = list(dict.fromkeys(row.split(",")[0] for row in shuffled))
        assert first_seen != sorted(first_seen)
        sequences = D.load_dataset(tmp_path)
        assert [seq.video_id for seq in sequences] == first_seen
        for seq in sequences:
            assert seq.labels.tobytes() == ordered[seq.video_id].labels.tobytes()
            assert seq.frames.tobytes() == ordered[seq.video_id].frames.tobytes()

    def test_iter_windows_non_overlapping(self, tmp_path):
        spec = D.default_spec(m=2, videos=2, frames_per_video=10, seed=16)
        D.generate(spec, tmp_path)
        sequences = D.load_dataset(tmp_path)
        windows = list(D.iter_windows(sequences, 4))
        starts = [(seq.video_id, start) for seq, start in windows]
        assert starts == [("v0000", 0), ("v0000", 4), ("v0001", 0), ("v0001", 4)]


class TestMetrics:
    def test_perfect_prediction(self):
        truth = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
        report = M.f1_accuracy(truth, truth)
        for arr in (report.precision, report.recall, report.f1, report.accuracy):
            assert np.array_equal(arr, np.ones(2))
        assert report.avg_f1 == 1.0

    def test_balanced_confusion(self):
        truth = np.array([[1], [1], [0], [0]], dtype=float)
        pred = np.array([[1], [0], [1], [0]], dtype=float)
        report = M.f1_accuracy(pred, truth)
        assert report.precision[0] == 0.5
        assert report.recall[0] == 0.5
        assert report.f1[0] == 0.5
        assert report.accuracy[0] == 0.5

    def test_all_negative_convention(self):
        zeros = np.zeros((10, 3))
        report = M.f1_accuracy(zeros, zeros)
        assert np.array_equal(report.f1, np.zeros(3))
        assert np.array_equal(report.accuracy, np.ones(3))

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            pred = (rng.random((500, 4)) < 0.5).astype(float)
            truth = (rng.random((500, 4)) < 0.3).astype(float)
            report = M.f1_accuracy(pred, truth)
            want = confusion_oracle(pred, truth)
            got = np.stack(
                [report.precision, report.recall, report.f1, report.accuracy], axis=1
            )
            assert np.abs(got - want).max() < 1e-12

    def test_threshold_ties_positive(self):
        probs = np.array([[0.5, 0.49999], [0.50001, 0.0]])
        assert np.array_equal(M.binarize(probs), [[1, 0], [1, 0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            M.f1_accuracy(np.zeros((3, 2)), np.zeros((2, 3)))

    def test_non_binary_rejected(self):
        with pytest.raises(ShapeError):
            M.f1_accuracy(np.full((2, 2), 0.5), np.zeros((2, 2)))

    def test_csv_layout(self, tmp_path):
        truth = np.array([[1, 0], [0, 1]], dtype=float)
        report = M.f1_accuracy(truth, truth)
        path = tmp_path / "metrics.csv"
        M.save_metrics_csv(path, report)
        rows = list(csv.reader(open(path)))
        assert rows[0] == ["au", "precision", "recall", "f1", "accuracy"]
        assert [row[0] for row in rows[1:]] == ["au_1", "au_2", "Avg"]
        assert rows[3][3] == "1.0"
