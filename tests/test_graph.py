import math

import numpy as np
import pytest

from aukit import graph as G
from aukit import model, serialize
from aukit.errors import DomainError, FormatError, InternalInvariantError

# ---------------------------------------------------------------------------
# Brute-force oracles: scalar loops, no shared code with the implementation.
# ---------------------------------------------------------------------------


def pcc_oracle(labels):
    n, m = labels.shape
    out = np.zeros((m, m))
    for j in range(m):
        for k in range(m):
            xs = [float(labels[i, j]) for i in range(n)]
            ys = [float(labels[i, k]) for i in range(n)]
            mean_x = sum(xs) / n
            mean_y = sum(ys) / n
            cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / n
            var_x = sum((x - mean_x) ** 2 for x in xs) / n
            var_y = sum((y - mean_y) ** 2 for y in ys) / n
            if var_x == 0.0 or var_y == 0.0:
                out[j, k] = 0.0
            else:
                out[j, k] = cov / (math.sqrt(var_x) * math.sqrt(var_y))
    return out


def normalize_oracle(adjacency):
    m = len(adjacency)
    lam = [1.0 / sum(adjacency[j]) for j in range(m)]
    a_norm = [[adjacency[j][k] * lam[k] for k in range(m)] for j in range(m)]
    return np.array(lam), np.array(a_norm)


def hops_oracle(adjacency, gravity):
    # Bellman-Ford style relaxation; ends at the same BFS distances.
    m = len(adjacency)
    dist = [math.inf] * m
    dist[gravity] = 0
    for _ in range(m):
        for j in range(m):
            for k in range(m):
                if j != k and adjacency[j][k] != 0 and dist[j] + 1 < dist[k]:
                    dist[k] = dist[j] + 1
    return np.array([G.UNREACHABLE if d == math.inf else int(d) for d in dist])


def partition_oracle(a_norm, hops):
    m = len(a_norm)
    parts = [np.zeros((m, m)) for _ in range(3)]
    key = [math.inf if h == G.UNREACHABLE else h for h in hops]
    for j in range(m):
        for k in range(m):
            if j == k:
                parts[0][j, k] = a_norm[j][k]
            elif key[k] <= key[j]:
                parts[1][j, k] = a_norm[j][k]
            else:
                parts[2][j, k] = a_norm[j][k]
    return parts


def random_labels(rng, n, m):
    return (rng.random((n, m)) < rng.random(m)).astype(np.float64)


def random_adjacency(rng, m):
    upper = (rng.random((m, m)) < 0.4).astype(np.float64)
    adjacency = np.triu(upper, 1)
    adjacency = adjacency + adjacency.T
    np.fill_diagonal(adjacency, 1.0)
    return adjacency


# The 3-node path graph (with self-loops) used throughout as a hand case.
PATH_A = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])


class TestPcc:
    def test_identical_columns(self):
        labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        labels[:, 1] = labels[:, 0]
        assert G.compute_pcc(labels)[0, 1] == 1.0

    def test_complementary_columns(self):
        labels = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float)
        assert G.compute_pcc(labels)[0, 1] == -1.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            labels = random_labels(rng, 200, 6)
            got = G.compute_pcc(labels)
            assert np.abs(got - pcc_oracle(labels)).max() < 1e-12

    def test_zero_variance_column(self):
        labels = np.array([[1, 1], [1, 0], [1, 1], [1, 0]], dtype=float)
        r = G.compute_pcc(labels)
        assert r[0, 0] == 0.0  # constant column: correlation undefined -> 0
        assert r[0, 1] == 0.0 and r[1, 0] == 0.0
        assert r[1, 1] == 1.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        labels = random_labels(rng, 50, 5)
        r = G.compute_pcc(labels)
        assert np.array_equal(r, r.T)
        assert np.abs(r).max() <= 1.0

    def test_too_few_rows(self):
        with pytest.raises(DomainError):
            G.compute_pcc(np.ones((1, 3)))


class TestAdjacency:
    def test_threshold_above_one_gives_identity(self):
        pcc = np.full((4, 4), 0.9)
        assert np.array_equal(G.build_adjacency(pcc, 1.1), np.eye(4))

    def test_all_ones_pcc(self):
        assert np.array_equal(G.build_adjacency(np.ones((3, 3)), 0.15), np.ones((3, 3)))

    def test_threshold_is_inclusive(self):
        pcc = np.eye(2)
        pcc[0, 1] = pcc[1, 0] = 0.15
        adjacency = G.build_adjacency(pcc, 0.15)
        assert adjacency[0, 1] == 1.0

    def test_symmetric_with_self_loops(self):
        rng = np.random.default_rng(12)
        labels = random_labels(rng, 100, 5)
        adjacency = G.build_adjacency(G.compute_pcc(labels), 0.15)
        assert np.array_equal(adjacency, adjacency.T)
        assert np.array_equal(np.diag(adjacency), np.ones(5))
        assert set(np.unique(adjacency)) <= {0.0, 1.0}


class TestNormalize:
    def test_identity(self):
        lam, a_norm = G.normalize(np.eye(3))
        assert np.array_equal(lam, np.ones(3))
        assert np.array_equal(a_norm, np.eye(3))

    def test_path_graph_hand_case(self):
        lam, a_norm = G.normalize(PATH_A)
        assert np.array_equal(lam, [0.5, 1.0 / 3.0, 0.5])
        expected = np.array(
            [
                [0.5, 1.0 / 3.0, 0.0],
                [0.5, 1.0 / 3.0, 0.5],
                [0.0, 1.0 / 3.0, 0.5],
            ]
        )
        assert np.array_equal(a_norm, expected)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            adjacency = random_adjacency(rng, int(rng.integers(2, 7)))
            _, a_norm = G.normalize(adjacency)
            for k in range(adjacency.shape[0]):
                assert math.fsum(a_norm[:, k]) == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(14)
        adjacency = random_adjacency(rng, 6)
        lam, a_norm = G.normalize(adjacency)
        lam_o, a_norm_o = normalize_oracle(adjacency.tolist())
        assert np.abs(lam - lam_o).max() < 1e-12
        assert np.abs(a_norm - a_norm_o).max() < 1e-12

    def test_zero_row_refused(self):
        with pytest.raises(InternalInvariantError):
            G.normalize(np.zeros((2, 2)))


class TestGravityAndHops:
    def test_path_graph(self):
        gravity = G.gravity_center(PATH_A)
        assert gravity == 1  # middle node, degree 2
        assert np.array_equal(G.hop_distances(PATH_A, gravity), [1, 0, 1])

    def test_identity_ties_to_lowest_index(self):
        assert G.gravity_center(np.eye(4)) == 0

    def test_complete_graph_ties_to_lowest_index(self):
        assert G.gravity_center(np.ones((5, 5))) == 0

    def test_isolated_node_unreachable(self):
        adjacency = np.eye(3)
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        hops = G.hop_distances(adjacency, 0)
        assert hops[0] == 0 and hops[1] == 1
        assert hops[2] == G.UNREACHABLE

    def test_matches_relaxation_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            adjacency = random_adjacency(rng, 6)
            gravity = G.gravity_center(adjacency)
            assert np.array_equal(
                G.hop_distances(adjacency, gravity),
                hops_oracle(adjacency.tolist(), gravity),
            )


class TestPartition:
    def test_path_graph_hand_case(self):
        _, a_norm = G.normalize(PATH_A)
        hops = G.hop_distances(PATH_A, 1)
        root, centripetal, centrifugal = G.partition(a_norm, hops)
        assert np.array_equal(root, np.diag([0.5, 1.0 / 3.0, 0.5]))
        # Edges pointing at the gravity center (closer node) are centripetal.
        want_in = np.zeros((3, 3))
        want_in[0, 1] = 1.0 / 3.0
        want_in[2, 1] = 1.0 / 3.0
        assert np.array_equal(centripetal, want_in)
        want_out = np.zeros((3, 3))
        want_out[1, 0] = 0.5
        want_out[1, 2] = 0.5
        assert np.array_equal(centrifugal, want_out)

    def test_identity(self):
        root, centripetal, centrifugal = G.partition(np.eye(3), np.zeros(3, dtype=int))
        assert np.array_equal(root, np.eye(3))
        assert not centripetal.any() and not centrifugal.any()

    def test_sum_and_disjoint_supports(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            adjacency = random_adjacency(rng, int(rng.integers(2, 7)))
            _, a_norm = G.normalize(adjacency)
            gravity = G.gravity_center(adjacency)
            hops = G.hop_distances(adjacency, gravity)
            parts = G.partition(a_norm, hops)
            assert np.array_equal(parts[0] + parts[1] + parts[2], a_norm)
            supports = [part != 0.0 for part in parts]
            assert not (supports[0] & supports[1]).any()
            assert not (supports[0] & supports[2]).any()
            assert not (supports[1] & supports[2]).any()

    def test_matches_oracle(self):
        rng = np.random.default_rng(17)
        adjacency = random_adjacency(rng, 6)
        _, a_norm = G.normalize(adjacency)
        gravity = G.gravity_center(adjacency)
        hops = G.hop_distances(adjacency, gravity)
        got = G.partition(a_norm, hops)
        want = partition_oracle(a_norm.tolist(), hops.tolist())
        for got_part, want_part in zip(got, want):
            assert np.array_equal(got_part, want_part)


class TestEmbeddedGraph:
    def build(self, seed=20):
        rng = np.random.default_rng(seed)
        return G.build_graph(random_labels(rng, 80, 5), tau=0.15)

    def test_checkpoint_holding_a_derived_field_rejected(self, tmp_path):
        graph = self.build()
        path = tmp_path / "model.stck"
        # load_model checks the model entries too, so embed in a real model.
        stage1 = model.init_attention_entries(1, graph.m, seed=0)
        model.save_model(path, model.embed_graph(stage1, graph))
        arrays = serialize.load_checkpoint(path)
        assert [n for n in arrays if n.startswith("graph.")] == ["graph.tau", "graph.pcc"]
        loaded = model.extract_graph(model.load_model(path))
        assert loaded.tau == graph.tau and np.array_equal(loaded.pcc, graph.pcc)
        for got_part, want_part in zip(loaded.parts, graph.parts):
            assert np.array_equal(got_part, want_part)
        arrays["graph.part.1"] = graph.parts[0]
        serialize.save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match="graph.part.1"):
            model.load_model(path)

    def save(self, path, graph):
        stage1 = model.init_attention_entries(1, graph.m, seed=0)
        model.save_model(path, model.embed_graph(stage1, graph))

    def test_round_trip(self, tmp_path):
        graph = self.build()
        path = tmp_path / "model.stck"
        self.save(path, graph)
        loaded = model.extract_graph(model.load_model(path))
        assert loaded.m == graph.m and loaded.tau == graph.tau
        assert loaded.gravity == graph.gravity
        assert np.array_equal(loaded.pcc, graph.pcc)
        assert np.array_equal(loaded.adjacency, graph.adjacency)
        assert np.array_equal(loaded.lam, graph.lam)
        assert np.array_equal(loaded.a_norm, graph.a_norm)
        assert np.array_equal(loaded.hops, graph.hops)
        for got_part, want_part in zip(loaded.parts, graph.parts):
            assert np.array_equal(got_part, want_part)

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.stck", tmp_path / "b.stck"
        self.save(p1, self.build())
        self.save(p2, self.build())
        assert p1.read_bytes() == p2.read_bytes()

    def test_stage1_checkpoint_has_no_graph(self, tmp_path):
        path = tmp_path / "model.stck"
        model.save_model(path, model.init_attention_entries(1, 5, seed=0))
        assert model.extract_graph(model.load_model(path)) is None

    def test_non_square_pcc_rejected(self, tmp_path):
        path = tmp_path / "model.stck"
        self.save(path, self.build())
        arrays = serialize.load_checkpoint(path)
        arrays["graph.pcc"] = arrays["graph.pcc"][:, :4]
        serialize.save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match="pcc must be square"):
            model.extract_graph(model.load_model(path))

    def test_non_scalar_tau_rejected(self, tmp_path):
        path = tmp_path / "model.stck"
        self.save(path, self.build())
        arrays = serialize.load_checkpoint(path)
        arrays["graph.tau"] = np.array([0.15, 0.15])
        serialize.save_checkpoint(path, arrays)
        with pytest.raises(FormatError, match="malformed pcc or tau"):
            model.extract_graph(model.load_model(path))

    @pytest.mark.parametrize("name", ["graph.tau", "graph.pcc"])
    def test_half_an_embedded_graph_rejected(self, name):
        entries = model.embed_graph(model.init_attention_entries(1, 5, seed=0), self.build())
        del entries[name]
        with pytest.raises(FormatError, match=name):
            model.extract_graph(entries)
