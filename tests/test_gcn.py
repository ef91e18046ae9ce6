import numpy as np
import pytest

from framepath import autodiff as ad
from framepath.autodiff import (
    backward,
    fresh_tape,
    grad_check,
    no_grad,
    param,
    tensor,
)
from framepath.gcn import TreeGcn, _forest_index, path_sum_features
from framepath.layers import ParamStore
from framepath.syntax import parse_bracketed

from helpers import bfs_path, forest_index_loop

SAMPLE = "(S (NP (PRP She)) (VP (VBD had) (NP (JJ little) (NN patience))))"


def store(seed=0):
    return ParamStore(np.random.default_rng(seed))


def params(s):
    return [e.tensor for _, e in s.entries()]


def assert_grads_ok(loss, params, tol=1e-4):
    """Relative error below tol, except where the gradient itself is so
    small that central differences bottom out in float64 roundoff; there
    an absolute agreement of 1e-8 settles it."""
    max_rel, report = grad_check(loss, params)
    for name, idx, analytic, numeric, rel in report:
        assert rel < tol or abs(analytic - numeric) < 1e-8, \
            (name, idx, analytic, numeric, rel)


def unique_label_tree(rng, max_nodes=20):
    """Random tree whose node labels are all distinct, so each node owns
    its embedding row exclusively."""
    n = int(rng.integers(2, max_nodes + 1))
    parents = [None] + [int(rng.integers(0, k)) for k in range(1, n)]
    children = [[] for _ in range(n)]
    for k, p in enumerate(parents):
        if p is not None:
            children[p].append(k)

    def emit(k):
        if not children[k]:
            return f"(L{k} w{k})"
        return f"(L{k} " + " ".join(emit(c) for c in children[k]) + ")"

    return parse_bracketed(emit(0))


def descendants_within(tree, v, hops):
    out = {v}
    frontier = {v}
    for _ in range(hops):
        nxt = set()
        for u in frontier:
            nxt.update(tree.nodes[u].children)
        out |= nxt
        frontier = nxt
    return out


class TestTreeGcn:
    def test_single_layer_matches_manual_formula(self):
        s = store(1)
        tree = parse_bracketed(SAMPLE)
        gcn = TreeGcn(s, "gcn", n_labels=8, emb_dim=3, hidden=4, layers=1)
        ids = list(range(8))
        with fresh_tape(), no_grad():
            got = gcn(tree, ids).data

        a = np.eye(len(tree))  # each node sums itself and its children
        for node in tree.nodes:
            a[node.id, node.children] = 1.0
        h0 = gcn.emb.table.data[ids]
        pre = a @ h0 @ s["gcn.l0.w"].data + s["gcn.l0.b"].data
        act = np.maximum(pre, 0.0)
        mu = act.mean(axis=1, keepdims=True)
        var = act.var(axis=1, keepdims=True)
        want = (act - mu) / np.sqrt(var + 1e-5)
        want = want * s["gcn.l0.ln.gain"].data + s["gcn.l0.ln.bias"].data
        assert np.allclose(got, want, atol=1e-12)

    def test_output_shape(self):
        s = store(2)
        tree = parse_bracketed(SAMPLE)
        gcn = TreeGcn(s, "gcn", n_labels=8, emb_dim=5, hidden=6, layers=2)
        with fresh_tape(), no_grad():
            h = gcn(tree, list(range(8)))
        assert h.shape == (8, 6)

    def test_receptive_field_is_descendants_within_layer_count(self):
        # Messages flow child -> parent only.  Perturbing the label
        # embedding of node u leaves node v's output bit-identical unless
        # u is v or a descendant within 2 edges.  Labels are unique per
        # node so embedding rows are not shared.  Inside the receptive
        # field a change usually shows up but relu may absorb it, so that
        # direction is only checked in aggregate.
        rng = np.random.default_rng(4)
        in_reach_pairs = 0
        in_reach_changed = 0
        for trial in range(8):
            tree = unique_label_tree(rng)
            n = len(tree.nodes)
            s = store(100 + trial)
            gcn = TreeGcn(s, "gcn", n_labels=n, emb_dim=3, hidden=4, layers=2)
            ids = list(range(n))
            with fresh_tape(), no_grad():
                base = gcn(tree, ids).data.copy()
            for u in range(n):
                saved = gcn.emb.table.data[u].copy()
                gcn.emb.table.data[u] += rng.normal(size=3)
                with fresh_tape(), no_grad():
                    moved = gcn(tree, ids).data
                gcn.emb.table.data[u] = saved
                reach = {v for v in range(n)
                         if u in descendants_within(tree, v, 2)}
                for v in range(n):
                    if v in reach:
                        in_reach_pairs += 1
                        if not np.array_equal(base[v], moved[v]):
                            in_reach_changed += 1
                    else:
                        assert np.array_equal(base[v], moved[v]), (trial, u, v)
        assert in_reach_changed / in_reach_pairs > 0.8

    def test_forest_rows_match_one_tree_at_a_time(self):
        rng = np.random.default_rng(12)
        trees = [unique_label_tree(rng) for _ in range(6)]
        gcn = TreeGcn(store(12), "gcn", n_labels=9, emb_dim=4, hidden=5)
        ids = [rng.integers(0, 9, size=len(t)).tolist() for t in trees]
        with fresh_tape(), no_grad():
            forest = gcn(trees, [i for block in ids for i in block]).data
            each = [gcn(t, block).data for t, block in zip(trees, ids)]
        assert forest.shape == (sum(map(len, trees)), 5)
        np.testing.assert_allclose(forest, np.concatenate(each),
                                   rtol=0, atol=1e-12)

    def test_gradients(self):
        s = store(5)
        tree = parse_bracketed("(S (NP (PRP She)) (VP (VBD ran)))")
        gcn = TreeGcn(s, "gcn", n_labels=5, emb_dim=3, hidden=3, layers=2)
        assert_grads_ok(
            lambda: ad.sum_all(ad.tanh(gcn(tree, [0, 1, 2, 3, 4]))),
            params(s))

    def test_dropout_hook_is_applied(self):
        s = store(6)
        tree = parse_bracketed("(S (NP (PRP She)) (VP (VBD ran)))")
        gcn = TreeGcn(s, "gcn", 5, 3, 4, layers=1)
        with fresh_tape(), no_grad():
            plain = gcn(tree, [0, 1, 2, 3, 4]).data
            zeroed = gcn(tree, [0, 1, 2, 3, 4],
                         drop=lambda t: ad.mul(
                             t, tensor(np.zeros_like(t.data)))).data
        assert np.any(plain != 0)
        assert np.all(zeroed == 0)


class TestPathSumFeatures:
    def test_self_path_returns_own_row(self):
        # Token whose preterminal IS the reference node: the path is a
        # single node, so the feature equals that node's representation.
        tree = parse_bracketed(SAMPLE)
        h = tensor(np.random.default_rng(0).normal(size=(8, 4)))
        ref = tree.token_node(1)  # VBD preterminal, node 4
        with fresh_tape(), no_grad():
            feats = path_sum_features(tree, h, ref).data
        assert np.allclose(feats[1], h.data[4], atol=1e-12)

    def test_hand_sum(self):
        # Token 2 (JJ, node 6) to the VBD preterminal (node 4):
        # path JJ -> NP -> VP -> VBD.
        tree = parse_bracketed(SAMPLE)
        h = tensor(np.random.default_rng(1).normal(size=(8, 4)))
        with fresh_tape(), no_grad():
            feats = path_sum_features(tree, h, tree.token_node(1)).data
        want = h.data[[6, 5, 3, 4]].sum(axis=0)
        assert np.allclose(feats[2], want, atol=1e-12)

    def test_paths_built_once_per_tree_and_reference(self, monkeypatch):
        tree = parse_bracketed(SAMPLE)
        h = tensor(np.random.default_rng(3).normal(size=(len(tree), 4)))
        with fresh_tape(), no_grad():
            first = path_sum_features(tree, h, 4).data

            def unused(*args):
                raise AssertionError("path rebuilt")

            monkeypatch.setattr("framepath.syntax.pad_groups", unused)
            again = path_sum_features(tree, h, 4).data
        assert np.array_equal(first, again)

    def test_matches_bruteforce_on_random_trees(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            tree = unique_label_tree(rng, max_nodes=25)
            n = len(tree.nodes)
            h = tensor(rng.normal(size=(n, 5)))
            ref = int(rng.integers(n))
            with fresh_tape(), no_grad():
                feats = path_sum_features(tree, h, ref).data
            for tok in range(tree.n_tokens):
                nodes = bfs_path(tree, tree.token_node(tok), ref)
                assert np.allclose(feats[tok], h.data[nodes].sum(axis=0),
                                   atol=1e-12)

    def test_forest_matches_one_tree_at_a_time(self):
        # One op over a forest: tree k's node rows start at firsts[k] and
        # its token rows follow tree k-1's; a tree may appear twice with
        # two references, over the same node rows.
        rng = np.random.default_rng(13)
        trees = [unique_label_tree(rng, max_nodes=25) for _ in range(5)]
        hs = [rng.normal(size=(len(t), 4)) for t in trees]
        firsts = list(np.cumsum([0] + [len(t) for t in trees[:-1]]))
        blocks = [(k, int(rng.integers(len(trees[k]))))
                  for k in (3, 0, 4, 1, 2, 0)]
        with fresh_tape(), no_grad():
            forest = path_sum_features(
                [trees[k] for k, _ in blocks], tensor(np.concatenate(hs)),
                [ref for _, ref in blocks], [firsts[k] for k, _ in blocks]).data
            each = [path_sum_features(trees[k], tensor(hs[k]), ref).data
                    for k, ref in blocks]
            # by default the trees' node rows run back to back
            in_order = path_sum_features(trees, tensor(np.concatenate(hs)),
                                         [0] * len(trees)).data
            one_by_one = [path_sum_features(t, tensor(h), 0).data
                          for t, h in zip(trees, hs)]
        assert np.array_equal(forest, np.concatenate(each))
        assert np.array_equal(in_order, np.concatenate(one_by_one))

    def test_forest_index_matches_one_slice_write_per_tree(self):
        # Seeded random forests: ragged widths, rows padded with -1 from
        # any column on, blocks without rows, and any row offsets.
        rng = np.random.default_rng(21)
        for _ in range(300):
            blocks = []
            for _ in range(rng.integers(1, 7)):
                height, width = rng.integers(0, 6), rng.integers(1, 8)
                ends = rng.integers(1, width + 1, size=(height, 1))
                blocks.append(np.where(np.arange(width) >= ends, -1,
                                       rng.integers(0, 30, (height, width))))
            firsts = rng.integers(0, 3, size=len(blocks)) * rng.integers(50)
            assert np.array_equal(_forest_index(blocks, list(firsts)),
                                  forest_index_loop(blocks, list(firsts)))

    def test_gradients_flow_through_paths(self):
        s = store(7)
        tree = parse_bracketed("(S (NP (PRP She)) (VP (VBD ran)))")
        gcn = TreeGcn(s, "gcn", 5, 3, 3, layers=1)

        def loss():
            h = gcn(tree, [0, 1, 2, 3, 4])
            p = path_sum_features(tree, h, tree.root_index)
            return ad.sum_all(ad.tanh(p))

        assert_grads_ok(loss, params(s))


class TestSumRowGroups:
    def test_matches_fancy_index_sums_exactly(self):
        rng = np.random.default_rng(8)
        m = tensor(rng.normal(size=(7, 5)))
        groups = [[3, 0, 6], [], [2], [5, 5, 1, 4, 0], [6, 3]]
        with fresh_tape(), no_grad():
            got = ad.sum_row_groups(m, groups).data
        assert got.shape == (5, 5)
        for row, group in zip(got, groups):
            assert np.array_equal(row, m.data[group].sum(axis=0))

    def test_gradients_with_nodes_shared_across_rows(self):
        m = param(np.random.default_rng(9).normal(size=(6, 3)), name="m")
        w = tensor(np.random.default_rng(10).normal(size=(4, 3)))
        groups = [[0, 2, 5], [2, 5], [5], [1, 2, 2]]
        assert_grads_ok(
            lambda: ad.sum_all(ad.tanh(ad.mul(ad.sum_row_groups(m, groups),
                                              w))),
            [m])

    def test_adjacent_nodes_without_endpoints(self):
        # A group with no rows in it (a path between adjacent nodes with
        # both ends left out) sums to a zero row, and no gradient flows
        # back through that row.
        h = param(np.random.default_rng(11).normal(size=(8, 4)), name="h")
        with fresh_tape():
            sums = ad.sum_row_groups(h, [[4, 3], [], [6, 5, 3]])
            assert np.array_equal(sums.data[1], np.zeros(4))
            weights = np.zeros((3, 4))
            weights[1] = 1.0
            backward(ad.sum_all(ad.mul(sums, tensor(weights))))
        assert np.array_equal(h.grad, np.zeros((8, 4)))
