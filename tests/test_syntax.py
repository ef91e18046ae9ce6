import numpy as np
import pytest

from framepath.syntax import (
    ConstTree,
    TreeSyntaxError,
    build_adjacency,
    parse_bracketed,
    serialize,
    tree_path,
)

SAMPLE = "(S (NP (PRP She)) (VP (VBD had) (NP (JJ little) (NN patience))))"


def bfs_path(tree: ConstTree, i: int, j: int) -> list[int]:
    """Shortest path by breadth-first search over the undirected tree."""
    n = len(tree.nodes)
    adj = [[] for _ in range(n)]
    for node in tree.nodes:
        for c in node.children:
            adj[node.id].append(c)
            adj[c].append(node.id)
    prev = {i: None}
    frontier = [i]
    while frontier and j not in prev:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in prev:
                    prev[v] = u
                    nxt.append(v)
        frontier = nxt
    path = [j]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def random_tree(rng: np.random.Generator, max_nodes: int = 30) -> ConstTree:
    """Random tree via random parent attachment, rendered through the parser."""
    n = int(rng.integers(1, max_nodes + 1))
    parents = [None] + [int(rng.integers(0, k)) for k in range(1, n)]
    children = [[] for _ in range(n)]
    for k, p in enumerate(parents):
        if p is not None:
            children[p].append(k)

    def emit(k: int) -> str:
        if not children[k]:
            return f"(N{k} w{k})"
        inner = " ".join(emit(c) for c in children[k])
        return f"(N{k} {inner})"

    return parse_bracketed(emit(0))


class TestParse:
    def test_roundtrip(self):
        tree = parse_bracketed(SAMPLE)
        assert serialize(tree) == SAMPLE

    def test_preorder_ids(self):
        tree = parse_bracketed(SAMPLE)
        labels = [n.label for n in tree.nodes]
        assert labels == ["S", "NP", "PRP", "VP", "VBD", "NP", "JJ", "NN"]
        assert tree.root_index == 0
        assert [tree.nodes[n].parent for n in range(8)] == [
            None, 0, 1, 0, 3, 3, 5, 5,
        ]

    def test_tokens_in_order(self):
        tree = parse_bracketed(SAMPLE)
        assert tree.tokens() == ["She", "had", "little", "patience"]
        assert tree.preterminal_order == [2, 4, 6, 7]
        assert tree.token_node(0) == 2

    def test_whitespace_insensitive(self):
        squashed = SAMPLE.replace(") (", ")(")
        assert serialize(parse_bracketed(squashed)) == SAMPLE
        spread = SAMPLE.replace(" ", "\n ")
        assert serialize(parse_bracketed(spread)) == SAMPLE

    def test_single_preterminal_tree(self):
        tree = parse_bracketed("(UH hello)")
        assert len(tree) == 1
        assert tree.nodes[0].word == "hello"
        assert tree.preterminal_order == [0]

    def test_unary_chain_kept(self):
        tree = parse_bracketed("(S (VP (VB go)))")
        assert [n.label for n in tree.nodes] == ["S", "VP", "VB"]

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "(S (NP (PRP She))",        # missing close
            "(S (NP (PRP She))))",      # extra close
            "(S)",                      # leaf without word
            "(S (NP two words here) (VP (VB x)))",  # multi-word leaf
            "(S (NP (PRP I)) stray)",   # words mixed with constituents
            "((NP (PRP I)))",           # missing label
            "word",                     # no brackets at all
            "(S (NP (PRP I))) (S (NP (PRP I)))",  # two roots
        ],
    )
    def test_malformed_raises(self, bad):
        with pytest.raises(TreeSyntaxError):
            parse_bracketed(bad)

    def test_random_bracket_strings_raise_only_tree_syntax_error(self):
        # Seeded fuzz: short strings over brackets, labels and blanks, and
        # every tenth one nested thousands deep, parse or raise
        # TreeSyntaxError, never anything else.
        rng = np.random.default_rng(17)
        pieces = ["(", ")", " ", "S", "NP", "x", "\n", "()", "(NN a)"]
        parsed = 0
        for k in range(3000):
            text = "".join(rng.choice(pieces, size=rng.integers(0, 25)))
            if k % 10 == 0:
                depth = int(rng.integers(1, 5000))
                text = "(A " * depth + text + ")" * depth
            try:
                parse_bracketed(text)
                parsed += 1
            except TreeSyntaxError:
                pass
        assert parsed > 0

    def test_token_node_out_of_range(self):
        tree = parse_bracketed(SAMPLE)
        with pytest.raises(IndexError):
            tree.token_node(4)


class TestAdjacency:
    def test_hand_example(self):
        # (A (B b) (C c)): A=0, B=1, C=2.
        tree = parse_bracketed("(A (B b) (C c))")
        a = build_adjacency(tree)
        expect = np.array(
            [[1, 1, 1],
             [0, 1, 0],
             [0, 0, 1]], dtype=np.float64)
        assert np.array_equal(a, expect)

    def test_row_sums_are_child_counts_plus_one(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            tree = random_tree(rng)
            a = build_adjacency(tree)
            for node in tree.nodes:
                assert a[node.id].sum() == len(node.children) + 1
                assert a[node.id, node.id] == 1.0

    def test_single_node(self):
        a = build_adjacency(parse_bracketed("(X x)"))
        assert np.array_equal(a, np.ones((1, 1)))


class TestTreePath:
    def test_hand_example(self):
        # Path from the verb's preterminal (VBD, id 4) up to VP (3), down
        # through the object NP (5) to the adjective (JJ, id 6).
        tree = parse_bracketed(SAMPLE)
        assert tree_path(tree, 6, 4) == [6, 5, 3, 4]
        assert [tree.nodes[k].label for k in tree_path(tree, 6, 4)] == [
            "JJ", "NP", "VP", "VBD",
        ]

    def test_self_path_is_singleton(self):
        tree = parse_bracketed(SAMPLE)
        for k in range(len(tree)):
            assert tree_path(tree, k, k) == [k]

    def test_ancestor_descendant(self):
        tree = parse_bracketed(SAMPLE)
        assert tree_path(tree, 0, 7) == [0, 3, 5, 7]
        assert tree_path(tree, 7, 0) == [7, 5, 3, 0]

    def test_reversal_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            tree = random_tree(rng)
            n = len(tree)
            for _ in range(20):
                i, j = int(rng.integers(n)), int(rng.integers(n))
                assert tree_path(tree, i, j) == tree_path(tree, j, i)[::-1]

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            tree = random_tree(rng)
            n = len(tree)
            for _ in range(30):
                i, j = int(rng.integers(n)), int(rng.integers(n))
                assert tree_path(tree, i, j) == bfs_path(tree, i, j)

    def test_out_of_range(self):
        tree = parse_bracketed(SAMPLE)
        with pytest.raises(IndexError):
            tree_path(tree, 0, 99)
