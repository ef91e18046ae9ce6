import sys

import numpy as np
import pytest

from framepath.syntax import (
    ConstTree,
    TreeSyntaxError,
    _tokenize,
    parse_bracketed,
    serialize,
)

from helpers import (bfs_path, parse_bracketed_recursive, serialize_recursive,
                     tokenize_loop)

SAMPLE = "(S (NP (PRP She)) (VP (VBD had) (NP (JJ little) (NN patience))))"


def random_bracketed(rng: np.random.Generator, max_nodes: int = 30,
                     blanks: tuple[str, ...] = (" ",)) -> str:
    """Bracketed string of a random tree built by random parent
    attachment; siblings are parted by a blank drawn from blanks."""
    n = int(rng.integers(1, max_nodes + 1))
    parents = [None] + [int(rng.integers(0, k)) for k in range(1, n)]
    children = [[] for _ in range(n)]
    for k, p in enumerate(parents):
        if p is not None:
            children[p].append(k)

    def emit(k: int) -> str:
        if not children[k]:
            return f"(N{k} w{k})"
        sep = blanks[int(rng.integers(len(blanks)))] if blanks[1:] else " "
        inner = sep.join(emit(c) for c in children[k])
        return f"(N{k} {inner})"

    return emit(0)


def random_tree(rng: np.random.Generator, max_nodes: int = 30) -> ConstTree:
    """Random tree via random parent attachment, rendered through the parser."""
    return parse_bracketed(random_bracketed(rng, max_nodes))


# Each malformed string and the exact message it raises.
MALFORMED = {
    "": "empty tree string",
    "(S (NP (PRP She))": "unbalanced parentheses: missing ')'",  # no close
    "(S (NP (PRP She))))": "trailing input after tree at token 10",  # extra
    "(S)": "leaf 'S' must hold exactly one word, got []",
    "(S (NP two words here) (VP (VB x)))":
        "leaf 'NP' must hold exactly one word, got ['two', 'words', 'here']",
    "(S (NP (PRP I)) stray)":  # words mixed with constituents
        "node 'S' mixes child constituents and bare words",
    "((NP (PRP I)))": "missing node label at token 1",
    "word": "expected '(' at token 0",  # no brackets at all
    "(S (NP (PRP I))) (S (NP (PRP I)))":  # two roots
        "trailing input after tree at token 10",
    "   \n": "empty tree string",
    ")": "expected '(' at token 0",
    "(": "missing node label at token 1",
    "(S ()": "missing node label at token 3",
    "(S a": "unbalanced parentheses: missing ')'",
    "(S (NP a) b": "unbalanced parentheses: missing ')'",
    "(S a (NP b))": "node 'S' mixes child constituents and bare words",
    "(S ))": "leaf 'S' must hold exactly one word, got []",
    "(S (A a))x": "trailing input after tree at token 7",
}


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

    def test_tokenizer_equals_character_loop(self):
        # Every code point but the surrogates, each between two letters,
        # splits the text exactly where str.isspace() says it does.
        text = "x".join(chr(c) for c in range(sys.maxunicode + 1)
                        if not 0xD800 <= c < 0xE000)
        assert _tokenize(text) == tokenize_loop(text)
        # Seeded: strings over brackets, letters and Unicode blanks, next
        # to look-alikes that are not blanks (zero width space, word
        # joiner, U+180E, ideographic full stop).
        rng = np.random.default_rng(19)
        alphabet = list("()Sx.-\\'\"") + [
            " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
            "\x1e", "\x1f", "\x85", "\xa0", "\u1680", "\u2000", "\u200a",
            "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
            "\u200b", "\u2060", "\u180e", "\u3002", "\ufeff", "\u00e9"]
        for _ in range(3000):
            text = "".join(rng.choice(alphabet, size=rng.integers(0, 30)))
            assert _tokenize(text) == tokenize_loop(text), repr(text)

    def test_single_preterminal_tree(self):
        tree = parse_bracketed("(UH hello)")
        assert len(tree) == 1
        assert tree.nodes[0].word == "hello"
        assert tree.preterminal_order == [0]

    def test_unary_chain_kept(self):
        tree = parse_bracketed("(S (VP (VB go)))")
        assert [n.label for n in tree.nodes] == ["S", "VP", "VB"]

    def test_nodes_are_compact(self):
        """Slotted nodes with tuple children; trees parsed from different
        strings share one object per equal label and word."""
        other = "(S (VP (VBD had) (NP (NN patience))) (NP (PRP She)))"
        first: dict[str, str] = {}
        for tree in (parse_bracketed(SAMPLE), parse_bracketed(other)):
            for node in tree.nodes:
                assert not hasattr(node, "__dict__")
                for s in (node.label, node.word):
                    if s is not None:
                        assert first.setdefault(s, s) is s, s
                kids = tuple(c.id for c in tree.nodes if c.parent == node.id)
                assert type(node.children) is tuple
                assert node.children == kids
                assert (node.children == ()) == node.is_preterminal
        assert {"S", "NP", "VP", "had", "patience", "She"} <= set(first)

    @pytest.mark.parametrize("bad", list(MALFORMED))
    def test_malformed_raises(self, bad):
        for parse in (parse_bracketed, parse_bracketed_recursive):
            with pytest.raises(TreeSyntaxError) as raised:
                parse(bad)
            assert str(raised.value) == MALFORMED[bad]

    def test_matches_recursive_parser(self):
        # Seeded fuzz against the recursive-descent parser the flat pass
        # replaced: the same nodes, token order and root, or the same
        # error message.  Every fifth string is nested up to 300 deep,
        # well inside the oracle's recursion limit; every third is a
        # well-formed random tree, which must also serialize to the
        # oracle's bytes.
        rng = np.random.default_rng(23)
        pieces = ["(", ")", " ", "S", "NP", "x", "\n", "()", "(NN a)",
                  "(A ", ") ", "\u3000", "(B b) "]
        parsed = 0
        for k in range(6000):
            if k % 3 == 0:
                text = random_bracketed(rng, blanks=(" ", "", "\n  ", "\t"))
            else:
                text = "".join(rng.choice(pieces, size=rng.integers(0, 30)))
            if k % 5 == 0:
                depth = int(rng.integers(1, 300))
                text = "(A " * depth + text + ")" * depth
            try:
                want = parse_bracketed_recursive(text)
            except TreeSyntaxError as e:
                with pytest.raises(TreeSyntaxError) as raised:
                    parse_bracketed(text)
                assert str(raised.value) == str(e), repr(text)
                continue
            got = parse_bracketed(text)
            assert got.nodes == want.nodes, repr(text)
            assert got.preterminal_order == want.preterminal_order
            assert got.root_index == want.root_index == 0
            assert serialize(got) == serialize_recursive(want)
            parsed += 1
        assert parsed > 2000

    def test_deep_tree_round_trips(self):
        # 20,000 levels: far past any recursion limit.
        depth = 20000
        text = "(S " * (depth - 1) + "(NN a)" + ")" * (depth - 1)
        tree = parse_bracketed(text)
        assert len(tree) == depth
        assert [n.parent for n in tree.nodes] == [None, *range(depth - 1)]
        assert tree.preterminal_order == [depth - 1]
        assert serialize(tree) == text
        assert tree.path_index(0)[0].tolist() == list(range(depth))[::-1]

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


class TestFamilyIndex:
    def test_hand_example(self):
        # (A (B b) (C c)): A=0, B=1, C=2.
        tree = parse_bracketed("(A (B b) (C c))")
        expect = np.array([[0, 1, 2],
                           [1, -1, -1],
                           [2, -1, -1]])
        assert np.array_equal(tree.family_index, expect)

    def test_rows_are_node_then_children(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            tree = random_tree(rng)
            index = tree.family_index
            assert index is tree.family_index  # built once per tree
            for node, row in zip(tree.nodes, index):
                assert row[row >= 0].tolist() == [node.id, *node.children]
                assert (row[1 + len(node.children):] == -1).all()

    def test_single_node(self):
        tree = parse_bracketed("(X x)")
        assert np.array_equal(tree.family_index, [[0]])


def token_paths(tree: ConstTree, ref: int) -> list[list[int]]:
    """path_index(ref)'s rows without their -1 padding."""
    return [row[row >= 0].tolist() for row in tree.path_index(ref)]


class TestTreePath:
    """ConstTree.path_index: every token's path to a reference node."""

    def test_hand_example(self):
        # Path from the adjective's preterminal (JJ, id 6, token 2) up
        # through the object NP (5) to VP (3), down to the verb (VBD, 4).
        tree = parse_bracketed(SAMPLE)
        index = tree.path_index(4)
        assert index.dtype == np.intp and index.shape == (4, 5)
        assert index[2].tolist() == [6, 5, 3, 4, -1]
        assert [tree.nodes[k].label for k in token_paths(tree, 4)[2]] == [
            "JJ", "NP", "VP", "VBD",
        ]
        assert index is tree.path_index(4)  # built once per reference

    def test_self_path_is_singleton(self):
        tree = parse_bracketed(SAMPLE)
        for tok, k in enumerate(tree.preterminal_order):
            assert token_paths(tree, k)[tok] == [k]

    def test_ancestor_descendant(self):
        # every token's path to the root climbs its ancestors
        tree = parse_bracketed(SAMPLE)
        assert token_paths(tree, 0) == [[2, 1, 0], [4, 3, 0], [6, 5, 3, 0],
                                        [7, 5, 3, 0]]
        assert token_paths(tree, 3)[3] == [7, 5, 3]

    def test_reversal_symmetry(self):
        # between two preterminals, each path is the other reversed
        rng = np.random.default_rng(11)
        for _ in range(10):
            tree = random_tree(rng)
            paths = [token_paths(tree, k) for k in tree.preterminal_order]
            for i, row in enumerate(paths):
                for j, path in enumerate(row):
                    assert path == paths[j][i][::-1]

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            tree = random_tree(rng)
            for ref in range(len(tree)):
                assert token_paths(tree, ref) == [
                    bfs_path(tree, k, ref) for k in tree.preterminal_order]

    def test_out_of_range(self):
        tree = parse_bracketed(SAMPLE)
        for ref in (-1, len(tree)):
            with pytest.raises(IndexError):
                tree.path_index(ref)
            assert ref not in tree._path_index
