"""Constituency trees: bracketed-string parsing, adjacency, and node paths.

Trees follow the Penn-Treebank bracketing convention.  Words are stored as
payloads on their preterminal (POS) nodes and are never graph nodes
themselves: token i of a sentence corresponds to the i-th preterminal in
left-to-right order.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class TreeSyntaxError(ValueError):
    """Raised when a bracketed tree string is malformed."""


@dataclass
class Node:
    id: int
    label: str
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    word: str | None = None

    @property
    def is_preterminal(self) -> bool:
        return self.word is not None


@dataclass
class ConstTree:
    """Indexed constituency tree.

    Node ids are assigned in depth-first pre-order, so the root is node 0
    and ``preterminal_order`` (the i-th entry is the node carrying token i)
    is increasing.
    """

    nodes: list[Node]
    root_index: int
    preterminal_order: list[int]
    # token paths per reference node, built on first use
    path_groups: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def n_tokens(self) -> int:
        return len(self.preterminal_order)

    def token_node(self, token_index: int) -> int:
        """Node id of the preterminal above token ``token_index``."""
        if not 0 <= token_index < len(self.preterminal_order):
            raise IndexError(
                f"token index {token_index} out of range for sentence of "
                f"{len(self.preterminal_order)} tokens"
            )
        return self.preterminal_order[token_index]

    def tokens(self) -> list[str]:
        return [self.nodes[i].word for i in self.preterminal_order]


def _tokenize(text: str) -> list[str]:
    out = []
    cur = []
    for ch in text:
        if ch in "()":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


def parse_bracketed(text: str) -> ConstTree:
    """Parse a bracketed constituency string into a ConstTree.

    Every leaf must be a ``(POS word)`` pair; interior nodes are
    ``(LABEL child...)``.  Whitespace between tokens is not significant.
    """
    toks = _tokenize(text)
    if not toks:
        raise TreeSyntaxError("empty tree string")

    nodes: list[Node] = []
    preterminals: list[int] = []
    pos = 0

    def parse_node(parent: int | None) -> int:
        nonlocal pos
        if pos >= len(toks) or toks[pos] != "(":
            raise TreeSyntaxError(f"expected '(' at token {pos}")
        pos += 1
        if pos >= len(toks) or toks[pos] in "()":
            raise TreeSyntaxError(f"missing node label at token {pos}")
        label = toks[pos]
        pos += 1
        node_id = len(nodes)
        nodes.append(Node(id=node_id, label=label, parent=parent))

        words = []
        while pos < len(toks) and toks[pos] != ")":
            if toks[pos] == "(":
                child = parse_node(node_id)
                nodes[node_id].children.append(child)
            else:
                words.append(toks[pos])
                pos += 1
        if pos >= len(toks):
            raise TreeSyntaxError("unbalanced parentheses: missing ')'")
        pos += 1  # consume ')'

        if nodes[node_id].children and words:
            raise TreeSyntaxError(
                f"node {label!r} mixes child constituents and bare words"
            )
        if not nodes[node_id].children:
            if len(words) != 1:
                raise TreeSyntaxError(
                    f"leaf {label!r} must hold exactly one word, got {words!r}"
                )
            nodes[node_id].word = words[0]
            preterminals.append(node_id)
        return node_id

    try:
        root = parse_node(None)
    except RecursionError:
        raise TreeSyntaxError("tree nested too deeply") from None
    if pos != len(toks):
        raise TreeSyntaxError(f"trailing input after tree at token {pos}")
    return ConstTree(nodes=nodes, root_index=root, preterminal_order=preterminals)


def serialize(tree: ConstTree) -> str:
    """Bracketed-string form of a tree; inverse of parse_bracketed."""

    def emit(node_id: int) -> str:
        node = tree.nodes[node_id]
        if node.is_preterminal:
            return f"({node.label} {node.word})"
        inner = " ".join(emit(c) for c in node.children)
        return f"({node.label} {inner})"

    return emit(tree.root_index)


def build_adjacency(tree: ConstTree):
    """Directed adjacency with self-loops, as a dense 0/1 float matrix.

    Row i selects the aggregation sources of node i: itself plus its
    children (messages travel from children to their parent).
    """
    import numpy as np

    n = len(tree.nodes)
    a = np.zeros((n, n), dtype=np.float64)
    for node in tree.nodes:
        a[node.id, node.id] = 1.0
        for c in node.children:
            a[node.id, c] = 1.0
    return a


def tree_path(tree: ConstTree, i: int, j: int) -> list[int]:
    """Node ids on the unique simple path from i to j, endpoints included.

    Computed by lifting both nodes to their lowest common ancestor over
    parent links.
    """
    nodes = tree.nodes
    if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
        raise IndexError(f"node id out of range: ({i}, {j})")

    def depth_of(k: int) -> int:
        d = 0
        while nodes[k].parent is not None:
            k = nodes[k].parent
            d += 1
        return d

    up_i: list[int] = [i]
    up_j: list[int] = [j]
    di, dj = depth_of(i), depth_of(j)
    a, b = i, j
    while di > dj:
        a = nodes[a].parent
        up_i.append(a)
        di -= 1
    while dj > di:
        b = nodes[b].parent
        up_j.append(b)
        dj -= 1
    while a != b:
        a = nodes[a].parent
        b = nodes[b].parent
        up_i.append(a)
        up_j.append(b)
    # `a` is now the LCA and terminates up_i; up_j repeats it at its tail.
    return up_i + up_j[-2::-1]
