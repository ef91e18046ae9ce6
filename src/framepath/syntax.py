"""Constituency trees: bracketed-string parsing, node paths, and the
padded row indices the graph convolution and path features sum over.

Trees follow the Penn-Treebank bracketing convention.  Words are stored as
payloads on their preterminal (POS) nodes and are never graph nodes
themselves: token i of a sentence corresponds to the i-th preterminal in
left-to-right order.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autodiff import pad_groups


class TreeSyntaxError(ValueError):
    """Raised when a bracketed tree string is malformed."""


@dataclass(slots=True)
class Node:
    """One constituent; ``children`` is a tuple, ``()`` on a preterminal."""

    id: int
    label: str
    parent: int | None = None
    children: tuple[int, ...] = ()
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
    _path_index: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

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

    def path_index(self, ref_node: int) -> np.ndarray:
        """Row i lists tree_path from token i's preterminal to ref_node,
        padded with -1 (autodiff.pad_groups); built on first use for each
        reference node and kept."""
        if ref_node not in self._path_index:
            self._path_index[ref_node] = pad_groups([
                tree_path(self, node, ref_node)
                for node in self.preterminal_order])
        return self._path_index[ref_node]

    @cached_property
    def family_index(self) -> np.ndarray:
        """Row k lists node k and then its children, padded with -1: the
        rows a graph-convolution layer sums into node k."""
        return pad_groups([[node.id, *node.children] for node in self.nodes])


def _tokenize(text: str) -> list[str]:
    return re.findall(r"[()]|[^\s()]+", text)


def parse_bracketed(text: str) -> ConstTree:
    """Parse a bracketed constituency string into a ConstTree.

    Every leaf must be a ``(POS word)`` pair; interior nodes are
    ``(LABEL child...)``.  Whitespace between tokens is not significant.
    Labels and words are interned, so a corpus holds one string per
    distinct label and word; CPython 3.12 never frees interned strings,
    so that cost, bounded by the vocabulary, lasts the process's life.
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
        label = sys.intern(toks[pos])
        pos += 1
        node_id = len(nodes)
        nodes.append(Node(id=node_id, label=label, parent=parent))

        kids, words = [], []
        while pos < len(toks) and toks[pos] != ")":
            if toks[pos] == "(":
                kids.append(parse_node(node_id))
            else:
                words.append(toks[pos])
                pos += 1
        if pos >= len(toks):
            raise TreeSyntaxError("unbalanced parentheses: missing ')'")
        pos += 1  # consume ')'

        if kids and words:
            raise TreeSyntaxError(
                f"node {label!r} mixes child constituents and bare words"
            )
        nodes[node_id].children = tuple(kids)
        if not kids:
            if len(words) != 1:
                raise TreeSyntaxError(
                    f"leaf {label!r} must hold exactly one word, got {words!r}"
                )
            nodes[node_id].word = sys.intern(words[0])
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
