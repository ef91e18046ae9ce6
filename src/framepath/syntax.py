"""Constituency trees: bracketed-string parsing, and the padded row
indices the graph convolution and path features sum over.  A token's
path to a reference node comes from one walk: the token's preterminal
climbs to the reference's ancestor chain, then goes down it.  Each
reference node's paths are built once per tree and kept.

Trees follow the Penn-Treebank bracketing convention.  Words are stored as
payloads on their preterminal (POS) nodes and are never graph nodes
themselves: token i of a sentence corresponds to the i-th preterminal in
left-to-right order.
"""

from __future__ import annotations

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
        """Row i lists the nodes on the tree path from token i's
        preterminal to ref_node, both ends included, padded with -1
        (autodiff.pad_groups).  One walk: ref_node's ancestor chain is
        collected once, and each preterminal climbs until it meets that
        chain, at the lowest common ancestor, then goes down it.  Built
        on first use for each reference node and kept; a node id out of
        range raises IndexError."""
        if ref_node not in self._path_index:
            nodes = self.nodes
            if not 0 <= ref_node < len(nodes):
                raise IndexError(f"node id {ref_node} out of range for a "
                                 f"tree of {len(nodes)} nodes")
            down, k = [], ref_node  # ref_node, its parent, ..., the root
            while k is not None:
                down.append(k)
                k = nodes[k].parent
            at = {k: d for d, k in enumerate(down)}
            rows = []
            for k in self.preterminal_order:
                up = []
                while k not in at:
                    up.append(k)
                    k = nodes[k].parent
                rows.append(up + down[at[k]::-1])
            self._path_index[ref_node] = pad_groups(rows)
        return self._path_index[ref_node]

    @cached_property
    def family_index(self) -> np.ndarray:
        """Row k lists node k and then its children, padded with -1: the
        rows a graph-convolution layer sums into node k."""
        return pad_groups([[node.id, *node.children] for node in self.nodes])


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_bracketed(text: str) -> ConstTree:
    """Parse a bracketed constituency string into a ConstTree.

    Every leaf must be a ``(POS word)`` pair; interior nodes are
    ``(LABEL child...)``.  Whitespace between tokens is not significant,
    and one pass with a stack of open nodes parses any depth.  Labels
    and words are interned, so a corpus holds one string per distinct
    label and word; CPython 3.12 never frees interned strings, so that
    cost, bounded by the vocabulary, lasts the process's life.
    """
    toks = _tokenize(text)
    if not toks:
        raise TreeSyntaxError("empty tree string")
    if toks[0] != "(":
        raise TreeSyntaxError("expected '(' at token 0")
    n = len(toks)
    nodes: list[Node] = []
    preterminals: list[int] = []
    stack: list[tuple] = []  # (node, child ids, bare words) of open nodes
    pos = 0
    while True:
        tok = toks[pos]
        pos += 1
        if tok == "(":
            if pos >= n or toks[pos] in "()":
                raise TreeSyntaxError(f"missing node label at token {pos}")
            node = Node(len(nodes), sys.intern(toks[pos]))
            nodes.append(node)
            if stack:
                node.parent = stack[-1][0].id
                stack[-1][1].append(node.id)
            pos += 1
            if pos + 1 < n and toks[pos + 1] == ")" and toks[pos] not in "()":
                node.word = sys.intern(toks[pos])  # a (LABEL word) leaf
                preterminals.append(node.id)
                pos += 2
            else:
                stack.append((node, [], []))
        elif tok == ")":
            node, kids, words = stack.pop()
            if kids and words:
                raise TreeSyntaxError(f"node {node.label!r} mixes child "
                                      "constituents and bare words")
            if not kids:  # one word alone took the preterminal path above
                raise TreeSyntaxError(f"leaf {node.label!r} must hold "
                                      f"exactly one word, got {words!r}")
            node.children = tuple(kids)
        else:
            stack[-1][2].append(tok)
        if not stack:
            break
        if pos >= n:
            raise TreeSyntaxError("unbalanced parentheses: missing ')'")
    if pos != n:
        raise TreeSyntaxError(f"trailing input after tree at token {pos}")
    return ConstTree(nodes=nodes, root_index=0, preterminal_order=preterminals)


def serialize(tree: ConstTree) -> str:
    """Bracketed-string form of a tree; inverse of parse_bracketed.  One
    pass over the nodes in pre-order: each preterminal closes the
    constituents it ends and is followed by a space if a sibling comes."""
    nodes = tree.nodes
    parts: list[str] = []
    for node in nodes:
        if not node.is_preterminal:
            parts.append(f"({node.label} ")
            continue
        parts.append(f"({node.label} {node.word})")
        k = node
        while k.parent is not None and nodes[k.parent].children[-1] == k.id:
            parts.append(")")
            k = nodes[k.parent]
        if k.parent is not None:
            parts.append(" ")
    return "".join(parts)

