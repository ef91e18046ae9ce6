"""Graph convolution over constituency trees and path-sum features.

Messages travel upward only: each node aggregates itself and its
children, so after L layers a node's representation depends exactly on
its descendants within L edges.  Node features start as trainable
embeddings of the constituent label (NP, VP, VBD, ...), shared across
all trees.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import Embedding, LayerNorm, Linear, ParamStore
from .syntax import ConstTree, build_adjacency, tree_path

Drop = Callable[[Tensor], Tensor]


def _identity(t: Tensor) -> Tensor:
    return t


class TreeGcn:
    """Stack of graph-convolution layers: H' = LN(relu(A H W + b)).

    With mean_aggregation the adjacency rows are normalized by the node's
    1 + child count, turning the sum over sources into a mean.
    """

    def __init__(self, store: ParamStore, path: str, n_labels: int,
                 emb_dim: int, hidden: int, layers: int = 2,
                 mean_aggregation: bool = False):
        self.emb = Embedding(store, f"{path}.emb", n_labels, emb_dim)
        self.mean_aggregation = mean_aggregation
        self.hidden = hidden
        self.layers = []
        width = emb_dim
        for k in range(layers):
            lin = Linear(store, f"{path}.l{k}", width, hidden)
            norm = LayerNorm(store, f"{path}.l{k}.ln", hidden)
            self.layers.append((lin, norm))
            width = hidden

    def adjacency(self, tree: ConstTree) -> np.ndarray:
        a = build_adjacency(tree)
        if self.mean_aggregation:
            a = a / a.sum(axis=1, keepdims=True)
        return a

    def __call__(self, tree: ConstTree, label_ids: Sequence[int],
                 drop: Drop = _identity) -> Tensor:
        """Representations for every tree node, shape (n_nodes, hidden)."""
        return self.layer_outputs(tree, label_ids, drop)[-1]

    def layer_outputs(self, tree: ConstTree, label_ids: Sequence[int],
                      drop: Drop = _identity) -> list[Tensor]:
        """[H0, H1, ..., HL] with H0 the label embedding rows."""
        a = ad.tensor(self.adjacency(tree))
        h = self.emb(label_ids)
        out = [h]
        for lin, norm in self.layers:
            h = norm(ad.relu(lin(ad.matmul(a, h))))
            h = drop(h)
            out.append(h)
        return out


def path_sum_features(tree: ConstTree, h: Tensor, ref_node: int,
                      include_endpoints: bool = True) -> Tensor:
    """Per-token path features, shape (n_tokens, feature dim).

    Row i sums the node representations along the tree path from token
    i's preterminal to ref_node.  Without endpoints the two path ends are
    dropped; a path with nothing left between them contributes zeros.
    """
    groups = tree.path_groups.get((ref_node, include_endpoints))
    if groups is None:
        keep = slice(None) if include_endpoints else slice(1, -1)
        groups = tree.path_groups[ref_node, include_endpoints] = [
            tree_path(tree, tree.token_node(tok), ref_node)[keep]
            for tok in range(tree.n_tokens)]
    return ad.sum_row_groups(h, groups)
