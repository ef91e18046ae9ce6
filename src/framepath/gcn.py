"""Graph convolution over constituency trees and path-sum features.

Messages travel upward only: each node aggregates itself and its
children, so after L layers a node's representation depends exactly on
its descendants within L edges.  Node features start as trainable
embeddings of the constituent label (NP, VP, VBD, ...), shared across
all trees.
"""

from __future__ import annotations

from typing import Callable, Sequence

from . import autodiff as ad
from .autodiff import Tensor
from .layers import Embedding, LayerNorm, Linear, ParamStore
from .syntax import ConstTree, build_adjacency

Drop = Callable[[Tensor], Tensor]


def _identity(t: Tensor) -> Tensor:
    return t


class TreeGcn:
    """Stack of graph-convolution layers: H' = LN(relu(A H W + b)), with A
    summing each node and its children."""

    def __init__(self, store: ParamStore, path: str, n_labels: int,
                 emb_dim: int, hidden: int, layers: int = 2):
        self.emb = Embedding(store, f"{path}.emb", n_labels, emb_dim)
        self.layers = []
        width = emb_dim
        for k in range(layers):
            lin = Linear(store, f"{path}.l{k}", width, hidden)
            norm = LayerNorm(store, f"{path}.l{k}.ln", hidden)
            self.layers.append((lin, norm))
            width = hidden

    def __call__(self, tree: ConstTree, label_ids: Sequence[int],
                 drop: Drop = _identity) -> Tensor:
        """Representations for every tree node, shape (n_nodes, hidden)."""
        return self.layer_outputs(tree, label_ids, drop)[-1]

    def layer_outputs(self, tree: ConstTree, label_ids: Sequence[int],
                      drop: Drop = _identity) -> list[Tensor]:
        """[H0, H1, ..., HL] with H0 the label embedding rows."""
        a = ad.tensor(build_adjacency(tree))
        h = self.emb(label_ids)
        out = [h]
        for lin, norm in self.layers:
            h = norm(ad.relu(lin(ad.matmul(a, h))))
            h = drop(h)
            out.append(h)
        return out


def path_sum_features(tree: ConstTree, h: Tensor, ref_node: int) -> Tensor:
    """Per-token path features, shape (n_tokens, feature dim).

    Row i sums the node representations along the tree path from token
    i's preterminal to ref_node, both ends included.
    """
    return ad.sum_row_groups(h, tree.token_paths(ref_node))
