"""Graph convolution over constituency trees and path-sum features.

Messages travel upward only: each node aggregates itself and its
children, so after L layers a node's representation depends exactly on
its descendants within L edges.  Node features start as trainable
embeddings of the constituent label (NP, VP, VBD, ...), shared across
all trees.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import Embedding, LayerNorm, Linear, ParamStore
from .syntax import ConstTree

Drop = Callable[[Tensor], Tensor]
Trees = ConstTree | Sequence[ConstTree]


def _identity(t: Tensor) -> Tensor:
    return t


def _back_to_back(trees: Sequence[ConstTree]) -> list[int]:
    """The row where each tree's nodes start when they run tree after
    tree."""
    return list(accumulate(map(len, trees), initial=0))[:-1]


def _forest_index(blocks: Sequence[np.ndarray], firsts: Sequence[int],
                  ) -> np.ndarray:
    """Padded row indices (pad -1) of trees whose rows start at firsts,
    stacked into one index over the forest's rows: block k's entries move
    up by firsts[k], and pads stay -1."""
    if len(blocks) == 1 and firsts[0] == 0:
        return blocks[0]
    heights = [len(b) for b in blocks]
    widths = [b.shape[1] for b in blocks]
    out = np.full((sum(heights), max(widths)), -1, dtype=np.intp)
    out[np.arange(max(widths)) < np.repeat(widths, heights)[:, None]] = (
        np.concatenate([b.ravel() for b in blocks]))
    shift = np.repeat(np.asarray(firsts, dtype=np.intp), heights)[:, None]
    return np.where(out < 0, -1, out + shift)


class TreeGcn:
    """Stack of graph-convolution layers: H' = LN(relu(S W + b)), with row
    k of S the sum of node k's row of H and its children's rows."""

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

    def __call__(self, trees: Trees, label_ids: Sequence[int],
                 drop: Drop = _identity) -> Tensor:
        """Representations for every tree node, shape (n_nodes, hidden)."""
        return self.layer_outputs(trees, label_ids, drop)[-1]

    def layer_outputs(self, trees: Trees, label_ids: Sequence[int],
                      drop: Drop = _identity) -> list[Tensor]:
        """[H0, H1, ..., HL] with H0 the label embedding rows.  Given a
        sequence of trees (a forest), the rows of each H and the label ids
        run tree after tree, and each layer is one op over every node."""
        trees = [trees] if isinstance(trees, ConstTree) else trees
        family = _forest_index([t.family_index for t in trees],
                               _back_to_back(trees))
        h = self.emb(label_ids)
        out = [h]
        for lin, norm in self.layers:
            h = norm(ad.relu(lin(ad.sum_row_groups(h, family))))
            h = drop(h)
            out.append(h)
        return out


def path_sum_features(trees: Trees, h: Tensor, refs: int | Sequence[int],
                      firsts: Sequence[int] | None = None) -> Tensor:
    """Per-token path features, shape (n_tokens, feature dim).

    Row i sums the node representations along the tree path from token
    i's preterminal to the reference node, both ends included.  Given
    sequences, tree k's paths run to refs[k] over h's rows from
    firsts[k] on (default: the trees' nodes back to back, as TreeGcn
    gives them), and the token rows come tree after tree: one op over a
    forest.
    """
    if isinstance(trees, ConstTree):
        trees, refs = [trees], [refs]
    if firsts is None:
        firsts = _back_to_back(trees)
    return ad.sum_row_groups(h, _forest_index(
        [tree.path_index(ref) for tree, ref in zip(trees, refs)], firsts))
