"""Plain-text trace of one sentence through the model.

Dumps every intermediate the encoder produces (label embeddings, each
graph-convolution layer, path sums for both reference choices, backbone
outputs, emissions, and the decoded tag sequence) with shapes, so a
reader can follow a concrete sentence through the whole architecture.
The output is deterministic for a fixed checkpoint and sentence.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .corpus import Sentence, decode_iobc
from .model import FrameParser
from .syntax import serialize


def _matrix(title: str, values: np.ndarray, row_names=None) -> list[str]:
    out = [f"{title}  shape {values.shape}"]
    width = max(len(str(n)) for n in row_names) if row_names else 0
    for i, row in enumerate(np.atleast_2d(values)):
        name = f"{row_names[i]:>{width}} " if row_names else ""
        cells = " ".join(f"{v: .6f}" for v in row)
        out.append(f"  {name}[{cells}]")
    return out


def _path_lines(tree, ref_node: int) -> list[str]:
    lines = []
    for tok, row in enumerate(tree.path_index(ref_node)):
        nodes = row[row >= 0]
        labels = " -> ".join(tree.nodes[i].label for i in nodes)
        plural = "node" if len(nodes) == 1 else "nodes"
        lines.append(f"  token {tok} ({tree.tokens()[tok]}): "
                     f"{len(nodes)} {plural}: {labels}")
    return lines


def generate_trace(model: FrameParser, sentence: Sentence) -> str:
    tree = sentence.tree
    node_names = [f"[{i} {n.label}]" for i, n in enumerate(tree.nodes)]
    token_names = [f"[{i} {t}]" for i, t in enumerate(sentence.tokens)]
    lines: list[str] = []
    out = lines.append

    out("== sentence ==")
    out("tokens: " + " ".join(sentence.tokens))
    out("pos:    " + " ".join(sentence.pos))
    out("tree:   " + serialize(tree))
    out(f"nodes: {len(tree.nodes)}  root: node {tree.root_index}")
    out("")

    prep = model.prepare(sentence)
    with ad.fresh_tape(), ad.no_grad():
        out("== constituent encodings ==")
        if model.gcn is None:
            out("gcn disabled: path features are zero vectors")
            out("")
        else:
            hs = model.gcn.layer_outputs(tree, prep.label_ids)
            for k, h in enumerate(hs):
                title = f"H{k}" + ("  (label embeddings)" if k == 0 else "")
                lines.extend(_matrix(title, h.data, node_names))
                out("")

        enc = model.encode(prep)
        out("== path features ==")
        out(f"p_root  reference: node {tree.root_index} "
            f"({tree.nodes[tree.root_index].label})")
        if model.gcn is not None:
            lines.extend(_path_lines(tree, tree.root_index))
        out("")

        out("== backbone A ==")
        lines.extend(_matrix("e (token + pos embeddings)",
                             model.embed([prep]).data, token_names))
        out("")
        lines.extend(_matrix("a = LN(BiLSTM(e, p_root) + e)", enc.a.data,
                             token_names))
        out("")

        out("== target identification ==")
        emissions = model.ti_emit(enc.a)
        lines.extend(_matrix("emissions over O/B/I/C", emissions.data,
                             token_names))
        tags = model.ti_crf.viterbi(emissions.data)
        labels = [model.ti_crf.scheme.labels[t] for t in tags]
        out("viterbi: " + " ".join(labels))
        if sentence.annotations:
            targets = [list(a.target) for a in sentence.annotations]
            out(f"gold targets: {targets}")
        else:
            targets = decode_iobc(tags)
            out(f"predicted targets: {targets}")
        out("")

        for target in targets[:1]:
            first = sorted(target)[0]
            ref = tree.token_node(first)
            out(f"== predicate paths (target {target}) ==")
            out(f"p_l  reference: node {ref} ({tree.nodes[ref].label}, "
                f"token {first})")
            if model.gcn is not None:
                lines.extend(_path_lines(tree, ref))
            out("")
            b, _ = model.target_b(enc, [(0, target)])
            lines.extend(_matrix("b = LN(BiLSTM(e, p_l) + e)", b.data,
                                 token_names))
            out("")

    return "\n".join(lines) + "\n"
