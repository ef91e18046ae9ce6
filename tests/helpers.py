"""Shared oracles for the test suite.

The CRF oracle scores every one of the K^n tag sequences explicitly, so
dynamic programming results can be checked against exhaustive truth.
The span codec, tokenizer, tree and forest-index oracles are the loops
the package replaced with its one O/B/I/C codec, one string split, one
flat pass over the tokens or nodes and one vectorized shift; the tree
path oracle is a breadth-first search; the L2 penalty reference is the
op chain add_sq_norms replaced; the BiLSTM backward reference is the
block-per-factor form the op ran before it wrote its factors over its
gates.  The evaluation oracles encode one sentence per encode call and
score each task in its own pass, as the package did before its chunked
pass.
"""

import itertools
import sys

import numpy as np

from framepath import autodiff as ad
from framepath.autodiff import grad_check
from framepath.evaluation import _span_report, fi_accuracy
from framepath.syntax import ConstTree, Node, TreeSyntaxError, _tokenize


# Values of the wrong type or range that the seeded fuzz tests put in
# place of a valid value in a JSON record.
WRONG_VALUES = [None, 5, -1, 2.5, True, "x", "(", [], {}, [1], [None],
                [[0, 1]], [1, 2, 3], {"a": 1}, ["a"], [0.5, 1], [{}], 10**6]


def json_slots(value):
    """(container, key) of every value nested in a JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield value, key
        yield from json_slots(inner)


def enumerate_sequences(start, trans, end, emissions):
    """All K^n tag sequences and their chain scores, in lockstep order."""
    n, k = emissions.shape
    seqs = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
    scores = (start[seqs[:, 0]] + end[seqs[:, -1]]
              + emissions[np.arange(n), seqs].sum(axis=1))
    if n > 1:
        scores = scores + trans[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
    return seqs, scores


def logsumexp_np(x):
    m = x.max()
    return m + np.log(np.exp(x - m).sum())


def oracle_log_partition(start, trans, end, emissions) -> float:
    _, scores = enumerate_sequences(start, trans, end, emissions)
    return float(logsumexp_np(scores))


def oracle_viterbi(start, trans, end, emissions) -> list[int]:
    seqs, scores = enumerate_sequences(start, trans, end, emissions)
    return seqs[scores.argmax()].tolist()


def crf_tables(crf, constrain: bool):
    """The (start, trans, end) numpy tables a CRF actually scores with:
    constrained, -inf wherever its scheme forbids."""
    start, trans = crf._tables(constrain)
    return start.copy(), trans.copy(), crf.end.data.copy()


def assert_grads_ok(loss, params, tol=1e-4, abs_floor=1e-8):
    """Tape gradients agree with central differences: relative error
    below tol, or absolute agreement below abs_floor where the gradient
    is too small for a relative comparison to mean anything."""
    _, report = grad_check(loss, params)
    for name, idx, analytic, numeric, rel in report:
        assert rel < tol or abs(analytic - numeric) < abs_floor, \
            (name, idx, analytic, numeric, rel)


def add_sq_norms_reference(x, terms):
    """autodiff.add_sq_norms as the separate ops it replaced, term by
    term: mul(t, t), sum_all, a product with c as a constant scalar and
    add onto the running total."""
    for t, c in terms:
        x = ad.add(x, ad.mul(ad.sum_all(ad.mul(t, t)), ad.tensor(c)))
    return x


def bilstm_backward_reference(x, fwd, bwd, packed, gates, cs, out,
                              grad_h):
    """autodiff.bilstm_layer's backward as it ran before it wrote its
    gate-derivative factors over the gates block: each factor its own
    block, joined by one concatenate, the states block kept beside them,
    and both directions' input products batched.  gates and cs are the
    op's (2, step, sequence, ...) blocks and out its (n, 2H) rows.
    Returns the gradients of x and of fwd's and bwd's (wx, wh, b), as
    the op accumulates them into tensors without one."""
    n = len(out)
    h = cs.shape[-1]
    wx, wh = (np.array([p.data, q.data]) for p, q in zip(fwd[:2], bwd[:2]))
    _, cells = packed.mirrored
    hs = np.zeros_like(cs)
    hs[cells] = out.reshape(n, 2, h)
    i, f, g, o = (gates[..., j * h:(j + 1) * h] for j in range(4))
    tc = np.tanh(cs)
    c_before = np.concatenate([np.zeros_like(cs[:, :1]), cs[:, :-1]], 1)
    h_before = np.concatenate([np.zeros_like(hs[:, :1]), hs[:, :-1]], 1)
    draws = np.concatenate([g * i * (1.0 - i), c_before * f * (1.0 - f),
                            i * (1.0 - g * g), tc * o * (1.0 - o)], axis=-1)
    dc_from_dh = o * (1.0 - tc * tc)
    grad_block = np.zeros_like(hs)
    grad_block[cells] = grad_h.reshape(n, 2, h)
    dh = dc = np.zeros((2,) + hs.shape[2:])
    for t in range(packed.steps - 1, -1, -1):
        dh = dh + grad_block[:, t]
        dc = dc + dh * dc_from_dh[:, t]
        draw = np.multiply(np.concatenate([dc, dc, dc, dh], axis=-1),
                           draws[:, t], out=draws[:, t])
        dh = draw @ wh.transpose(0, 2, 1)
        dc = dc * f[:, t]
    flat = draws.reshape(2, -1, 4 * h)
    d_wh = h_before.reshape(2, -1, h).transpose(0, 2, 1) @ flat
    d_b = flat.sum(axis=1)
    dxw = draws[packed.by_direction]
    d_x = dxw @ wx.transpose(0, 2, 1)
    d_wx = x.T @ dxw
    return ([d_x[1] + d_x[0]]
            + [part[d] for d in (0, 1) for part in (d_wx, d_wh, d_b)])


def encode_iob2(spans, n):
    """Tag a sentence of length n with contiguous [start, end] spans."""
    tags = [0] * n
    last_end = -1
    for start, end in sorted(spans):
        if not (0 <= start <= end < n):
            raise ValueError(f"span ({start}, {end}) out of range for n={n}")
        if start <= last_end:
            raise ValueError(f"overlapping span ({start}, {end})")
        tags[start] = 1
        for i in range(start + 1, end + 1):
            tags[i] = 2
        last_end = end
    return tags


def decode_iob2(tags):
    """Recover sorted spans from a tag sequence; a stray I opens a span."""
    spans = []
    start = None
    for i, tag in enumerate(tags):
        if tag == 1:
            if start is not None:
                spans.append((start, i - 1))
            start = i
        elif tag == 2:
            if start is None:
                start = i
        else:
            if start is not None:
                spans.append((start, i - 1))
                start = None
    if start is not None:
        spans.append((start, len(tags) - 1))
    return spans


def tokenize_loop(text):
    """Bracketed-tree tokens: each parenthesis, and each maximal run of
    characters that are neither parentheses nor str.isspace()."""
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


def parse_bracketed_recursive(text):
    """The recursive-descent bracketed-tree parser, one Python frame per
    nesting level: the same trees and TreeSyntaxError messages as
    syntax.parse_bracketed, up to the interpreter's recursion limit."""
    toks = _tokenize(text)
    if not toks:
        raise TreeSyntaxError("empty tree string")
    nodes, preterminals = [], []
    pos = 0

    def parse_node(parent):
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
        pos += 1
        if kids and words:
            raise TreeSyntaxError(
                f"node {label!r} mixes child constituents and bare words")
        nodes[node_id].children = tuple(kids)
        if not kids:
            if len(words) != 1:
                raise TreeSyntaxError(
                    f"leaf {label!r} must hold exactly one word, got {words!r}")
            nodes[node_id].word = sys.intern(words[0])
            preterminals.append(node_id)
        return node_id

    root = parse_node(None)
    if pos != len(toks):
        raise TreeSyntaxError(f"trailing input after tree at token {pos}")
    return ConstTree(nodes=nodes, root_index=root,
                     preterminal_order=preterminals)


def serialize_recursive(tree):
    """Bracketed string of a tree, one Python frame per nesting level."""

    def emit(node_id):
        node = tree.nodes[node_id]
        if node.is_preterminal:
            return f"({node.label} {node.word})"
        return f"({node.label} " + " ".join(map(emit, node.children)) + ")"

    return emit(tree.root_index)


def bfs_path(tree, i, j):
    """Node ids on the path from i to j, both ends included, by
    breadth-first search over the undirected tree."""
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


def forest_index_loop(blocks, firsts):
    """Padded row indices (pad -1) stacked block after block, block k's
    entries moved up by firsts[k]: one slice write per block."""
    if len(blocks) == 1 and firsts[0] == 0:
        return blocks[0]
    out = np.full((sum(map(len, blocks)), max(b.shape[1] for b in blocks)),
                  -1, dtype=np.intp)
    row = 0
    for block, first in zip(blocks, firsts, strict=True):
        out[row:row + len(block), :block.shape[1]] = np.where(
            block < 0, -1, block + first)
        row += len(block)
    return out


def _gold_oracle(model, sentences, predict):
    """The annotations of the annotated sentences, in order, and what
    predict(encoding, targets, annotations) gives for them, from one
    single-sentence encode and predict call per sentence."""
    anns, out = [], []
    with ad.fresh_tape(), ad.no_grad():
        for sent in sentences:
            if sent.annotations:
                anns += sent.annotations
                out += predict(model.encode(model.prepare(sent)),
                               [(0, a.target) for a in sent.annotations],
                               sent.annotations)
    return anns, out


def evaluate_ti_oracle(model, sentences):
    """evaluate's ti report with one single-sentence encode per
    sentence."""
    with ad.fresh_tape(), ad.no_grad():
        pred = [[tuple(t) for t in model.ti_predict(model.encode(
            model.prepare(sent)))[0]] for sent in sentences]
    gold = [[tuple(sorted(a.target)) for a in sent.annotations]
            for sent in sentences]
    return _span_report("ti", gold, pred)


def evaluate_fi_oracle(model, sentences):
    """evaluate's fi report with its own gold pass: one encode and one
    frame prediction per annotated sentence."""
    anns, pred = _gold_oracle(model, sentences, lambda enc, targets, anns:
                              model.fi_predict(enc, targets,
                                               [a.lu for a in anns]))
    gold = [a.frame for a in anns]
    return {"task": "fi", "accuracy": fi_accuracy(gold, pred),
            "counts": {"total": len(gold),
                       "correct": sum(g == p for g, p in zip(gold, pred))}}


def evaluate_srl_oracle(model, sentences):
    """evaluate's srl report with its own gold pass: one encode and one
    role prediction per annotated sentence."""
    anns, pred = _gold_oracle(model, sentences, lambda enc, targets, anns:
                              zip(*model.srl_predict(
                                  enc, targets, [a.lu for a in anns],
                                  [a.frame for a in anns])))
    gold = [[(label, s, e) for (s, e), label in a.elements] for a in anns]
    pred = [[(label, s, e) for (s, e), label in zip(sp, lab)]
            for sp, lab in pred]
    return _span_report("srl", gold, pred)


ORACLES = {"ti": evaluate_ti_oracle, "fi": evaluate_fi_oracle,
           "srl": evaluate_srl_oracle}
ORACLE_DEV_METRICS = {"ti": [("ti", "f1")], "fi": [("fi", "accuracy")],
                      "srl": [("srl", "f1")],
                      "joint": [("fi", "accuracy"), ("srl", "f1")]}


def evaluate_oracle(model, sentences, task):
    """evaluation.evaluate, one oracle pass per reported task."""
    tasks = ("ti", "fi", "srl") if task == "joint" else (task,)
    return [ORACLES[t](model, sentences) for t in tasks]


def dev_metric_oracle(model, preps, task):
    """evaluation.dev_metric over the oracles: the mean of the task's
    report values, summed in the same order, on the preps' sentences."""
    parts = ORACLE_DEV_METRICS[task]
    sentences = [p.sentence for p in preps]
    return sum(ORACLES[t](model, sentences)[key]
               for t, key in parts) / len(parts)
