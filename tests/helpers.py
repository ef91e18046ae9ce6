"""Shared oracles for the test suite.

The CRF oracle scores every one of the K^n tag sequences explicitly, so
dynamic programming results can be checked against exhaustive truth.
The span codec and tokenizer oracles are the loops the package replaced
with its one O/B/I/C codec and one regular expression.
"""

import itertools

import numpy as np

from framepath.autodiff import grad_check


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
    """The (start, trans, end) numpy tables a CRF actually scores with."""
    start = crf.start.data.copy()
    trans = crf.trans.data.copy()
    if constrain:
        start = start + crf._start_penalty
        trans = trans + crf._trans_penalty
    return start, trans, crf.end.data.copy()


def assert_grads_ok(loss, params, tol=1e-4, abs_floor=1e-8):
    """Tape gradients agree with central differences: relative error
    below tol, or absolute agreement below abs_floor where the gradient
    is too small for a relative comparison to mean anything."""
    _, report = grad_check(loss, params)
    for name, idx, analytic, numeric, rel in report:
        assert rel < tol or abs(analytic - numeric) < abs_floor, \
            (name, idx, analytic, numeric, rel)


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
