"""Linear-chain conditional random field with learned boundary scores.

Scores factor as start[y0] + sum emissions[t, yt] + sum trans[y(t-1), yt]
+ end[yn-1].  The log partition function runs in log space throughout, so
no probability ever underflows.  Structural constraints (which labels may
open a sequence, which may follow which) are applied as additive -1e4
penalties rather than hard -inf, keeping every quantity finite; the same
penalties can be switched on for the training objective or left to
decoding only.

log Z and the gold score are one tape op each; log Z's backward pass is
forward-backward (Sutton & McCallum, An Introduction to CRFs, 2012).
Viterbi is plain numpy and breaks score ties toward the lower label id
(argmax returns the first maximum).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .layers import ParamStore

PENALTY = -1e4


@dataclass
class TagScheme:
    """Boolean structure of a tagging scheme: legal openers and bigrams."""

    labels: tuple[str, ...]
    allowed_start: np.ndarray
    allowed_transition: np.ndarray  # [from, to]

    @property
    def n_labels(self) -> int:
        return len(self.labels)


def iobc_scheme() -> TagScheme:
    """O/B/I/C tags for possibly discontinuous target spans.

    A sentence cannot open with a continuation (I or C), and I must
    extend an adjacent target token so it cannot follow O.  C resumes
    after a gap, so O -> C is legal.
    """
    labels = ("O", "B", "I", "C")
    start = np.array([True, True, False, False])
    trans = np.ones((4, 4), dtype=bool)
    trans[0, 2] = False  # O -> I
    return TagScheme(labels, start, trans)


def iob2_scheme() -> TagScheme:
    """O/B/I tags for contiguous spans: I only continues a span."""
    labels = ("O", "B", "I")
    start = np.array([True, True, False])
    trans = np.ones((3, 3), dtype=bool)
    trans[0, 2] = False  # O -> I
    return TagScheme(labels, start, trans)


def open_scheme(labels: tuple[str, ...]) -> TagScheme:
    """No structural restrictions; used when constraints come from
    per-instance emission masks instead."""
    k = len(labels)
    return TagScheme(labels, np.ones(k, dtype=bool), np.ones((k, k), dtype=bool))


class LinearChainCrf:
    def __init__(self, store: ParamStore, path: str, scheme: TagScheme,
                 group: str | None = None):
        k = scheme.n_labels
        self.scheme = scheme
        self.trans = store.add(f"{path}.trans", np.zeros((k, k)), group=group)
        self.start = store.zeros(f"{path}.start", (k,))
        self.end = store.zeros(f"{path}.end", (k,))
        self._start_penalty = np.where(scheme.allowed_start, 0.0, PENALTY)
        self._trans_penalty = np.where(scheme.allowed_transition, 0.0, PENALTY)

    def _tables(self, constrain: bool) -> tuple[np.ndarray, np.ndarray]:
        """Start and transition scores, with the penalties if constrained."""
        if not constrain:
            return self.start.data, self.trans.data
        return (self.start.data + self._start_penalty,
                self.trans.data + self._trans_penalty)

    def log_partition(self, emissions: Tensor, constrain: bool) -> Tensor:
        """log Z by the forward algorithm, as one tape op whose backward
        runs the beta recursion and hands node marginals to emissions,
        start and end, and edge marginals summed over positions to trans."""
        n, k = emissions.data.shape
        if n == 0:
            raise ValueError("empty sequence")
        start, trans = self._tables(constrain)
        x, end = emissions.data, self.end.data
        alpha = np.empty((n, k))
        alpha[0] = start + x[0]
        for t in range(1, n):
            alpha[t] = _logsumexp(trans + alpha[t - 1][:, None]) + x[t]
        log_z = ad._check(_logsumexp(alpha[-1] + end), "crf.log_partition")

        def vjp(g):
            beta = np.empty((n, k))
            beta[-1] = end
            for t in range(n - 2, -1, -1):
                beta[t] = _logsumexp(trans.T + (x[t + 1] + beta[t + 1])[:, None])
            nodes = g * np.exp(alpha + beta - log_z)
            edges = np.exp(alpha[:-1, :, None] + trans
                           + (x[1:] + beta[1:])[:, None, :] - log_z)
            ad._acc(emissions, nodes)
            ad._acc(self.start, nodes[0])
            ad._acc(self.end, nodes[-1])
            ad._acc(self.trans, g * edges.sum(axis=0))

        return ad._record(Tensor(log_z),
                          (emissions, self.start, self.trans, self.end), vjp)

    def gold_score(self, emissions: Tensor, tags: list[int],
                   constrain: bool) -> Tensor:
        """Score of one tag sequence, as one tape op whose backward adds
        the output gradient onto every gold cell."""
        n = emissions.data.shape[0]
        if len(tags) != n:
            raise ValueError(f"{len(tags)} tags for {n} positions")
        start, trans = self._tables(constrain)
        cells = [(emissions, (np.arange(n), tags)), (self.start, tags[:1]),
                 (self.trans, (tags[:-1], tags[1:])), (self.end, tags[-1:])]
        score = start[tags[0]] + emissions.data[cells[0][1]].sum()
        score = score + trans[cells[2][1]].sum()  # 0.0 when n == 1
        score = score + self.end.data[tags[-1]]

        def vjp(g):
            for param, idx in cells:
                full = np.zeros_like(param.data)
                np.add.at(full, idx, g)
                ad._acc(param, full)

        return ad._record(Tensor(ad._check(score, "crf.gold_score")),
                          [param for param, _ in cells], vjp)

    def nll(self, emissions: Tensor, tags: list[int], constrain: bool) -> Tensor:
        """Negative log-likelihood of the tag sequence."""
        return ad.sub(self.log_partition(emissions, constrain),
                      self.gold_score(emissions, tags, constrain))

    def viterbi(self, emissions: np.ndarray) -> list[int]:
        """Best tag sequence under the constrained scores (no tape)."""
        n, k = emissions.shape
        if n == 0:
            return []
        start, trans = self._tables(True)
        score = start + emissions[0]
        back = np.zeros((n, k), dtype=np.intp)
        for t in range(1, n):
            total = score[:, None] + trans
            back[t] = total.argmax(axis=0)
            score = total[back[t], np.arange(k)] + emissions[t]
        score = score + self.end.data
        tags = [int(score.argmax())]
        for t in range(n - 1, 0, -1):
            tags.append(int(back[t][tags[-1]]))
        return tags[::-1]


def _logsumexp(a: np.ndarray) -> np.ndarray:  # over axis 0
    m = a.max(axis=0)
    return m + np.log(np.exp(a - m).sum(axis=0))


def mask_penalty(allowed: np.ndarray) -> np.ndarray:
    """Additive emission penalty vector from a boolean allowed-label mask."""
    return np.where(allowed, 0.0, PENALTY)
