"""Linear-chain conditional random field with learned boundary scores.

Scores factor as start[y0] + sum emissions[t, yt] + sum trans[y(t-1), yt]
+ end[yn-1].  The log partition function runs in log space throughout, so
no probability ever underflows.  Structural constraints (which labels may
open a sequence, which may follow which) enter the training objective, if
switched on, as additive -1e4 penalties rather than hard -inf, keeping
every quantity finite.  Viterbi excludes forbidden openers and bigrams
outright, so decoding is legal at any emission scale.

log Z and the gold score are one tape op each over every chain of a
batch, packed back to back; log Z's backward pass is forward-backward
(Sutton & McCallum, An Introduction to CRFs, 2012).  Viterbi is plain
numpy max-product over the same packed block, every chain of a call at
once, and breaks score ties toward the lower label id (argmax returns
the first maximum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
                 l2: float = 0.0):
        k = scheme.n_labels
        self.scheme = scheme
        self.trans = store.add(f"{path}.trans", np.zeros((k, k)), l2=l2)
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

    def log_partition(self, emissions: Tensor, constrain: bool,
                      lengths: Sequence[int] | None = None) -> Tensor:
        """log Z of each chain packed back to back in emissions (lengths
        None: one chain, a scalar), by the forward algorithm over an
        ad.Packed block, as one tape op.  Its backward runs the beta
        recursion; cells past a chain's end hold -inf, whose exp is an
        exact zero marginal."""
        chains = ad.Packed(emissions.data.shape[0], lengths)
        start, trans = self._tables(constrain)
        end = self.end.data
        x = chains.to_block(emissions.data)
        alpha = np.full(x.shape, -np.inf)
        alpha[0] = start + x[0]
        for t in range(1, chains.steps):
            m = chains.running[t]
            alpha[t, :m] = _logsumexp(trans + alpha[t - 1, :m, :, None], 1) \
                + x[t, :m]
        log_z = np.empty(len(chains.order))
        log_z[chains.order] = _logsumexp(alpha[chains.last] + end, 1)
        ad._check(log_z, "crf.log_partition")

        def vjp(g):
            g, lz = np.reshape(g, -1)[chains.order], log_z[chains.order]
            beta = np.full(x.shape, -np.inf)
            for t in range(chains.steps - 1, -1, -1):
                m, going = chains.running[t], chains.running[t + 1]
                beta[t, going:m] = end  # chains whose last step is t
                if going:
                    beta[t, :going] = _logsumexp(
                        trans.T + (x[t + 1, :going]
                                   + beta[t + 1, :going])[:, :, None], 1)
            nodes = np.exp(alpha + beta - lz[:, None]) * g[:, None]
            edges = np.exp(alpha[:-1, :, :, None] + trans
                           + (x[1:] + beta[1:])[:, :, None, :]
                           - lz[:, None, None])
            ad._acc(emissions, chains.from_block(nodes))
            ad._acc(self.start, nodes[0].sum(axis=0))
            ad._acc(self.end, nodes[chains.last].sum(axis=0))
            ad._acc(self.trans, np.einsum("c,tcij->ij", g, edges))

        out = Tensor(log_z[0] if lengths is None else log_z)
        return ad._record(out, (emissions, self.start, self.trans, self.end),
                          vjp)

    def gold_score(self, emissions: Tensor, tags: Sequence[int],
                   constrain: bool,
                   lengths: Sequence[int] | None = None) -> Tensor:
        """Score of each chain's tag sequence (tags packed like emissions'
        rows; lengths None: one chain, a scalar), as one tape op whose
        backward adds each chain's output gradient onto its gold cells."""
        n, k = emissions.data.shape
        if len(tags) != n:
            raise ValueError(f"{len(tags)} tags for {n} positions")
        sizes = np.array(ad.chain_lengths(n, lengths))
        start, trans = self._tables(constrain)
        tags = np.asarray(tags, dtype=np.intp)
        chain = np.repeat(np.arange(len(sizes)), sizes)
        first = np.cumsum(sizes) - sizes
        inner = np.ones(n, dtype=bool)  # has a predecessor
        inner[first] = False
        pairs = tags[:-1][inner[1:]] * k + tags[inner]  # flat trans cells
        score = (start[tags[first]] + self.end.data[tags[first + sizes - 1]]
                 + np.bincount(chain, emissions.data[np.arange(n), tags])
                 + np.bincount(chain[inner], trans.reshape(-1)[pairs],
                               len(sizes)))

        def vjp(g):
            g = np.reshape(g, -1)
            ad._acc(emissions, np.eye(k)[tags] * g[chain, None])
            ad._acc(self.start, np.bincount(tags[first], g, k))
            ad._acc(self.end, np.bincount(tags[first + sizes - 1], g, k))
            ad._acc(self.trans, np.bincount(pairs, g[chain[inner]],
                                            k * k).reshape(k, k))

        out = Tensor(ad._check(score[0] if lengths is None else score,
                               "crf.gold_score"))
        return ad._record(out, (emissions, self.start, self.trans, self.end),
                          vjp)

    def nll(self, emissions: Tensor, tags: Sequence[int], constrain: bool,
            lengths: Sequence[int] | None = None) -> Tensor:
        """Negative log-likelihood of each chain's tag sequence."""
        return ad.sub(self.log_partition(emissions, constrain, lengths),
                      self.gold_score(emissions, tags, constrain, lengths))

    def viterbi(self, emissions: np.ndarray,
                lengths: Sequence[int] | None = None) -> list:
        """Best legal tags of each chain packed in emissions (lengths None:
        one chain, one list), by max-product over an ad.Packed block, no
        tape; the scheme's forbidden openers and bigrams score -inf."""
        if lengths is None and len(emissions) == 0:
            return []
        chains = ad.Packed(len(emissions), lengths)
        x = chains.to_block(emissions)
        trans = np.where(self.scheme.allowed_transition, self.trans.data,
                         -np.inf)
        score = np.where(self.scheme.allowed_start, self.start.data,
                         -np.inf) + x[0]
        back = []  # per step, each running chain's labels' best predecessor
        for t in range(1, chains.steps):
            m = chains.running[t]
            total = score[:m, :, None] + trans
            back.append(total.argmax(axis=1).tolist())
            # max is the very element argmax picks, the first maximum
            score[:m] = total.max(axis=1) + x[t, :m]
        tags = [None] * len(chains.order)
        for c, last in enumerate((score + self.end.data).argmax(1).tolist()):
            j = chains.order[c]
            tags[j] = [last]
            for best in reversed(back[:chains.lengths[j] - 1]):
                tags[j].append(best[c][tags[j][-1]])
            tags[j].reverse()
        return tags[0] if lengths is None else tags


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    lse = m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))
    return lse.squeeze(axis)


def mask_penalty(allowed: np.ndarray) -> np.ndarray:
    """Additive emission penalty vector from a boolean allowed-label mask."""
    return np.where(allowed, 0.0, PENALTY)
