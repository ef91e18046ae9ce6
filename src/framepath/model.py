"""The full parsing architecture: shared encoders and four task heads.

Encoding: every token gets e_i = token embedding + POS embedding
(concatenated).  A GCN over the constituency tree produces one vector
per tree node; summing those vectors along the tree path from a token's
preterminal to a reference node gives that token a syntactic path
feature.  Backbone A consumes e with root-referenced paths and feeds
target identification and frame identification; backbone B consumes e
with paths referenced on the target's first preterminal and feeds the
role-labeling heads.  Both backbones are BiLSTMs whose output is added
back to e (residual) and layer-normalized, which pins their output width
to dim(e); config validates the match.

Heads, each one op per layer over every target (or span) it is given:
  TI  linear emissions over O/B/I/C + constrained CRF.
  FI  3-layer leaky-relu stack on the summed target encoding, with
      lexicon-licensed frames only (others get -1e4).
  AI  bilinear predicate/token scores as O/B/I emissions + CRF.
  AC  per-span sums of b, projected and scored against the frame's
      licensed role labels over the span sequence + CRF.

A training batch runs the GCN once over the forest of its trees, the
embedding lookups and path sums once per backbone, and each head and
CRF once over all its sentences and annotations; role prediction runs
each srl head once over every target it is given, across sentences.
AC trains on gold spans (teacher forcing) and labels AI's predicted
spans at inference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import Config, config_from_dict
from .corpus import (
    CorpusError,
    FrameAnnotation,
    Ontology,
    Sentence,
    Vocab,
    decode_iobc,
    encode_iobc,
    lu_key,
)
from .crf import LinearChainCrf, iob2_scheme, iobc_scheme, mask_penalty, open_scheme
from .gcn import TreeGcn, path_sum_features
from .layers import (BiLstm, Embedding, LayerNorm, Linear, ParamStore,
                     decode_state)

N_AI_LABELS = 3  # O, B, I
# Padded cells (sentences x longest length) per prediction pass, which
# its recurrence blocks and so its memory grow with.
CELLS = 256

# Parameter-path prefixes each task mode trains.  FI reads backbone A
# through the target representation; SRL needs both backbones.
TASK_PREFIXES: dict[str, list[str] | None] = {
    "ti": ["emb.", "gcn.", "enc.a.", "ti."],
    "fi": ["emb.", "gcn.", "enc.a.", "fi."],
    "srl": ["emb.", "gcn.", "enc.a.", "enc.b.", "srl."],
    "joint": None,
}

TASK_LOSSES: dict[str, tuple[str, ...]] = {
    "ti": ("ti",),
    "fi": ("fi",),
    "srl": ("srl",),
    "joint": ("ti", "fi", "srl"),
}


@dataclass
class PreparedAnnotation:
    target: list[int]
    lu_id: int
    frame_id: int
    spans: list[tuple[int, int]]
    ai_tags: list[int]
    fe_ids: list[int]


@dataclass
class Prepared:
    """A sentence with every id lookup and gold tag encoding done once."""

    sentence: Sentence
    token_ids: list[int]
    pos_ids: list[int]
    label_ids: list[int]
    ti_tags: list[int]
    annotations: list[PreparedAnnotation] = field(default_factory=list)


def sum_parts(parts: dict[str, Tensor]) -> Tensor:
    """The total of batch_losses' parts, added in part order."""
    return reduce(ad.add, parts.values())


def stacked(blocks: list[tuple[Tensor, int]]) -> tuple[Tensor, list[int]]:
    """The distinct tensors of (tensor, first row) blocks, stacked once
    each, and each block's first row in the stack."""
    tensors = list({id(t): t for t, _ in blocks}.values())
    base = dict(zip(map(id, tensors),
                    accumulate((t.data.shape[0] for t in tensors), initial=0)))
    return (tensors[0] if len(tensors) == 1 else ad.concat(tensors),
            [base[id(t)] + first for t, first in blocks])


@dataclass(eq=False)  # compared and hashed by identity, as tensors are
class SentenceEncoding:
    """A sentence's GCN node rows h (None without a GCN) and backbone-A
    rows a, from FrameParser.encode.  Encodings made together share h and
    a; this sentence's rows start at h_first and a_first."""

    prep: Prepared
    h: Tensor | None
    h_first: int
    a: Tensor | None = None
    a_first: int = 0


class FrameParser:
    def __init__(self, config: Config, vocab: Vocab, ontology: Ontology,
                 saved: dict[str, np.ndarray] | None = None):
        config.validate()
        self.config = config
        self.vocab = vocab
        self.ontology = ontology
        streams = np.random.SeedSequence(config.seed).spawn(3)
        self.store = ParamStore(np.random.default_rng(streams[0]), saved)
        self.shuffle_rng = np.random.default_rng(streams[1])
        self.dropout_rng = np.random.default_rng(streams[2])

        c = config
        e_dim = c.token_dim + c.pos_dim
        self.e_dim = e_dim
        self.token_emb = Embedding(self.store, "emb.token",
                                   len(vocab.tokens), c.token_dim)
        self.pos_emb = Embedding(self.store, "emb.pos", len(vocab.pos),
                                 c.pos_dim)
        self.gcn = None
        if c.use_gcn:
            self.gcn = TreeGcn(self.store, "gcn", len(vocab.labels),
                               c.gcn_emb_dim, c.gcn_dim, c.gcn_layers)
        in_dim = e_dim + c.gcn_dim
        self.lstm_a = BiLstm(self.store, "enc.a.lstm", in_dim, c.lstm_hidden,
                             c.lstm_layers)
        self.lstm_b = BiLstm(self.store, "enc.b.lstm", in_dim, c.lstm_hidden,
                             c.lstm_layers)
        self.ln_a = LayerNorm(self.store, "enc.a.ln", e_dim)
        self.ln_b = LayerNorm(self.store, "enc.b.ln", e_dim)

        self.ti_emit = Linear(self.store, "ti.emit", e_dim, 4)
        self.ti_crf = LinearChainCrf(self.store, "ti.crf", iobc_scheme(),
                                     l2=c.l2_crf)

        self.fi1 = Linear(self.store, "fi.l1", e_dim, c.fi_hidden1)
        self.fi2 = Linear(self.store, "fi.l2", c.fi_hidden1, c.fi_hidden2)
        self.fi3 = Linear(self.store, "fi.l3", c.fi_hidden2, len(ontology.frames))

        self.lu_emb = Embedding(self.store, "srl.emb.lu", len(ontology.lus),
                                c.lu_dim)
        self.frame_emb = Embedding(self.store, "srl.emb.frame",
                                   len(ontology.frames), c.frame_dim)
        z_dim = c.lu_dim + e_dim + c.frame_dim
        self.ai_v1 = Linear(self.store, "srl.ai.v1", z_dim, c.ai_pr_dim)
        self.ai_v2 = Linear(self.store, "srl.ai.v2", e_dim, c.ai_pb_dim)
        self.ai_u = [
            self.store.glorot(f"srl.ai.u{k}", c.ai_pr_dim, c.ai_pb_dim,
                              l2=c.l2_bilinear)
            for k in range(N_AI_LABELS)
        ]
        self.ai_crf = LinearChainCrf(self.store, "srl.ai.crf", iob2_scheme(),
                                     l2=c.l2_crf)
        self.ac_y = Linear(self.store, "srl.ac.y", e_dim + z_dim, c.ac_dim)
        self.ac_emit = Linear(self.store, "srl.ac.emit", c.ac_dim,
                              len(ontology.fes))
        self.ac_crf = LinearChainCrf(self.store, "srl.ac.crf",
                                     open_scheme(tuple(ontology.fes)),
                                     l2=c.l2_crf)

        # frame penalties by lu id, role penalties by frame id; the shapes
        # stay two-dimensional when the lexicon is empty
        self._frame_penalty = np.array([mask_penalty(ontology.frame_mask(lu))
                                        for lu in ontology.lus]).reshape(
            len(ontology.lus), len(ontology.frames))
        self._fe_penalty = np.array([mask_penalty(ontology.fe_mask(f))
                                     for f in ontology.frames]).reshape(
            len(ontology.frames), len(ontology.fes))

    # ------------------------------------------------------------------
    # preparation and encoding

    def prepare(self, sent: Sentence, with_gold: bool = True) -> Prepared:
        n = len(sent)
        prep = Prepared(
            sentence=sent,
            token_ids=[self.vocab.token_id(t) for t in sent.tokens],
            pos_ids=[self.vocab.pos_id(p) for p in sent.pos],
            label_ids=[self.vocab.label_id(node.label)
                       for node in sent.tree.nodes],
            ti_tags=encode_iobc([a.target for a in sent.annotations], n)
            if with_gold else [0] * n,
        )
        if not with_gold:
            return prep
        for ann in sent.annotations:
            spans = [span for span, _ in ann.elements]
            prep.annotations.append(PreparedAnnotation(
                target=ann.target,
                lu_id=self.ontology.lu_id(ann.lu),
                frame_id=self.ontology.frame_id(ann.frame),
                spans=spans,
                ai_tags=encode_iobc([range(s, e + 1) for s, e in spans], n),
                fe_ids=[self.ontology.fe_id(label) for _, label in ann.elements],
            ))
        return prep

    def encode(self, preps: list[Prepared] | Prepared, train: bool = False
               ) -> list[SentenceEncoding] | SentenceEncoding:
        """Each sentence's encoding, from one GCN pass over their forest
        and one backbone-A pass; one Prepared gives one encoding."""
        preps = [preps] if (one := isinstance(preps, Prepared)) else preps
        h = None
        if self.gcn is not None:
            h = self.gcn([prep.sentence.tree for prep in preps],
                         [i for prep in preps for i in prep.label_ids],
                         drop=lambda t: self._drop(t, train))
        firsts = accumulate((len(prep.sentence.tree) for prep in preps),
                            initial=0)
        encs = [SentenceEncoding(prep, h, first)
                for prep, first in zip(preps, firsts)]
        a = self._backbone(self.lstm_a, self.ln_a, [
            (enc, enc.prep.sentence.tree.root_index) for enc in encs], train)
        for enc, first in zip(encs, accumulate(
                (len(prep.sentence) for prep in preps), initial=0)):
            enc.a, enc.a_first = a, first
        return encs[0] if one else encs

    def embed(self, preps: list[Prepared]) -> Tensor:
        """e = [token embedding; POS embedding] of the sentences' tokens,
        their rows back to back, from one lookup per table."""
        return ad.concat([
            self.token_emb([i for prep in preps for i in prep.token_ids]),
            self.pos_emb([i for prep in preps for i in prep.pos_ids])], axis=1)

    def _path_features(self, refs: list) -> Tensor:
        """Path features of each (encoding, reference node) in refs, their
        rows back to back, from one path_sum_features call over the node
        rows of every forest the encodings come from; zeros without a
        GCN."""
        trees = [enc.prep.sentence.tree for enc, _ in refs]
        if self.gcn is None:
            return ad.tensor(np.zeros((sum(t.n_tokens for t in trees),
                                       self.config.gcn_dim)))
        h, firsts = stacked([(enc.h, enc.h_first) for enc, _ in refs])
        return path_sum_features(trees, h, [ref for _, ref in refs], firsts)

    def _backbone(self, lstm: BiLstm, norm: LayerNorm, refs: list,
                  train: bool) -> Tensor:
        """LN(BiLSTM([e; path features]) + e) of each (encoding, reference
        node) in refs, in one pass; their rows stay packed back to back."""
        e = self.embed([enc.prep for enc, _ in refs])
        raw = lstm(ad.concat([e, self._path_features(refs)], axis=1),
                   [len(enc.prep.sentence) for enc, _ in refs])
        return norm(ad.add(self._drop(raw, train), e))

    # ------------------------------------------------------------------
    # heads: each runs once over every target it is given

    def _drop(self, t: Tensor, train: bool) -> Tensor:
        if train and self.config.dropout > 0.0:
            return ad.dropout(t, self.config.dropout, self.dropout_rng)
        return t

    def target_rows(self, a: Tensor, targets: list[list[int]]) -> Tensor:
        """(n_targets, dim) sums of the rows of a each target indexes."""
        if not all(targets):
            raise ValueError("empty target index set")
        return ad.sum_row_groups(a, [sorted(t) for t in targets])

    def encoded_target_rows(self, encs: list[SentenceEncoding],
                            targets: list[list[int]]) -> Tensor:
        """target_rows of each target j over encs[j]'s rows of a."""
        a, firsts = stacked([(enc.a, enc.a_first) for enc in encs])
        return self.target_rows(a, [[first + i for i in target]
                                    for first, target in zip(firsts, targets)])

    def target_b(self, pairs: list[tuple[SentenceEncoding, int]],
                 train: bool = False) -> tuple[Tensor, list[int]]:
        """b of each (encoding, target first index) in pairs, from one
        backbone-B pass with the rows packed back to back, and the row
        where each pair's block starts."""
        b = self._backbone(self.lstm_b, self.ln_b, [
            (enc, enc.prep.sentence.tree.token_node(first))
            for enc, first in pairs], train)
        return b, list(accumulate((len(enc.prep.sentence) for enc, _ in pairs),
                                  initial=0))

    def frame_scores(self, t: Tensor, lu_ids: list[int],
                     train: bool = False) -> Tensor:
        """Frame logits per target row; only the frames its lexical unit
        licenses stay finite (others get -1e4)."""
        h1 = self._drop(ad.leaky_relu(self.fi1(t)), train)
        h2 = self._drop(ad.leaky_relu(self.fi2(h1)), train)
        return ad.add(self.fi3(h2), ad.tensor(self._frame_penalty[lu_ids]))

    def srl_heads(self, encs: list[SentenceEncoding],
                  targets: list[list[int]], t: Tensor, lu_ids: list[int],
                  frame_ids: list[int], train: bool = False):
        """The role-labeling body training and prediction share, target j
        belonging to encs[j] with target rows t[j]: z = [lu embedding; t;
        frame embedding], its projection pr, target_b's b and b_first, and
        the (len(b), 3) O/B/I scores pairing pr[j] with target j's b rows."""
        b, b_first = self.target_b([(enc, min(target)) for enc, target
                                    in zip(encs, targets)], train)
        z = ad.concat([self.lu_emb(lu_ids), t, self.frame_emb(frame_ids)],
                      axis=1)
        pr = self._drop(ad.tanh(self.ai_v1(z)), train)
        pb = self._drop(ad.tanh(self.ai_v2(b)), train)
        owner = np.repeat(np.arange(len(targets)), np.diff(b_first))
        return z, pr, b, b_first, ad.bilinear_rows(pr, self.ai_u, pb, owner)

    def role_scores(self, z: Tensor, b: Tensor, b_first: list[int],
                    spans: list[list[tuple[int, int]]],
                    frame_ids: list[int], train: bool = False) -> Tensor:
        """(n_spans, n_roles) scores of every target's spans in order, from
        span sums over b's rows (target j's sentence starts at
        b_first[j]) next to z[j]; roles target j's frame does not license
        get -1e4."""
        owner = [j for j, s in enumerate(spans) for _ in s]
        r = ad.sum_row_groups(b, [
            range(b_first[j] + start, b_first[j] + end + 1)
            for j, s in enumerate(spans) for start, end in s])
        q = self._drop(ad.tanh(self.ac_y(
            ad.concat([r, ad.row_select(z, owner)], axis=1))), train)
        return ad.add(self.ac_emit(q), ad.tensor(
            self._fe_penalty[[frame_ids[j] for j in owner]]))

    # ------------------------------------------------------------------
    # prediction

    def ti_predict(self, encs: list[SentenceEncoding]
                   ) -> list[list[list[int]]]:
        """Each encoding's targets: one ti_emit, one Viterbi for them all."""
        a, firsts = stacked([(enc.a, enc.a_first) for enc in encs])
        lengths = [len(enc.prep.sentence) for enc in encs]
        rows = [f + i for f, n in zip(firsts, lengths) for i in range(n)]
        with ad.no_grad():
            emissions = self.ti_emit(a).data[rows]
        return list(map(decode_iobc, self.ti_crf.viterbi(emissions, lengths)))

    def fi_predict(self, encs: list[SentenceEncoding],
                   targets: list[list[int]], lus: list[str],
                   t: Tensor | None = None) -> list[str]:
        """Each target's best licensed frame, target j belonging to
        encs[j] (t: their encoded_target_rows, if the caller has them).
        One encoding, target and lu (a str) give one frame."""
        one = isinstance(lus, str)
        if one:
            encs, targets, lus = [encs], [targets], [lus]
        if not targets:
            return []
        lu_ids = [self.ontology.lu_id(lu) for lu in lus]
        with ad.no_grad():
            scores = self.frame_scores(
                t or self.encoded_target_rows(encs, targets), lu_ids).data
        scores[self._frame_penalty[lu_ids] < 0.0] = -np.inf  # unlicensed
        frames = [self.ontology.frames[k] for k in scores.argmax(axis=1)]
        return frames[0] if one else frames

    def srl_predict(self, encs: list[SentenceEncoding],
                    targets: list[list[int]], lus: list[str],
                    frames: list[str],
                    spans: list[list[tuple[int, int]]] | None = None,
                    t: Tensor | None = None,
                    ) -> tuple[list[list[tuple[int, int]]], list[list[str]]]:
        """Each target's argument spans and their role labels, target j
        belonging to encs[j] (t as in fi_predict): the ai head finds the
        spans unless they are given, and the ac head labels them.  Each
        op runs once over every target."""
        if not targets:
            return [], []
        frame_ids = [self.ontology.frame_id(f) for f in frames]
        with ad.no_grad():
            z, _, b, b_first, emissions = self.srl_heads(
                encs, targets, t or self.encoded_target_rows(encs, targets),
                [self.ontology.lu_id(lu) for lu in lus], frame_ids)
            if spans is None:
                # O/B/I tags only, so every decoded index set is a span
                spans = [[(run[0], run[-1]) for run in decode_iobc(tags)]
                         for tags in self.ai_crf.viterbi(emissions.data,
                                                         np.diff(b_first))]
            emissions = self.role_scores(z, b, b_first, spans, frame_ids).data
        emissions[self._fe_penalty[[k for k, s in zip(frame_ids, spans)
                                    for _ in s]] < 0.0] = -np.inf  # unlicensed
        sizes = [len(s) for s in spans if s]
        roles = iter(self.ac_crf.viterbi(emissions, sizes) if sizes else ())
        return spans, [[self.ontology.fes[k] for k in next(roles)] if s
                       else [] for s in spans]

    def ai_predict(self, enc: SentenceEncoding, target: list[int], lu: str,
                   frame: str) -> list[tuple[int, int]]:
        """One target's argument spans."""
        return self.srl_predict([enc], [target], [lu], [frame])[0][0]

    def ac_predict(self, enc: SentenceEncoding, target: list[int], lu: str,
                   frame: str, spans: list[tuple[int, int]]) -> list[str]:
        """Role labels of one target's spans."""
        return self.srl_predict([enc], [target], [lu], [frame], [spans])[1][0]

    # ------------------------------------------------------------------
    # losses

    def batch_losses(self, preps: list[Prepared], train: bool = False,
                     parts: tuple[str, ...] = ("ti", "fi", "srl"),
                     ) -> dict[str, Tensor]:
        """Per-part batch-mean losses, each head and CRF run once over the
        whole batch.  A sentence's annotations share its 1/B of the fi and
        srl means; an unannotated sentence adds 0 but still counts in B."""
        if not preps:
            raise ValueError("empty batch")
        encs = self.encode(preps, train)
        a = encs[0].a
        lengths = [len(prep.sentence) for prep in preps]
        items = [(k, pa) for k, prep in enumerate(preps)
                 for pa in prep.annotations]
        anns = [pa for _, pa in items]
        weight = np.array([1.0 / (len(preps) * len(preps[k].annotations))
                           for k, _ in items])
        if "fi" in parts or "srl" in parts:
            t = self.target_rows(a, [[encs[k].a_first + i for i in pa.target]
                                     for k, pa in items])
        out = {}
        if "ti" in parts:
            tags = [tag for prep in preps for tag in prep.ti_tags]
            nll = self.ti_crf.nll(self.ti_emit(a), tags, True, lengths)
            out["ti"] = ad.dot(nll, ad.tensor(np.full(len(preps),
                                                      1.0 / len(preps))))
        if "fi" in parts:  # 0 without annotations: every array is empty
            scores = self.frame_scores(t, [pa.lu_id for pa in anns], train)
            gold = -weight[:, None] * np.eye(scores.shape[1])[
                [pa.frame_id for pa in anns]]  # -weight on each gold frame
            out["fi"] = ad.sum_all(ad.mul(ad.log_softmax(scores),
                                          ad.tensor(gold)))
        if "srl" in parts:
            out["srl"] = ad.tensor(np.asarray(0.0))
        if "srl" in parts and items:
            frame_ids = [pa.frame_id for pa in anns]
            z, _, b, b_first, emissions = self.srl_heads(
                [encs[k] for k, _ in items], [pa.target for pa in anns], t,
                [pa.lu_id for pa in anns], frame_ids, train)
            ai = self.ai_crf.nll(emissions,
                                 [tag for pa in anns for tag in pa.ai_tags],
                                 True, [lengths[k] for k, _ in items])
            out["srl"] = ad.dot(ai, ad.tensor(weight))
            spans = [pa.spans for pa in anns]
            if any(spans):
                emissions = self.role_scores(z, b, b_first, spans, frame_ids,
                                             train)
                ac = self.ac_crf.nll(emissions, [i for pa in anns
                                                 for i in pa.fe_ids],
                                     True, [len(s) for s in spans if s])
                out["srl"] = ad.add(out["srl"], ad.dot(ac, ad.tensor(
                    weight[[bool(s) for s in spans]])))
        return out

    def loss(self, preps: list[Prepared], task: str | None = None,
             train: bool = False) -> Tensor:
        """The sum of the task's loss parts."""
        task = task or self.config.task
        return sum_parts(self.batch_losses(preps, train, TASK_LOSSES[task]))

    # ------------------------------------------------------------------
    # full pipeline

    def encode_chunks(self, sentences: list[Sentence]):
        """encode of the sentences, prepared without gold, in maximal runs
        of consecutive sentences whose count times longest length is at
        most CELLS; a longer sentence runs alone."""
        run, longest = [], 0
        for sent in sentences:
            longest = max(longest, len(sent))
            if run and (len(run) + 1) * longest > CELLS:
                yield self.encode(run)
                run, longest = [], len(sent)
            run.append(self.prepare(sent, with_gold=False))
        if run:
            yield self.encode(run)

    def parse_many(self, sentences: list[Sentence]
                   ) -> list[tuple[list[FrameAnnotation], int]]:
        """parse of each sentence: per chunk, one encode, one TI decoding,
        and one sum of target rows, one frame and one role prediction over
        every kept target."""
        out = []
        with ad.fresh_tape(), ad.no_grad():
            for encs in self.encode_chunks(sentences):
                found = self.ti_predict(encs)
                kept = [(enc, t, key) for enc, ts in zip(encs, found)
                        for t in ts if (key := lu_key(
                            enc.prep.sentence.tokens, t, enc.prep.sentence.pos)
                        ) in self.ontology.lu_to_frames]
                owner, targets, keys = ([c[i] for c in kept] for i in range(3))
                rows = self.encoded_target_rows(owner, targets) if kept \
                    else None
                frames = self.fi_predict(owner, targets, keys, rows)
                spans, roles = self.srl_predict(owner, targets, keys, frames,
                                                t=rows)
                anns = {enc: [] for enc in encs}  # keyed by identity
                for (enc, t, key), f, s, r in zip(kept, frames, spans, roles):
                    anns[enc].append(FrameAnnotation(t, key, f,
                                                     sorted(zip(s, r))))
                out.extend((anns[enc], len(ts) - len(anns[enc]))
                           for enc, ts in zip(encs, found))
        return out

    def parse(self, sent: Sentence) -> tuple[list[FrameAnnotation], int]:
        """Predict annotations from scratch; returns (annotations, number
        of predicted targets dropped for lacking a known lexical unit)."""
        return self.parse_many([sent])[0]

    # ------------------------------------------------------------------
    # parameter selection and persistence

    def trainable_entries(self, task: str | None = None):
        task = task or self.config.task
        prefixes = TASK_PREFIXES[task]
        return [(path, e) for path, e in self.store.entries()
                if prefixes is None
                or any(path.startswith(p) for p in prefixes)]

    def penalty_terms(self, task: str | None = None) -> list[tuple[Tensor, float]]:
        """Squared-norm penalty tensors (CRF transitions, bilinear maps)
        restricted to the task's trainable set, with coefficients."""
        return [(e.tensor, e.l2) for _, e in self.trainable_entries(task)
                if e.l2 > 0.0]

    def save(self, path: str) -> None:
        doc = {
            "config": self.config.to_dict(),
            "vocab": self.vocab.to_dict(),
            "ontology": self.ontology.to_dict(),
            "params": self.store.state(),
        }
        tmp = f"{path}.{os.getpid()}.tmp"  # renamed over path once whole
        try:
            with open(tmp, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path: str) -> "FrameParser":
        """The model saved at path, built once from its decoded params
        (nothing is drawn); a file that is not JSON, an entry that is not
        a JSON object or does not decode, or a parameter the model does
        not take raises CorpusError naming the path."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as e:
                raise CorpusError(f"{path}: invalid JSON: {e}") from e
        for key in ("config", "vocab", "ontology", "params"):
            if not isinstance(doc, dict) or key not in doc:
                raise CorpusError(f"{path}: checkpoint has no {key!r} entry")
            if not isinstance(doc[key], dict):
                raise CorpusError(f"{path}: bad checkpoint {key}: not a JSON "
                                  "object")

        def decode(key, build, *args):
            try:
                return build(*args)
            except (ValueError, LookupError, TypeError, AttributeError) as e:
                raise CorpusError(f"{path}: bad checkpoint {key}: {e}") from e

        config = decode("config", config_from_dict, doc["config"])
        vocab = decode("vocab", Vocab.from_dict, doc["vocab"])
        ontology = decode("ontology", Ontology.from_dict, doc["ontology"])
        saved = decode("params", decode_state, doc["params"])
        # only a parameter the saved arrays lack or shape otherwise can fail
        model = decode("params", cls, config, vocab, ontology, saved)
        if extra := saved.keys() - dict(model.store.entries()):
            raise CorpusError(f"{path}: bad checkpoint params: unexpected "
                              f"parameters {sorted(extra)}")
        return model
