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
from .layers import (BiLstm, CheckpointMismatch, Embedding, LayerNorm,
                     Linear, ParamStore, decode_state)

N_AI_LABELS = 3  # O, B, I

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


@dataclass(eq=False)  # compared and hashed by identity, as tensors are
class SentenceEncoding:
    """The GCN node rows h of the sentence's tree (None without a GCN)
    and, from FrameParser.encode, backbone A's rows a.  Encodings made
    together share one forest h; this tree's rows start at row h_first."""

    prep: Prepared
    h: Tensor | None
    h_first: int
    a: Tensor | None = None


class FrameParser:
    def __init__(self, config: Config, vocab: Vocab, ontology: Ontology,
                 saved: dict[str, np.ndarray] | None = None):
        config.validate()
        if (vocab.frames != ontology.frames or vocab.fes != ontology.fes
                or vocab.lus != ontology.lus):
            raise ValueError("vocab frame/role/lu inventories do not match "
                             "the ontology")
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
                                     group="crf")

        self.fi1 = Linear(self.store, "fi.l1", e_dim, c.fi_hidden1)
        self.fi2 = Linear(self.store, "fi.l2", c.fi_hidden1, c.fi_hidden2)
        self.fi3 = Linear(self.store, "fi.l3", c.fi_hidden2, len(vocab.frames))

        self.lu_emb = Embedding(self.store, "srl.emb.lu", len(vocab.lus),
                                c.lu_dim)
        self.frame_emb = Embedding(self.store, "srl.emb.frame",
                                   len(vocab.frames), c.frame_dim)
        z_dim = c.lu_dim + e_dim + c.frame_dim
        self.ai_v1 = Linear(self.store, "srl.ai.v1", z_dim, c.ai_pr_dim)
        self.ai_v2 = Linear(self.store, "srl.ai.v2", e_dim, c.ai_pb_dim)
        self.ai_u = [
            self.store.glorot(f"srl.ai.u{k}", c.ai_pr_dim, c.ai_pb_dim,
                              group="bilinear")
            for k in range(N_AI_LABELS)
        ]
        self.ai_crf = LinearChainCrf(self.store, "srl.ai.crf", iob2_scheme(),
                                     group="crf")
        self.ac_y = Linear(self.store, "srl.ac.y", e_dim + z_dim, c.ac_dim)
        self.ac_emit = Linear(self.store, "srl.ac.emit", c.ac_dim,
                              len(vocab.fes))
        self.ac_crf = LinearChainCrf(self.store, "srl.ac.crf",
                                     open_scheme(tuple(vocab.fes)),
                                     group="crf")

        # frame penalties by lu id, role penalties by frame id
        self._frame_penalty = np.array([mask_penalty(ontology.frame_mask(lu))
                                        for lu in vocab.lus])
        self._fe_penalty = np.array([mask_penalty(ontology.fe_mask(f))
                                     for f in vocab.frames])

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
                lu_id=self.vocab.lu_id(ann.lu),
                frame_id=self.vocab.frame_id(ann.frame),
                spans=spans,
                ai_tags=encode_iobc([range(s, e + 1) for s, e in spans], n),
                fe_ids=[self.vocab.fe_id(label) for _, label in ann.elements],
            ))
        return prep

    def _encodings(self, preps: list[Prepared],
                  train: bool = False) -> list[SentenceEncoding]:
        """The sentences' encodings without a, their trees run through the
        GCN as one forest."""
        h = None
        if self.gcn is not None:
            h = self.gcn([prep.sentence.tree for prep in preps],
                         [i for prep in preps for i in prep.label_ids],
                         drop=lambda t: self._drop(t, train))
        firsts = accumulate((len(prep.sentence.tree) for prep in preps),
                            initial=0)
        return [SentenceEncoding(prep, h, first)
                for prep, first in zip(preps, firsts)]

    def encode(self, prep: Prepared, train: bool = False) -> SentenceEncoding:
        enc, = self._encodings([prep], train)
        enc.a = self._backbone(self.lstm_a, self.ln_a,
                               [(enc, prep.sentence.tree.root_index)], train)
        return enc

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
        hs = list({id(enc.h): enc.h for enc, _ in refs}.values())
        base = dict(zip(map(id, hs),
                        accumulate((h.data.shape[0] for h in hs), initial=0)))
        return path_sum_features(
            trees, hs[0] if len(hs) == 1 else ad.concat(hs),
            [ref for _, ref in refs],
            [base[id(enc.h)] + enc.h_first for enc, _ in refs])

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

    def predicate_rows(self, t: Tensor, lu_ids: list[int],
                       frame_ids: list[int],
                       train: bool = False) -> tuple[Tensor, Tensor]:
        """z = [lu embedding; target rows; frame embedding] per target, and
        pr, its projection on the predicate side of the bilinear scores."""
        z = ad.concat([self.lu_emb(lu_ids), t, self.frame_emb(frame_ids)],
                      axis=1)
        return z, self._drop(ad.tanh(self.ai_v1(z)), train)

    def ai_scores(self, pr: Tensor, b: Tensor, b_first: list[int],
                  train: bool = False) -> Tensor:
        """(len(b), 3) bilinear O/B/I scores: target j's chain pairs pr[j]
        with b's rows b_first[j] to b_first[j + 1]."""
        pb = self._drop(ad.tanh(self.ai_v2(b)), train)
        return ad.bilinear_rows(pr, self.ai_u, pb, np.repeat(
            np.arange(len(b_first) - 1), np.diff(b_first)))

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

    def ti_predict(self, enc: SentenceEncoding) -> list[list[int]]:
        with ad.no_grad():
            emissions = self.ti_emit(enc.a).data
        return decode_iobc(self.ti_crf.viterbi(emissions))

    def fi_predict(self, enc: SentenceEncoding, targets: list[list[int]],
                   lus: list[str]) -> list[str]:
        """Each target's best licensed frame.  One target and its lu (a
        str) give one frame."""
        if isinstance(lus, str):
            return self.fi_predict(enc, [targets], [lus])[0]
        lu_ids = [self.vocab.lu_id(lu) for lu in lus]
        with ad.no_grad():
            scores = self.frame_scores(self.target_rows(enc.a, targets),
                                       lu_ids).data
        scores[self._frame_penalty[lu_ids] < 0.0] = -np.inf  # unlicensed
        return [self.vocab.frames[k] for k in scores.argmax(axis=1)]

    def srl_predict(self, encs: list[SentenceEncoding],
                    targets: list[list[int]], lus: list[str],
                    frames: list[str],
                    spans: list[list[tuple[int, int]]] | None = None,
                    ) -> tuple[list[list[tuple[int, int]]], list[list[str]]]:
        """Each target's argument spans and their role labels, target j
        belonging to encs[j]: the ai head finds the spans unless they are
        given, and the ac head labels them.  Each op runs once over every
        target."""
        if not targets:
            return [], []
        frame_ids = [self.vocab.frame_id(f) for f in frames]
        with ad.no_grad():
            b, b_first = self.target_b([(enc, min(target))
                                        for enc, target in zip(encs, targets)])
            t = self.target_rows(ad.concat([enc.a for enc in encs]), [
                [first + i for i in target]
                for first, target in zip(b_first, targets)])
            z, pr = self.predicate_rows(
                t, [self.vocab.lu_id(lu) for lu in lus], frame_ids)
            if spans is None:
                emissions = self.ai_scores(pr, b, b_first).data
                # O/B/I tags only, so every decoded index set is a span
                spans = [[(run[0], run[-1]) for run in decode_iobc(
                    self.ai_crf.viterbi(c))]
                    for c in np.split(emissions, b_first[1:-1])]
            emissions = self.role_scores(z, b, b_first, spans, frame_ids).data
        emissions[self._fe_penalty[[k for k, s in zip(frame_ids, spans)
                                    for _ in s]] < 0.0] = -np.inf  # unlicensed
        chains = np.split(emissions, np.cumsum([len(s) for s in spans])[:-1])
        return spans, [[self.vocab.fes[k] for k in self.ac_crf.viterbi(c)]
                       for c in chains]

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
        encs = self._encodings(preps, train)
        a = self._backbone(self.lstm_a, self.ln_a, [
            (enc, enc.prep.sentence.tree.root_index) for enc in encs], train)
        lengths = [len(prep.sentence) for prep in preps]
        starts = list(accumulate(lengths, initial=0))
        items = [(k, pa) for k, prep in enumerate(preps)
                 for pa in prep.annotations]
        anns = [pa for _, pa in items]
        weight = np.array([1.0 / (len(preps) * len(preps[k].annotations))
                           for k, _ in items])
        if "fi" in parts or "srl" in parts:
            t = self.target_rows(a, [[starts[k] + i for i in pa.target]
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
            b, b_first = self.target_b([(encs[k], min(pa.target))
                                        for k, pa in items], train)
            n = [lengths[k] for k, _ in items]
            frame_ids = [pa.frame_id for pa in anns]
            z, pr = self.predicate_rows(t, [pa.lu_id for pa in anns],
                                        frame_ids, train)
            ai = self.ai_crf.nll(self.ai_scores(pr, b, b_first, train),
                                 [tag for pa in anns for tag in pa.ai_tags],
                                 True, n)
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

    def parse(self, sent: Sentence) -> tuple[list[FrameAnnotation], int]:
        """Predict annotations from scratch; returns (annotations, number
        of predicted targets dropped for lacking a known lexical unit)."""
        prep = self.prepare(sent, with_gold=False)
        with ad.fresh_tape(), ad.no_grad():
            enc = self.encode(prep, train=False)
            targets = self.ti_predict(enc)
            kept = [(target, key) for target in targets
                    if (key := lu_key(sent.tokens, target, sent.pos))
                    in self.ontology.lu_to_frames]
            dropped = len(targets) - len(kept)
            targets, keys = [t for t, _ in kept], [key for _, key in kept]
            frames = self.fi_predict(enc, targets, keys)
            spans, labels = self.srl_predict([enc] * len(targets), targets,
                                             keys, frames)
        return [FrameAnnotation(target=t, lu=key, frame=f,
                                elements=sorted(zip(s, lab)))
                for t, key, f, s, lab in zip(targets, keys, frames, spans,
                                             labels)], dropped

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
        coeff = {"crf": self.config.l2_crf, "bilinear": self.config.l2_bilinear}
        out = []
        for path, e in self.trainable_entries(task):
            if e.group in coeff and coeff[e.group] > 0.0:
                out.append((e.tensor, coeff[e.group]))
        return out

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
        (nothing is drawn); a file that is not JSON, an entry that does
        not decode, or a parameter the model does not take raises
        CorpusError naming the path."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except ValueError as e:
                raise CorpusError(f"{path}: invalid JSON: {e}") from e
        for key in ("config", "vocab", "ontology", "params"):
            if not isinstance(doc, dict) or key not in doc:
                raise CorpusError(f"{path}: checkpoint has no {key!r} entry")

        def decode(key, build):
            try:
                return build(doc[key])
            except (ValueError, LookupError, TypeError, AttributeError) as e:
                if isinstance(e, CheckpointMismatch):  # met building the model
                    key = "params"
                raise CorpusError(f"{path}: bad checkpoint {key}: {e}") from e

        config = decode("config", config_from_dict)
        ontology = decode("ontology", lambda d: Ontology(**d))
        saved = decode("params", decode_state)
        model = decode("vocab", lambda d: cls(config, Vocab.from_dict(d),
                                              ontology, saved))
        if extra := saved.keys() - dict(model.store.entries()):
            raise CorpusError(f"{path}: bad checkpoint params: unexpected "
                              f"parameters {sorted(extra)}")
        return model
