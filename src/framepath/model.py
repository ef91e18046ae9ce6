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

Heads:
  TI  linear emissions over O/B/I/C + constrained CRF.
  FI  3-layer leaky-relu stack on the summed target encoding, with
      lexicon-licensed frames only (others get -1e4).
  AI  bilinear predicate/token scores as O/B/I emissions + CRF.
  AC  per-span sums of b, projected and scored against the frame's
      licensed role labels over the span sequence + CRF.

AC trains on gold spans (teacher forcing) and labels AI's predicted
spans at inference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

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
    decode_iob2,
    decode_iobc,
    encode_iob2,
    encode_iobc,
    lu_key,
)
from .crf import LinearChainCrf, iob2_scheme, iobc_scheme, mask_penalty, open_scheme
from .gcn import TreeGcn, path_sum_features
from .layers import BiLstm, Embedding, LayerNorm, Linear, ParamStore

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
    lu: str
    frame: str
    lu_id: int
    frame_id: int
    frame_penalty: np.ndarray
    fe_penalty: np.ndarray
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


class SentenceEncoding:
    """Holds e and a for a sentence (a set by FrameParser.encode_batch),
    and b per target first-index, since annotations often share targets."""

    def __init__(self, model: "FrameParser", prep: Prepared, train: bool):
        self.model = model
        self.prep = prep
        self.train = train
        tree = prep.sentence.tree
        tok = model.token_emb(prep.token_ids)
        pos = model.pos_emb(prep.pos_ids)
        self.e = ad.concat_cols([tok, pos])
        self.h = (model.gcn(tree, prep.label_ids, drop=self._drop)
                  if model.gcn is not None else None)
        self._b: dict[int, Tensor] = {}

    def _drop(self, t: Tensor) -> Tensor:
        if self.train and self.model.config.dropout > 0.0:
            return ad.dropout(t, self.model.config.dropout,
                              self.model.dropout_rng)
        return t

    def _paths(self, ref_node: int) -> Tensor:
        """Path features toward ref_node; zeros without a GCN."""
        config, tree = self.model.config, self.prep.sentence.tree
        if self.h is None:
            return ad.tensor(np.zeros((tree.n_tokens, config.gcn_dim)))
        return path_sum_features(tree, self.h, ref_node,
                                 config.path_include_endpoints)

    def b(self, target_first: int) -> Tensor:
        if target_first not in self._b:
            self.model.encode_targets([(self, target_first)])
        return self._b[target_first]


def _backbone(lstm: BiLstm, norm: LayerNorm, refs: list) -> list[Tensor]:
    """LN(BiLSTM([e; path features]) + e) for each (encoding, reference
    node) in refs, with one pass over their packed rows."""
    if not refs:
        return []
    lengths = [enc.e.data.shape[0] for enc, _ in refs]
    e = ad.concat([enc.e for enc, _ in refs])
    paths = ad.concat([enc._paths(ref) for enc, ref in refs])
    raw = lstm(ad.concat_cols([e, paths]), lengths)
    return ad.split_rows(norm(ad.add(refs[0][0]._drop(raw), e)), lengths)


class FrameParser:
    def __init__(self, config: Config, vocab: Vocab, ontology: Ontology):
        config.validate()
        if (vocab.frames != ontology.frames or vocab.fes != ontology.fes
                or vocab.lus != ontology.lus):
            raise ValueError("vocab frame/role/lu inventories do not match "
                             "the ontology")
        self.config = config
        self.vocab = vocab
        self.ontology = ontology
        streams = np.random.SeedSequence(config.seed).spawn(3)
        self.store = ParamStore(np.random.default_rng(streams[0]))
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
                               c.gcn_emb_dim, c.gcn_dim, c.gcn_layers,
                               c.gcn_mean_aggregation)
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

        self._frame_penalty = {lu: mask_penalty(ontology.frame_mask(lu))
                               for lu in ontology.lus}
        self._fe_penalty = {f: mask_penalty(ontology.fe_mask(f))
                            for f in ontology.frames}

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
                lu=ann.lu,
                frame=ann.frame,
                lu_id=self.vocab.lu_id(ann.lu),
                frame_id=self.vocab.frame_id(ann.frame),
                frame_penalty=self._frame_penalty[ann.lu],
                fe_penalty=self._fe_penalty[ann.frame],
                spans=spans,
                ai_tags=encode_iob2(spans, n),
                fe_ids=[self.vocab.fe_id(label) for _, label in ann.elements],
            ))
        return prep

    def encode(self, prep: Prepared, train: bool = False) -> SentenceEncoding:
        return self.encode_batch([prep], train)[0]

    def encode_batch(self, preps: list[Prepared],
                     train: bool = False) -> list[SentenceEncoding]:
        encs = [SentenceEncoding(self, prep, train) for prep in preps]
        refs = [(enc, enc.prep.sentence.tree.root_index) for enc in encs]
        for enc, a in zip(encs, _backbone(self.lstm_a, self.ln_a, refs)):
            enc.a = a
        return encs

    def encode_targets(self, pairs: list[tuple[SentenceEncoding, int]]):
        """Fill b for each (encoding, target first-index) not cached yet."""
        todo = {(id(enc), first): (enc, first) for enc, first in pairs
                if first not in enc._b}.values()
        refs = [(enc, enc.prep.sentence.tree.token_node(first))
                for enc, first in todo]
        for (enc, first), b in zip(todo, _backbone(self.lstm_b, self.ln_b,
                                                   refs)):
            enc._b[first] = b

    def target_repr(self, enc: SentenceEncoding, target: list[int]) -> Tensor:
        if not target:
            raise ValueError("empty target index set")
        return ad.sum_rows(ad.row_select(enc.a, sorted(target)))

    # ------------------------------------------------------------------
    # target identification

    def ti_emissions(self, enc: SentenceEncoding) -> Tensor:
        return self.ti_emit(enc.a)

    def ti_predict(self, enc: SentenceEncoding) -> list[list[int]]:
        with ad.no_grad():
            emissions = self.ti_emissions(enc).data
        return decode_iobc(self.ti_crf.viterbi(emissions))

    # ------------------------------------------------------------------
    # frame identification

    def fi_scores(self, enc: SentenceEncoding, target: list[int],
                  lu: str) -> Tensor:
        """Masked frame logits; only the lu's licensed frames stay finite."""
        if lu not in self._frame_penalty:
            raise KeyError(f"unknown lexical unit {lu!r}")
        t = self.target_repr(enc, target)
        h1 = enc._drop(ad.leaky_relu(self.fi1(t)))
        h2 = enc._drop(ad.leaky_relu(self.fi2(h1)))
        logits = self.fi3(h2)
        return ad.add(logits, ad.tensor(self._frame_penalty[lu]))

    def fi_predict(self, enc: SentenceEncoding, target: list[int],
                   lu: str) -> str:
        with ad.no_grad():
            scores = self.fi_scores(enc, target, lu).data
        scores[self._frame_penalty[lu] < 0.0] = -np.inf  # unlicensed
        return self.vocab.frames[int(scores.argmax())]

    # ------------------------------------------------------------------
    # semantic role labeling

    def predicate_repr(self, enc: SentenceEncoding, target: list[int],
                       lu_id: int, frame_id: int) -> tuple[Tensor, Tensor]:
        """z = lu embedding + target encoding + frame embedding; pr is its
        projection used on the predicate side of the bilinear scores."""
        t = self.target_repr(enc, target)
        el = ad.row(self.lu_emb.table, lu_id)
        ef = ad.row(self.frame_emb.table, frame_id)
        z = ad.concat([el, t, ef])
        pr = enc._drop(ad.tanh(self.ai_v1(z)))
        return z, pr

    def ai_emissions(self, enc: SentenceEncoding, target: list[int],
                     pr: Tensor) -> Tensor:
        """(n, 3) bilinear scores: one column per O/B/I label."""
        b = enc.b(sorted(target)[0])
        pb = enc._drop(ad.tanh(self.ai_v2(b)))
        cols = [ad.matvec(pb, ad.vecmat(pr, u)) for u in self.ai_u]
        return ad.stack_cols(cols)

    def ai_predict(self, enc: SentenceEncoding, target: list[int], lu: str,
                   frame: str) -> list[tuple[int, int]]:
        with ad.no_grad():
            _, pr = self.predicate_repr(enc, target, self.vocab.lu_id(lu),
                                        self.vocab.frame_id(frame))
            emissions = self.ai_emissions(enc, target, pr).data
        return decode_iob2(self.ai_crf.viterbi(emissions))

    def ac_emissions(self, enc: SentenceEncoding, target: list[int],
                     z: Tensor, spans: list[tuple[int, int]],
                     fe_penalty: np.ndarray | None) -> Tensor:
        """(n_spans, n_roles) scores; penalty masks unlicensed roles."""
        b = enc.b(sorted(target)[0])
        rows = []
        for start, end in spans:
            r = ad.sum_rows(ad.row_select(b, list(range(start, end + 1))))
            q = enc._drop(ad.tanh(self.ac_y(ad.concat([r, z]))))
            rows.append(self.ac_emit(q))
        emissions = ad.stack_rows(rows)
        if fe_penalty is not None:
            emissions = ad.add_rowvec(emissions, ad.tensor(fe_penalty))
        return emissions

    def ac_predict(self, enc: SentenceEncoding, target: list[int], lu: str,
                   frame: str, spans: list[tuple[int, int]]) -> list[str]:
        if not spans:
            return []
        penalty = self._fe_penalty[frame]
        if not np.any(penalty == 0.0):
            raise ValueError(f"frame {frame!r} licenses no role labels")
        with ad.no_grad():
            z, _ = self.predicate_repr(enc, target, self.vocab.lu_id(lu),
                                       self.vocab.frame_id(frame))
            emissions = self.ac_emissions(enc, target, z, spans, penalty).data
        emissions[:, penalty < 0.0] = -np.inf  # unlicensed roles
        return [self.vocab.fes[k] for k in self.ac_crf.viterbi(emissions)]

    # ------------------------------------------------------------------
    # losses

    def _fi_ce(self, enc: SentenceEncoding, pa: PreparedAnnotation) -> Tensor:
        scores = self.fi_scores(enc, pa.target, pa.lu)
        picked = ad.vec_select(ad.log_softmax(scores), [pa.frame_id])
        return ad.mul_scalar(ad.sum_all(picked), -1.0)

    def _srl_nll(self, enc: SentenceEncoding, pa: PreparedAnnotation) -> Tensor:
        constrain = self.config.constrain_training
        z, pr = self.predicate_repr(enc, pa.target, pa.lu_id, pa.frame_id)
        ai = self.ai_crf.nll(self.ai_emissions(enc, pa.target, pr),
                             pa.ai_tags, constrain)
        if not pa.spans:
            return ai
        emissions = self.ac_emissions(enc, pa.target, z, pa.spans,
                                      pa.fe_penalty if constrain else None)
        return ad.add(ai, self.ac_crf.nll(emissions, pa.fe_ids, constrain))

    @staticmethod
    def _mean(terms: list[Tensor]) -> Tensor:
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        return ad.mul_scalar(total, 1.0 / len(terms))

    def batch_losses(self, preps: list[Prepared], train: bool = False,
                     parts: tuple[str, ...] = ("ti", "fi", "srl"),
                     ) -> dict[str, Tensor]:
        """Per-part batch-mean losses over one shared encoding pass.

        An unannotated sentence contributes an exact 0 term to the fi and
        srl means but still counts in their denominators.
        """
        if not preps:
            raise ValueError("empty batch")
        terms: dict[str, list[Tensor]] = {p: [] for p in parts}
        encs = self.encode_batch(preps, train)
        if "srl" in parts:
            self.encode_targets([(enc, min(pa.target)) for enc in encs
                                 for pa in enc.prep.annotations])
        for prep, enc in zip(preps, encs):
            if "ti" in parts:
                terms["ti"].append(
                    self.ti_crf.nll(self.ti_emissions(enc), prep.ti_tags,
                                    self.config.constrain_training))
            if "fi" in parts:
                if prep.annotations:
                    terms["fi"].append(self._mean(
                        [self._fi_ce(enc, pa) for pa in prep.annotations]))
                else:
                    terms["fi"].append(ad.tensor(np.asarray(0.0)))
            if "srl" in parts:
                if prep.annotations:
                    terms["srl"].append(self._mean(
                        [self._srl_nll(enc, pa) for pa in prep.annotations]))
                else:
                    terms["srl"].append(ad.tensor(np.asarray(0.0)))
        return {p: self._mean(terms[p]) for p in parts}

    def loss(self, preps: list[Prepared], task: str | None = None,
             train: bool = False) -> Tensor:
        task = task or self.config.task
        parts = self.batch_losses(preps, train, TASK_LOSSES[task])
        if task == "joint":
            return ad.add(ad.add(parts["ti"], parts["fi"]), parts["srl"])
        return parts[task]

    # ------------------------------------------------------------------
    # full pipeline

    def parse(self, sent: Sentence) -> tuple[list[FrameAnnotation], int]:
        """Predict annotations from scratch; returns (annotations, number
        of predicted targets dropped for lacking a known lexical unit)."""
        prep = self.prepare(sent, with_gold=False)
        out = []
        with ad.fresh_tape(), ad.no_grad():
            enc = self.encode(prep, train=False)
            targets = self.ti_predict(enc)
            kept = [(target, key) for target in targets
                    if (key := lu_key(sent.tokens, target, sent.pos))
                    in self.ontology.lu_to_frames]
            dropped = len(targets) - len(kept)
            self.encode_targets([(enc, min(target)) for target, _ in kept])
            for target, key in kept:
                frame = self.fi_predict(enc, target, key)
                spans = self.ai_predict(enc, target, key, frame)
                labels = self.ac_predict(enc, target, key, frame, spans)
                out.append(FrameAnnotation(
                    target=target, lu=key, frame=frame,
                    elements=sorted(zip(spans, labels)),
                ))
        return out, dropped

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
        with open(path) as fh:
            doc = json.load(fh)
        for key in ("config", "vocab", "ontology", "params"):
            if not isinstance(doc, dict) or key not in doc:
                raise CorpusError(f"{path}: checkpoint has no {key!r} entry")
        model = cls(config_from_dict(doc["config"]),
                    Vocab.from_dict(doc["vocab"]),
                    Ontology(**doc["ontology"]))
        model.store.load_state(doc["params"])
        return model
