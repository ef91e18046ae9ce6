"""End-to-end architecture tests: encoding algebra, head behavior under
rigged weights, loss structure, and checkpoint round-trips."""

import json

import numpy as np
import pytest

from framepath import autodiff as ad
from framepath import model as model_module
from framepath.config import Config
from framepath.corpus import (CorpusError, FrameAnnotation, Ontology,
                              Sentence, build_vocab)
from framepath.evaluation import evaluate, evaluate_srl
from framepath.gcn import TreeGcn
from framepath.model import FrameParser
from framepath.synth import generate
from framepath.syntax import parse_bracketed
from framepath.training import train

from helpers import assert_grads_ok


def tiny_config(**overrides) -> Config:
    base = dict(token_dim=12, pos_dim=4, gcn_emb_dim=6, gcn_dim=6,
                gcn_layers=2, lstm_hidden=8, lstm_layers=2, lu_dim=5,
                frame_dim=5, fi_hidden1=7, fi_hidden2=6, ai_pr_dim=6,
                ai_pb_dim=6, ac_dim=6, seed=3)
    base.update(overrides)
    return Config(**base)


def make_ontology() -> Ontology:
    return Ontology(
        lu_to_frames={
            "run.v": ["Motion", "Operating"],
            "dog.n": ["Animal"],
            "give.v": ["Giving"],
        },
        frame_to_elements={
            "Motion": ["Mover", "Path"],
            "Operating": ["Agent"],
            "Animal": ["Kind"],
            "Giving": ["Donor", "Recipient", "Theme"],
        },
    )


def make_sentence() -> Sentence:
    tree = parse_bracketed(
        "(S (NP (DT the) (NN dog)) (VP (VBD ran) (PP (IN down) (NN hill))))")
    return Sentence(
        tokens=["the", "dog", "ran", "down", "hill"],
        pos=["DT", "NN", "VBD", "IN", "NN"],
        tree=tree,
        annotations=[
            FrameAnnotation(target=[2], lu="run.v", frame="Motion",
                            elements=[((0, 1), "Mover"), ((3, 4), "Path")]),
            FrameAnnotation(target=[1], lu="dog.n", frame="Animal",
                            elements=[((0, 0), "Kind")]),
        ],
    )


def make_model(**overrides) -> tuple[FrameParser, Sentence]:
    onto = make_ontology()
    sent = make_sentence()
    vocab = build_vocab([sent], onto)
    return FrameParser(tiny_config(**overrides), vocab, onto), sent


def sentence(bracketed: str, annotations=()) -> Sentence:
    tree = parse_bracketed(bracketed)
    return Sentence(tokens=tree.tokens(),
                    pos=[tree.nodes[k].label for k in tree.preterminal_order],
                    tree=tree, annotations=list(annotations))


def make_corpus_model(**overrides) -> tuple[FrameParser, list[Sentence]]:
    """Sentences of 5, 3, 7 and 5 tokens, the last unannotated, whose
    lexical units are the keys parse looks up, and a model with every
    parameter moved off its initial value."""
    onto = Ontology(
        lu_to_frames={"ran.v": ["Motion", "Operating"], "dog.n": ["Animal"],
                      "gave.v": ["Giving"]},
        frame_to_elements=make_ontology().frame_to_elements)
    corpus = [
        sentence("(S (NP (DT the) (NN dog)) (VP (VBD ran) (PP (IN down) "
                 "(NN hill))))",
                 [FrameAnnotation([2], "ran.v", "Motion",
                                  [((0, 1), "Mover"), ((3, 4), "Path")]),
                  FrameAnnotation([1], "dog.n", "Animal", [((0, 0), "Kind")])]),
        sentence("(S (NP (DT the) (NN dog)) (VP (VBD ran)))",
                 [FrameAnnotation([2], "ran.v", "Operating",
                                  [((0, 1), "Agent")])]),
        sentence("(S (NP (DT the) (NN dog)) (VP (VBD gave) (NP (DT the) "
                 "(NN dog)) (PP (IN down) (NN hill))))",
                 [FrameAnnotation([2], "gave.v", "Giving",
                                  [((0, 1), "Donor"), ((3, 4), "Theme")]),
                  FrameAnnotation([4], "dog.n", "Animal", [])]),
        sentence("(S (NP (DT the) (NN dog) (VBD ran)) (PP (IN down) "
                 "(NN hill)))"),
    ]
    model = FrameParser(tiny_config(**overrides),
                        build_vocab(corpus, onto), onto)
    noise = np.random.default_rng(23)
    for _, entry in model.store.entries():
        entry.tensor.data += noise.normal(0.0, 0.3, entry.tensor.data.shape)
    return model, corpus


def count_backbone_calls(model) -> dict[str, int]:
    calls = {"a": 0, "b": 0}
    for key in calls:
        inner = getattr(model, f"lstm_{key}")

        def counting(x, lengths=None, key=key, inner=inner):
            calls[key] += 1
            return inner(x, lengths)

        setattr(model, f"lstm_{key}", counting)
    return calls


def fi_scores(model, enc, target, lu) -> np.ndarray:
    """Masked frame logits of one target, from the batched heads."""
    return model.frame_scores(model.target_rows(enc.a, [target]),
                              [model.ontology.lu_id(lu)]).data[0]


def srl_heads(model, enc, target, lu_id, frame_id):
    """z, pr, b, b_first and the (n, 3) bilinear scores of one target,
    from the role-labeling body training and prediction share."""
    return model.srl_heads([enc], [target], model.target_rows(enc.a, [target]),
                           [lu_id], [frame_id])


def b_rows(model, enc, first):
    """Backbone-B rows of the target whose first index is first."""
    return model.target_b([(enc, first)])[0]


def paths(model):
    return [p for p, _ in model.store.entries()]


def zero_params(model, prefix):
    for path, entry in model.store.entries():
        if path.startswith(prefix):
            entry.tensor.data[:] = 0.0


# ---------------------------------------------------------------------------
# encoding

class TestEncoding:
    def test_zero_bilstm_gives_layernormed_e(self):
        model, sent = make_model()
        zero_params(model, "enc.a.lstm")
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            e, a = model.embed([prep]).data, model.encode(prep).a.data
        mu = e.mean(axis=1, keepdims=True)
        var = e.var(axis=1, keepdims=True)
        expected = (e - mu) / np.sqrt(var + 1e-5)
        assert np.allclose(a, expected, atol=1e-12)

    def test_prepare_rejects_unseen_tags_with_corpus_error(self):
        model, _ = make_model()
        with pytest.raises(CorpusError, match="part of speech 'RB' not in "
                           "training vocabulary"):
            model.prepare(sentence("(S (NP (NN dog)) (VP (RB fast)))"))
        with pytest.raises(CorpusError, match="constituent label 'ADVP' not "
                           "in training vocabulary"):
            model.prepare(sentence("(S (NP (NN dog)) (ADVP (NN hill)))"))

    def test_target_b_depends_on_first_index(self):
        model, sent = make_model()
        calls = count_backbone_calls(model)
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            first = b_rows(model, enc, 2)
            again = b_rows(model, enc, 2)
            other = b_rows(model, enc, 1)
        assert np.array_equal(first.data, again.data)
        assert not np.array_equal(other.data, first.data)
        assert calls == {"a": 1, "b": 3}  # one pass per call, nothing kept

    def test_tree_change_changes_a(self):
        model, sent = make_model()
        prep1 = model.prepare(sent)
        rebracketed = parse_bracketed(
            "(S (NP (DT the) (NN dog) (VBD ran)) (PP (IN down) (NN hill)))")
        sent2 = Sentence(tokens=sent.tokens, pos=sent.pos, tree=rebracketed)
        prep2 = model.prepare(sent2)
        with ad.fresh_tape(), ad.no_grad():
            a1 = model.encode(prep1).a.data
            a2 = model.encode(prep2).a.data
        assert not np.allclose(a1, a2)

    def test_no_gcn_zero_paths_same_dims(self):
        model, sent = make_model(use_gcn=False)
        assert not any(p.startswith("gcn.") for p in paths(model))
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            assert enc.a.data.shape == (5, model.e_dim)
            loss = model.loss([prep], "joint")
        assert np.isfinite(loss.data)


class TestTargetRepr:
    def test_singleton_is_row(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            t = model.target_rows(enc.a, [[3]]).data[0]
            assert np.array_equal(t, enc.a.data[3])

    def test_discontiguous_sum_and_order(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            t = model.target_rows(enc.a, [[2, 4]]).data[0]
            rev = model.target_rows(enc.a, [[4, 2]]).data[0]
            assert np.allclose(t, enc.a.data[2] + enc.a.data[4], atol=1e-12)
            assert np.array_equal(t, rev)

    def test_empty_rejected(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            with pytest.raises(ValueError):
                model.target_rows(enc.a, [[]])


# ---------------------------------------------------------------------------
# frame identification

class TestFrameId:
    def test_single_frame_lu_forced(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            assert model.fi_predict(enc, [1], "dog.n") == "Animal"

    def test_zero_weights_two_frame_symmetry(self):
        model, sent = make_model()
        zero_params(model, "fi.")
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            scores = fi_scores(model, enc, [2], "run.v")
        probs = np.exp(scores - scores.max())
        probs /= probs.sum()
        allowed = model.ontology.frame_mask("run.v")
        assert np.allclose(probs[allowed], 0.5, atol=1e-40)

    def test_masked_softmax_normalizes_over_allowed(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            scores = fi_scores(model, enc, [2], "run.v")
        log_probs = scores - np.log(np.exp(scores - scores.max()).sum()) \
            - scores.max()
        probs = np.exp(log_probs)
        allowed = model.ontology.frame_mask("run.v")
        assert abs(probs[allowed].sum() - 1.0) < 1e-12
        assert probs[~allowed].max() < 1e-40

    def test_unknown_lu_rejected(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            with pytest.raises(CorpusError,
                               match="unknown lexical unit 'fly.v'"):
                fi_scores(model, enc, [2], "fly.v")


# ---------------------------------------------------------------------------
# argument identification

class TestArgId:
    def test_z_dim_and_pr_range(self):
        model, sent = make_model()
        c = model.config
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            z, pr, *_ = srl_heads(model, enc, [2], 0, 0)
        assert z.data.shape == (1, c.lu_dim + model.e_dim + c.frame_dim)
        assert pr.data.shape == (1, c.ai_pr_dim)
        assert np.all(np.abs(pr.data) < 1.0)

    def test_zero_v1_zeroes_emissions(self):
        model, sent = make_model()
        zero_params(model, "srl.ai.v1")
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            emissions = srl_heads(model, enc, [2], 0, 0)[-1].data
        assert np.array_equal(emissions, np.zeros((5, 3)))

    def test_bilinear_matches_double_loop(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            _, pr, b, _, emissions = srl_heads(model, enc, [2], 1, 2)
        b, emissions = b.data, emissions.data
        v2w = model.store["srl.ai.v2.w"].data
        v2b = model.store["srl.ai.v2.b"].data
        pb = np.tanh(b @ v2w + v2b)
        for i in range(5):
            for k in range(3):
                want = float(pr.data[0] @ model.ai_u[k].data @ pb[i])
                assert abs(emissions[i, k] - want) < 1e-10

    def test_predicted_spans_disjoint_sorted(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            spans = model.ai_predict(enc, [2], "run.v", "Motion")
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 < s2


# ---------------------------------------------------------------------------
# argument classification

class TestArgClass:
    def test_single_fe_frame_forced(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        spans = [(0, 1), (3, 4)]
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            labels = model.ac_predict(enc, [1], "dog.n", "Animal", spans)
        assert labels == ["Kind", "Kind"]

    def test_licensed_labels_only(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            labels = model.ac_predict(enc, [2], "run.v", "Motion",
                                      [(0, 0), (1, 1), (3, 4)])
        assert set(labels) <= {"Mover", "Path"}

    def test_emissions_match_manual_recompute(self):
        # single-token span exercises r_w = b_start
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            z, _, b, _, _ = srl_heads(model, enc, [2], 1, 2)
            emissions = model.role_scores(z, b, [0], [[(3, 3), (0, 1)]],
                                          [2]).data
            b = b.data
        yw = model.store["srl.ac.y.w"].data
        yb = model.store["srl.ac.y.b"].data
        ew = model.store["srl.ac.emit.w"].data
        eb = model.store["srl.ac.emit.b"].data
        for row, r in zip(emissions, [b[3], b[0] + b[1]]):
            q = np.tanh(np.concatenate([r, z.data[0]]) @ yw + yb)
            assert np.allclose(row, q @ ew + eb + model._fe_penalty[2],
                               atol=1e-10)

    def test_empty_span_list(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(prep)
            assert model.ac_predict(enc, [2], "run.v", "Motion", []) == []


# ---------------------------------------------------------------------------
# losses

class TestLosses:
    def test_all_losses_finite_nonnegative(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            parts = model.batch_losses([prep])
        for name, t in parts.items():
            v = float(t.data)
            assert np.isfinite(v) and v >= 0.0, name

    def test_unannotated_sentence_zeroes_fi_srl(self):
        model, sent = make_model()
        bare = Sentence(tokens=sent.tokens, pos=sent.pos, tree=sent.tree)
        prep = model.prepare(bare)
        with ad.fresh_tape(), ad.no_grad():
            parts = model.batch_losses([prep])
        assert float(parts["fi"].data) == 0.0
        assert float(parts["srl"].data) == 0.0
        assert float(parts["ti"].data) > 0.0

    def test_ti_loss_is_all_o_nll_when_unannotated(self):
        model, sent = make_model()
        bare = Sentence(tokens=sent.tokens, pos=sent.pos, tree=sent.tree)
        prep = model.prepare(bare)
        with ad.fresh_tape(), ad.no_grad():
            loss = float(model.loss([prep], "ti").data)
            enc = model.encode(prep)
            direct = float(model.ti_crf.nll(model.ti_emit(enc.a),
                                            [0] * 5, True).data)
        assert abs(loss - direct) < 1e-12

    def test_discontinuous_gold_tags_encode_and_score(self):
        model, sent = make_model()
        split = Sentence(
            tokens=sent.tokens, pos=sent.pos, tree=sent.tree,
            annotations=[
                FrameAnnotation(target=[1], lu="dog.n", frame="Animal"),
                FrameAnnotation(target=[2, 4], lu="run.v", frame="Motion"),
            ])
        prep = model.prepare(split)
        assert prep.ti_tags == [0, 1, 1, 0, 3]
        with ad.fresh_tape(), ad.no_grad():
            loss = float(model.loss([prep], "ti").data)
        assert np.isfinite(loss) and loss > 0.0

    def test_duplicated_batch_same_means(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            one = model.batch_losses([prep])
            two = model.batch_losses([prep, prep])
        for name in one:
            assert abs(float(one[name].data) - float(two[name].data)) < 1e-12

    def test_joint_is_sum_of_parts(self):
        model, sent = make_model()
        extra = Sentence(tokens=sent.tokens, pos=sent.pos, tree=sent.tree)
        preps = [model.prepare(sent), model.prepare(extra)]
        with ad.fresh_tape(), ad.no_grad():
            joint = float(model.loss(preps, "joint").data)
            total = sum(float(model.loss(preps, t).data)
                        for t in ("ti", "fi", "srl"))
        assert abs(joint - total) <= 1e-12

    def test_empty_batch_rejected(self):
        model, _ = make_model()
        with pytest.raises(ValueError):
            model.batch_losses([])


class TestGradients:
    def test_joint_loss_full_model_gradcheck(self):
        model, sent = make_model(
            token_dim=6, pos_dim=2, gcn_emb_dim=4, gcn_dim=4, lstm_hidden=4,
            lstm_layers=1, lu_dim=3, frame_dim=3, fi_hidden1=5, fi_hidden2=4,
            ai_pr_dim=4, ai_pb_dim=4, ac_dim=4, seed=11)
        # zero-init biases can park a relu pre-activation exactly on its
        # kink; check at a generic nearby point instead
        noise = np.random.default_rng(7)
        for _, entry in model.store.entries():
            entry.tensor.data += noise.normal(0.0, 0.05,
                                              entry.tensor.data.shape)
        prep = model.prepare(sent)
        params = [e.tensor for _, e in model.trainable_entries("joint")]
        assert_grads_ok(lambda: model.loss([prep], "joint"),
                        params, tol=1e-4)

    def test_gcn_params_all_reached_by_srl_loss(self):
        model, sent = make_model()
        prep = model.prepare(sent)
        with ad.fresh_tape():
            ad.backward(model.loss([prep], "srl"))
        for path, entry in model.store.entries():
            if path.startswith("gcn."):
                assert entry.tensor.grad is not None, path
                assert np.any(entry.tensor.grad != 0.0), path


class TestPackedBatch:
    def test_batch_losses_equal_mean_of_single_sentences(self):
        model, corpus = make_corpus_model()
        preps = [model.prepare(s) for s in corpus]
        params = [e.tensor for _, e in model.store.entries()]

        def run(batch):
            ad.zero_grads(params)
            with ad.fresh_tape():
                parts = model.batch_losses(batch)
                ad.backward(ad.add(ad.add(parts["ti"], parts["fi"]),
                                   parts["srl"]))
            return ({k: float(t.data) for k, t in parts.items()},
                    [np.zeros_like(p.data) if p.grad is None else p.grad
                     for p in params])

        packed, packed_grads = run(preps)
        singles = [run([prep]) for prep in preps]
        for name, value in packed.items():
            mean = np.mean([losses[name] for losses, _ in singles])
            assert abs(value - mean) < 1e-10, name
        for k, grad in enumerate(packed_grads):
            mean = np.mean([grads[k] for _, grads in singles], axis=0)
            np.testing.assert_allclose(grad, mean, rtol=0, atol=1e-10)

    def test_tape_size_of_a_fixed_joint_batch(self):
        # The GCN runs once over the batch's forest of trees, each
        # backbone makes one path-sum op and one op per BiLSTM layer
        # (input projections included), each linear map is one op, each
        # head and CRF records once per batch, not per sentence or
        # annotation, and the packed backbone rows go to the heads uncut,
        # and each backbone pass looks up its embeddings once:
        # 68 records for these 8 sentences (86 with separate projection
        # and bias ops, 106 with three embedding ops per sentence, 114
        # with one recurrence op per direction and a column join per
        # layer, 209 with one GCN pass per tree and one path sum per
        # reference, 828 with per-annotation heads).
        sentences, ontology = generate(101, 80)
        model = FrameParser(Config(), build_vocab(sentences[:60], ontology),
                            ontology)
        preps = [model.prepare(s) for s in sentences[:8]]
        with ad.fresh_tape():
            model.loss(preps, "joint")
            assert ad.tape_length() == 68

    def test_srl_predict_equals_one_target_calls(self):
        # corpus[2] pairs a target with roles and one without any
        model, corpus = make_corpus_model()
        with ad.fresh_tape(), ad.no_grad():
            encs, targets, lus, frames = [], [], [], []
            for sent in corpus[:3]:
                enc = model.encode(model.prepare(sent, with_gold=False))
                anns = sent.annotations
                each = model.fi_predict([enc] * len(anns),
                                        [a.target for a in anns],
                                        [a.lu for a in anns])
                assert each == [model.fi_predict(enc, a.target, a.lu)
                                for a in anns]
                encs += [enc] * len(anns)
                targets += [a.target for a in anns]
                lus += [a.lu for a in anns]
                frames += each
            items = list(zip(encs, targets, lus, frames))
            spans, labels = model.srl_predict(encs, targets, lus, frames)
            assert spans == [model.ai_predict(*item) for item in items]
            assert labels == [model.ac_predict(*item, s)
                              for item, s in zip(items, spans)]
            gold = [[span for span, _ in a.elements]
                    for sent in corpus[:3] for a in sent.annotations]
            assert model.srl_predict(encs, targets, lus, frames, gold) == (
                gold, [model.ac_predict(*item, s)
                       for item, s in zip(items, gold)])

    def test_one_backbone_pass_per_batch(self):
        model, corpus = make_corpus_model()
        preps = [model.prepare(s) for s in corpus]
        calls = count_backbone_calls(model)
        with ad.fresh_tape(), ad.no_grad():
            model.batch_losses(preps)
        assert calls == {"a": 1, "b": 1}

    def test_one_gcn_pass_and_one_path_sum_per_backbone(self, monkeypatch):
        model, corpus = make_corpus_model()
        preps = [model.prepare(s) for s in corpus]
        calls = {"gcn": 0, "paths": 0}

        def counted(key, inner):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return inner(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(TreeGcn, "__call__",
                            counted("gcn", TreeGcn.__call__))
        monkeypatch.setattr(model_module, "path_sum_features",
                            counted("paths", model_module.path_sum_features))
        with ad.fresh_tape():
            model.batch_losses(preps, train=True)
        assert calls == {"gcn": 1, "paths": 2}  # backbone A and backbone B

    def test_target_b_over_separate_encodings_sums_each_tree(self,
                                                             monkeypatch):
        # Encodings from separate encode calls each hold their own node
        # rows; backbone B's one path-sum op runs over them concatenated.
        model, corpus = make_corpus_model()
        seen = []

        def keep(*args):
            out = inner(*args)
            seen.append(out.data)
            return out

        inner = model_module.path_sum_features
        with ad.fresh_tape(), ad.no_grad():
            encs = [model.encode(model.prepare(s)) for s in corpus[:3]]
            pairs = [(enc, first) for enc in encs for first in (2, 0)]
            monkeypatch.setattr(model_module, "path_sum_features", keep)
            model.target_b(pairs)
            assert len(seen) == 1
            each = [inner(enc.prep.sentence.tree, enc.h,
                          enc.prep.sentence.tree.token_node(first)).data
                    for enc, first in pairs]
        assert np.array_equal(seen[0], np.concatenate(each))

    def test_target_b_matches_one_target_at_a_time(self):
        model, corpus = make_corpus_model()
        preps = [model.prepare(s) for s in corpus[:3]]
        calls = count_backbone_calls(model)
        with ad.fresh_tape():
            encs = [model.encode(prep) for prep in preps]
            pairs = [(enc, first) for enc in encs for first in (0, 2)]
            b, b_first = model.target_b(pairs)
            assert b.needs_grad  # training reads b through the same call
        assert calls == {"a": 3, "b": 1}
        assert b_first == list(np.cumsum([0] + [len(enc.prep.sentence)
                                                for enc, _ in pairs]))
        with ad.fresh_tape(), ad.no_grad():
            for (enc, first), lo, hi in zip(pairs, b_first, b_first[1:]):
                np.testing.assert_allclose(b.data[lo:hi],
                                           b_rows(model, enc, first).data,
                                           rtol=0, atol=1e-12)

    def test_parse_matches_one_target_at_a_time(self):
        model, corpus = make_corpus_model()
        model.ti_emit.b.data[:] = [0.0, 50.0, 0.0, 0.0]  # every token a B
        calls = count_backbone_calls(model)
        packed = [model.parse(s) for s in corpus]
        assert calls == {"a": len(corpus), "b": len(corpus)}
        assert max(len(anns) for anns, _ in packed) == 3
        inner = model.target_b

        def one_at_a_time(pairs, train=False):
            rows = [inner([pair], train)[0] for pair in pairs]
            return ad.concat(rows), list(np.cumsum(
                [0] + [r.data.shape[0] for r in rows]))

        model.target_b = one_at_a_time
        assert [model.parse(s) for s in corpus] == packed

    def test_role_prediction_runs_each_srl_head_once(self):
        model, corpus = make_corpus_model()
        model.ti_emit.b.data[:] = [0.0, 50.0, 0.0, 0.0]  # every token a B
        names = ("target_b", "target_rows", "srl_heads", "role_scores")
        calls = dict.fromkeys(names, 0)
        for name in names:
            inner = getattr(model, name)

            def counting(*args, name=name, inner=inner, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            setattr(model, name, counting)
        lstm = count_backbone_calls(model)
        anns, _ = model.parse(corpus[2])
        assert len(anns) == 3
        # frame and role prediction share one sum of the target rows
        assert calls == dict.fromkeys(names, 1)
        assert lstm == {"a": 1, "b": 1}
        calls.update(dict.fromkeys(names, 0))
        lstm.update(a=0, b=0)
        evaluate_srl(model, corpus)
        assert calls == dict.fromkeys(names, 1)
        assert lstm == {"a": 1, "b": 1}  # one chunk of three sentences

    def test_training_and_prediction_decode_the_same_ai_emissions(
            self, monkeypatch):
        # corpus[2] pairs a target with roles and one without any; the
        # gold items come from three sentences.
        model, corpus = make_corpus_model()
        seen = {"nll": [], "viterbi": []}

        def keep(key, inner):
            def wrapper(self, emissions, *args):
                if self is model.ai_crf:
                    seen[key].append((getattr(emissions, "data", emissions),
                                      args[-1]))
                return inner(self, emissions, *args)
            return wrapper

        crf = type(model.ai_crf)
        monkeypatch.setattr(crf, "nll", keep("nll", crf.nll))
        monkeypatch.setattr(crf, "viterbi", keep("viterbi", crf.viterbi))
        with ad.fresh_tape(), ad.no_grad():
            model.batch_losses([model.prepare(s) for s in corpus[:3]],
                               parts=("srl",))
            encs = [model.encode(model.prepare(s, with_gold=False))
                    for s in corpus[:3]]
            anns = [(enc, a) for enc in encs
                    for a in enc.prep.sentence.annotations]
            model.srl_predict([enc for enc, _ in anns],
                              [a.target for _, a in anns],
                              [a.lu for _, a in anns],
                              [a.frame for _, a in anns])
        (trained, trained_lengths), = seen["nll"]
        (decoded, lengths), = seen["viterbi"]  # one call for every chain
        assert list(lengths) == list(trained_lengths) == [
            len(enc.prep.sentence) for enc, _ in anns]
        np.testing.assert_allclose(decoded, trained, rtol=0, atol=1e-10)

    def test_evaluate_fi_scores_every_target_at_once(self):
        model, corpus = make_corpus_model()
        calls = {"encode": 0, "frame_scores": 0}
        for name in calls:
            inner = getattr(model, name)

            def counting(*args, name=name, inner=inner, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            setattr(model, name, counting)
        report, = evaluate(model, corpus, "fi")
        assert report["counts"]["total"] == 5
        # the three annotated sentences make one chunk
        assert calls == {"encode": 1, "frame_scores": 1}

    def test_evaluation_matches_one_sentence_at_a_time(self):
        model, corpus = make_corpus_model()
        for task in ("ti", "fi", "srl"):
            packed, = evaluate(model, corpus, task)
            singles = [evaluate(model, [s], task)[0] for s in corpus]
            for key, value in packed["counts"].items():
                assert value == sum(r["counts"][key] for r in singles)

    def test_encode_shares_one_a_and_matches_each_sentence(self):
        model, corpus = make_corpus_model()
        preps = [model.prepare(s) for s in corpus[:3]]
        calls = count_backbone_calls(model)
        with ad.fresh_tape(), ad.no_grad():
            encs = model.encode(preps)
            singles = [model.encode(prep) for prep in preps]
        assert calls == {"a": 4, "b": 0}
        assert all(enc.a is encs[0].a and enc.h is encs[0].h for enc in encs)
        for enc, single in zip(encs, singles):
            n = len(enc.prep.sentence)
            assert single.a_first == 0 and single.a.data.shape[0] == n
            np.testing.assert_allclose(
                enc.a.data[enc.a_first:enc.a_first + n], single.a.data,
                rtol=0, atol=1e-12)

    def test_parse_many_equals_parse_across_chunks(self, monkeypatch):
        model, corpus = make_corpus_model()
        model.ti_emit.b.data[:] = [0.0, 1.0, 0.0, 0.0]
        sentences = corpus + [sentence("(S (DT the))")]
        monkeypatch.setattr(model_module, "CELLS", 14)
        calls = count_backbone_calls(model)
        parsed = model.parse_many(sentences)
        assert calls["a"] == 3  # chunks of 5 + 3, 7 + 5 and 1 tokens
        assert parsed == [model.parse(s) for s in sentences]
        # kept targets with roles, a dropped target, a sentence with none
        assert any(el for anns, _ in parsed for a in anns for el in a.elements)
        assert any(dropped for _, dropped in parsed)
        assert parsed[-1] == ([], 0)

    def test_evaluate_ti_encodes_once_per_chunk(self, monkeypatch):
        model, corpus = make_corpus_model()
        monkeypatch.setattr(model_module, "CELLS", 21)
        calls = {"encode": 0}
        inner = model.encode

        def counting(*args, **kwargs):
            calls["encode"] += 1
            return inner(*args, **kwargs)

        model.encode = counting
        report = evaluate(model, corpus, "ti")
        assert calls == {"encode": 2}  # chunks of 5 + 3 + 7 and 5 tokens
        monkeypatch.setattr(model_module, "CELLS", 10**6)
        assert evaluate(model, corpus, "ti") == report


def bare_run(n: int) -> Sentence:
    """An unannotated sentence of n tokens, all "dog" under S."""
    return sentence("(S" + " (NN dog)" * n + ")")


class TestCellChunks:
    def test_boundary_rule(self, monkeypatch):
        model, corpus = make_corpus_model()
        cells = 9
        monkeypatch.setattr(model_module, "CELLS", cells)
        sentences = [corpus[0], corpus[1], bare_run(1), bare_run(1),
                     bare_run(12), corpus[2], corpus[3], bare_run(2),
                     bare_run(1), bare_run(3)]
        with ad.fresh_tape(), ad.no_grad():
            chunks = [[enc.prep.sentence for enc in encs]
                      for encs in model.encode_chunks(sentences)]
            assert list(model.encode_chunks([])) == []
        assert [[len(s) for s in c] for c in chunks] == [
            [5], [3, 1, 1], [12], [7], [5], [2, 1, 3]]
        joined = [s for chunk in chunks for s in chunk]
        assert len(joined) == len(sentences)
        assert all(a is b for a, b in zip(joined, sentences))  # in order
        for chunk, after in zip(chunks, chunks[1:] + [None]):
            longest = max(map(len, chunk))
            assert len(chunk) * longest <= cells or len(chunk) == 1
            if longest > cells:
                assert len(chunk) == 1  # runs alone
            if after:  # maximal: the next sentence would not fit
                assert (len(chunk) + 1) * max(longest, len(after[0])) > cells

    def test_backbone_b_holds_targets_of_one_chunk(self, monkeypatch):
        model, corpus = make_corpus_model()
        model.ti_emit.b.data[:] = [0.0, 50.0, 0.0, 0.0]  # every token a B
        monkeypatch.setattr(model_module, "CELLS", 15)
        chunks, held = [], []  # sentence ids per encode and target_b call
        encode, target_b = model.encode, model.target_b

        def encoding(preps, train=False):
            chunks.append({id(prep.sentence) for prep in preps})
            return encode(preps, train)

        def recording(pairs, train=False):
            held.append({id(enc.prep.sentence) for enc, _ in pairs})
            return target_b(pairs, train)

        model.encode, model.target_b = encoding, recording
        for run in (lambda: evaluate(model, corpus + corpus, "joint"),
                    lambda: model.parse_many(corpus + corpus)):
            chunks.clear()
            held.clear()
            run()
            # chunks of 5 + 3, 7 + 5, 5 + 3 and 7 + 5 tokens
            assert len(chunks) == 4 and max(map(len, held)) == 2
            assert all(any(ids <= chunk for chunk in chunks) for ids in held)


# ---------------------------------------------------------------------------
# decoding legality

class TestLegalAtScale:
    def test_unlicensed_frames_and_roles_never_predicted(self):
        # Frame logits and role emissions scaled far past the -1e4
        # penalty must still yield licensed labels only.
        model, sent = make_model()
        rng = np.random.default_rng(31)
        fi_b, ac_b = model.fi3.b, model.ac_emit.b
        with ad.fresh_tape(), ad.no_grad():
            enc = model.encode(model.prepare(sent))
            for _ in range(50):
                scale = 10.0 ** rng.uniform(0.0, 6.0)
                fi_b.data = rng.normal(size=fi_b.data.shape) * scale
                ac_b.data = rng.normal(size=ac_b.data.shape) * scale
                assert model.fi_predict(enc, [2], "run.v") in (
                    "Motion", "Operating")
                assert model.fi_predict(enc, [1], "dog.n") == "Animal"
                labels = model.ac_predict(enc, [2], "run.v", "Motion",
                                          [(0, 1), (3, 4)])
                assert set(labels) <= {"Mover", "Path"}


# ---------------------------------------------------------------------------
# task parameter selection

class TestTrainableSets:
    def test_prefix_partitions(self):
        model, _ = make_model()
        all_paths = set(paths(model))
        joint = {p for p, _ in model.trainable_entries("joint")}
        assert joint == all_paths
        ti = {p for p, _ in model.trainable_entries("ti")}
        assert any(p.startswith("ti.") for p in ti)
        assert not any(p.startswith("srl.") or p.startswith("fi.")
                       for p in ti)
        srl = {p for p, _ in model.trainable_entries("srl")}
        assert any(p.startswith("enc.b.") for p in srl)
        assert not any(p.startswith("enc.b.") for p in ti)

    def test_penalty_groups(self):
        model, _ = make_model()
        srl = model.penalty_terms("srl")
        assert len(srl) == 3 + 2  # three bilinear maps, two srl CRFs
        ti = model.penalty_terms("ti")
        assert len(ti) == 1
        coeffs = {c for _, c in srl}
        assert coeffs == {model.config.l2_crf, model.config.l2_bilinear}


# ---------------------------------------------------------------------------
# pipeline and persistence

class TestPipeline:
    def test_parse_output_well_formed(self):
        model, sent = make_model()
        anns, dropped = model.parse(sent)
        assert dropped >= 0
        for ann in anns:
            assert ann.lu in model.ontology.lu_to_frames
            assert ann.frame in model.ontology.lu_to_frames[ann.lu]
            licensed = set(model.ontology.frame_to_elements[ann.frame])
            for (s, e), label in ann.elements:
                assert 0 <= s <= e < len(sent)
                assert label in licensed


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model, sent = make_model()
        path = str(tmp_path / "model.json")
        model.save(path)
        clone = FrameParser.load(path)
        assert paths(clone) == paths(model)
        for p in paths(model):
            assert np.array_equal(clone.store[p].data, model.store[p].data), p
        prep_a = model.prepare(sent)
        prep_b = clone.prepare(sent)
        with ad.fresh_tape(), ad.no_grad():
            la = float(model.loss([prep_a], "joint").data)
            lb = float(clone.loss([prep_b], "joint").data)
        assert la == lb

    def test_save_load_save_writes_the_same_bytes(self, tmp_path):
        model, _ = make_model()
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        model.save(str(first))
        FrameParser.load(str(first)).save(str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_failed_save_leaves_old_checkpoint(self, tmp_path, monkeypatch):
        model, _ = make_model()
        path = tmp_path / "model.json"
        model.save(str(path))
        before = path.read_bytes()

        def dump_then_fail(doc, fh):
            fh.write('{"config": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            model.save(str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_checkpoint_is_plain_json(self, tmp_path):
        model, _ = make_model()
        path = str(tmp_path / "model.json")
        model.save(path)
        with open(path) as fh:
            doc = json.load(fh)
        assert set(doc) == {"config", "vocab", "ontology", "params"}
        some = doc["params"]["emb.token"]
        assert set(some) == {"shape", "values"}
        assert isinstance(some["values"], str)  # base64 float64 bytes

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        model, _ = make_model()
        path = str(tmp_path / "model.json")
        model.save(path)

        class NoDraws(np.random.Generator):
            def uniform(self, *args, **kwargs):
                raise AssertionError("drew from uniform")

            def normal(self, *args, **kwargs):
                raise AssertionError("drew from normal")

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: NoDraws(np.random.PCG64(seed)))
        with pytest.raises(AssertionError, match="drew"):  # the patch bites
            FrameParser(model.config, model.vocab, model.ontology)
        clone = FrameParser.load(path)
        assert paths(clone) == paths(model)
        for p in paths(model):
            assert np.array_equal(clone.store[p].data, model.store[p].data), p

    def test_load_rejects_a_parameter_the_model_does_not_take(
            self, tmp_path):
        model, _ = make_model()
        path = tmp_path / "model.json"
        model.save(str(path))
        doc = json.loads(path.read_text())
        doc["params"]["head.extra"] = doc["params"]["emb.pos"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorpusError, match=(
                r"model.json: bad checkpoint params: unexpected "
                r"parameters \['head.extra'\]$")):
            FrameParser.load(str(path))


class TestSharedLayouts:
    """Chain layouts come from autodiff.packed's cache.  A layout holds
    integer indices only, so a cold, a warm and a just-emptied cache
    give the same results bit for bit."""

    @staticmethod
    def evict_all():
        # as many other layouts as the cache holds push out every entry
        for n in range(1000, 1000 + ad._layouts.cache_info().maxsize):
            ad.packed(n, None)

    def results(self, model, held, preps, dev):
        params = [(path, e.tensor) for path, e in model.store.entries()]
        ad.zero_grads([t for _, t in params])
        with ad.fresh_tape():
            loss = model.loss(preps, "joint", train=True)
            ad.backward(loss)
        grads = b"".join(path.encode() + t.grad.tobytes()
                         for path, t in params)
        return (model.parse_many(held), evaluate(model, dev, "joint"),
                float(loss.data).hex(), grads)

    def test_cold_warm_and_evicted_caches_agree(self):
        sentences, ontology = generate(101, 80)
        model = FrameParser(tiny_config(task="joint", max_epochs=2,
                                        dropout=0.0),
                            build_vocab(sentences[:60], ontology), ontology)
        train(model, sentences[:60], sentences[60:])
        held = [s for s in generate(202, 40)[0]
                if set(s.pos) <= set(model.vocab.pos)
                and all(n.label in model.vocab.labels for n in s.tree.nodes)]
        preps = [model.prepare(s) for s in sentences[:8]]

        ad._layouts.cache_clear()
        cold = self.results(model, held, preps, sentences[60:])
        warm = self.results(model, held, preps, sentences[60:])
        self.evict_all()
        evicted = self.results(model, held, preps, sentences[60:])
        assert cold == warm == evicted
        annotations = [a for anns, _ in cold[0] for a in anns]
        assert any(a.elements for a in annotations)  # roles were decoded

    def test_a_warm_parse_builds_no_layout(self):
        model, corpus = make_corpus_model()
        ad._layouts.cache_clear()
        first = [model.parse(s) for s in corpus]
        built = ad._layouts.cache_info().misses
        assert 0 < built <= 5 * len(corpus)  # A, B and three decodings
        assert [model.parse(s) for s in corpus] == first
        assert ad._layouts.cache_info().misses == built
