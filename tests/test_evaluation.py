import dataclasses
import math

import pytest

from framepath import autodiff as ad
from framepath import model as model_module
from framepath import synth, training
from framepath.corpus import FrameAnnotation, Sentence, build_vocab
from framepath.evaluation import (
    _span_report,
    dev_metric,
    evaluate,
    evaluate_srl,
    fi_accuracy,
)
from framepath.model import FrameParser
from framepath.syntax import parse_bracketed, serialize

from helpers import dev_metric_oracle, evaluate_oracle
from test_model import (count_backbone_calls, make_corpus_model, make_model,
                        make_sentence, tiny_config)


def report_prf(gold, pred):
    """P/R/F1 of a ti or srl report."""
    report = _span_report("srl", gold, pred)
    return report["precision"], report["recall"], report["f1"]


class TestSpanPrf:
    def test_perfect(self):
        gold = [[(0,)], [(1, 2), (4,)]]
        assert report_prf(gold, [list(g) for g in gold]) == (1.0, 1.0, 1.0)

    def test_empty_pred_nonempty_gold(self):
        assert report_prf([[(0,)]], [[]]) == (0.0, 0.0, 0.0)

    def test_empty_gold_nonempty_pred(self):
        p, r, f1 = report_prf([[]], [[(0,)]])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_both_empty_corpus(self):
        assert report_prf([[], []], [[], []]) == (1.0, 1.0, 1.0)

    def test_half_right(self):
        # 2 gold; pred has 1 correct and 1 spurious
        gold = [[(0,), (2, 3)]]
        pred = [[(0,), (4,)]]
        p, r, f1 = report_prf(gold, pred)
        assert (p, r, f1) == (0.5, 0.5, 0.5)

    def test_sentence_order_invariance(self):
        gold = [[(0,)], [(1,)], []]
        pred = [[(0,)], [], [(2,)]]
        a = report_prf(gold, pred)
        b = report_prf(gold[::-1], pred[::-1])
        assert a == b

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            report_prf([[]], [[], []])

    def test_f1_bounds(self):
        p, r, f1 = report_prf([[(0,), (1,)], [(2,)]], [[(0,)], [(5,), (2,)]])
        assert 0.0 <= f1 <= max(p, r) <= 1.0


class TestFiAccuracy:
    def test_counts(self):
        assert fi_accuracy(["A"] * 10, ["A"] * 9 + ["B"]) == 0.9
        assert fi_accuracy(["A", "B"], ["A", "B"]) == 1.0
        assert fi_accuracy(["A", "B"], ["B", "A"]) == 0.0

    def test_empty_is_vacuously_perfect(self):
        assert fi_accuracy([], []) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fi_accuracy(["A"], [])


class TestSrlPrf:
    def test_wrong_label_is_miss_and_false_positive(self):
        gold = [[("Agent", 0, 1)]]
        pred = [[("Theme", 0, 1)]]
        assert report_prf(gold, pred) == (0.0, 0.0, 0.0)

    def test_mixed_hand_count(self):
        # 3 gold tuples, 2 predicted, 1 exact match:
        # P = 1/2, R = 1/3, F1 = 2*(1/2)(1/3)/(5/6) = 0.4
        gold = [[("Agent", 0, 1), ("Theme", 3, 4)], [("Agent", 2, 2)]]
        pred = [[("Agent", 0, 1), ("Agent", 3, 4)], []]
        p, r, f1 = report_prf(gold, pred)
        assert p == 0.5
        assert abs(r - 1 / 3) < 1e-12
        assert abs(f1 - 0.4) < 1e-12

    def test_cross_annotation_match_not_counted(self):
        gold = [[("Agent", 0, 1)], []]
        pred = [[], [("Agent", 0, 1)]]
        assert report_prf(gold, pred)[2] == 0.0


class TestDrivers:
    def test_report_shapes(self):
        model, sent = make_model()
        reports = evaluate(model, [sent], "joint")
        assert [r["task"] for r in reports] == ["ti", "fi", "srl"]
        ti, fi, srl = reports
        for r in (ti, srl):
            assert set(r) == {"task", "precision", "recall", "f1", "counts"}
            assert r["counts"]["gold"] == (2 if r["task"] == "ti" else 3)
        assert set(fi) == {"task", "accuracy", "counts"}
        assert fi["counts"]["total"] == 2

    def test_fi_driver_counts_match_accuracy(self):
        model, sent = make_model()
        rep = evaluate(model, [sent, sent], "fi")[0]
        assert rep["counts"]["total"] == 4
        assert rep["accuracy"] == rep["counts"]["correct"] / 4

    def test_unannotated_only_corpus(self):
        from framepath.corpus import Sentence
        model, sent = make_model()
        bare = Sentence(tokens=sent.tokens, pos=sent.pos, tree=sent.tree)
        assert evaluate(model, [bare], "fi")[0]["accuracy"] == 1.0
        srl = evaluate_srl(model, [bare])
        assert (srl["precision"], srl["recall"], srl["f1"]) == (1.0, 1.0, 1.0)
        ti = evaluate(model, [bare], "ti")[0]
        assert ti["counts"]["gold"] == 0

    def test_dev_metric_joint_is_mean(self):
        model, sent = make_model()
        fi = evaluate(model, [sent], "fi")[0]["accuracy"]
        srl = evaluate_srl(model, [sent])["f1"]
        got = dev_metric(model, [model.prepare(sent)], "joint")
        assert abs(got - 0.5 * (fi + srl)) < 1e-12

    def test_evaluate_srl_runs_backbone_b_once(self):
        model, sent = make_model()
        calls = count_backbone_calls(model)
        evaluate_srl(model, [sent, sent])
        assert calls == {"a": 1, "b": 1}  # one chunk of two sentences

    def test_dev_metric_unknown_task(self):
        model, sent = make_model()
        with pytest.raises(ValueError):
            dev_metric(model, [model.prepare(sent)], "parse")


def gold_corpus(n_annotated):
    """A model and n_annotated annotated sentences (among them an
    annotation with no roles), each distinct and each second one
    followed by an unannotated sentence.  The model's frame head tells
    ran.v's frames apart by the target row: Motion for the first
    sentence's, Operating for the second's."""
    model, corpus = make_corpus_model()
    with ad.fresh_tape(), ad.no_grad():
        h2 = [ad.leaky_relu(model.fi2(ad.leaky_relu(model.fi1(
            model.encoded_target_rows(model.encode(model.prepare(sent)),
                                      [(0, [2])])
        )))).data[0] for sent in corpus[:2]]
    v, mid = h2[0] - h2[1], (h2[0] + h2[1]) / 2.0
    for sign, frame in ((1.0, "Motion"), (-1.0, "Operating")):
        k = model.ontology.frame_id(frame)
        model.fi3.w.data[:, k] = sign * v
        model.fi3.b.data[k] = -sign * v @ mid
    *annotated, bare = corpus
    out = []
    for k in range(n_annotated):
        out.append(dataclasses.replace(annotated[k % len(annotated)]))
        if k % 2:
            out.append(dataclasses.replace(bare))
    return model, out


class TestChunkedGoldPass:
    # gold_corpus's annotated sentences run 5, 3, 7, 5, 3, 7, ... tokens,
    # so at 7 * k cells (k even) k of them fill a chunk: 4 at 28 cells.
    @pytest.mark.parametrize("n_annotated", [1, 4, 5])
    def test_reports_equal_the_one_sentence_oracle(self, monkeypatch,
                                                   n_annotated):
        monkeypatch.setattr(model_module, "CELLS", 28)
        model, corpus = gold_corpus(n_annotated)
        assert any(not s.annotations for s in corpus) == (n_annotated > 1)
        joint = evaluate_oracle(model, corpus, "joint")
        assert joint[1]["accuracy"] == 1.0  # the rigged frame head
        assert joint[2]["counts"]["pred"] > 0  # roles are predicted
        assert evaluate(model, corpus, "fi") == [joint[1]]
        assert evaluate_srl(model, corpus) == joint[2]
        assert evaluate(model, corpus, "joint") == joint
        preps = [model.prepare(s) for s in corpus]
        for task in ("ti", "fi", "srl", "joint"):
            assert dev_metric(model, preps, task) == dev_metric_oracle(
                model, preps, task)

    def test_training_metric_log_equals_the_oracle_run(self, tmp_path,
                                                       monkeypatch):
        sentences, ontology = synth.generate(4, 16)
        logs = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(training, "dev_metric", dev_metric_oracle)
            parser = FrameParser(tiny_config(task="joint", max_epochs=3),
                                 build_vocab(sentences, ontology), ontology)
            path = tmp_path / f"log{patched}.csv"
            training.train(parser, sentences[:10], sentences[10:],
                           log_path=str(path))
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]
        assert len(logs[0].splitlines()) == 4

    @pytest.mark.parametrize("chunk", [2, 4])
    def test_srl_runs_one_bounded_backbone_b_pass_per_chunk(
            self, monkeypatch, chunk):
        monkeypatch.setattr(model_module, "CELLS", 7 * chunk)
        n = 2 * chunk + 1
        model, corpus = gold_corpus(n)
        held = []  # the sentences each target_b call holds targets from
        inner = model.target_b

        def recording(enc, targets, train=False):
            held.append({id(enc.preps[k].sentence) for k, _ in targets})
            return inner(enc, targets, train)

        model.target_b = recording
        lstm = count_backbone_calls(model)
        evaluate_srl(model, corpus)
        assert lstm["b"] == len(held) == math.ceil(n / chunk)
        assert max(map(len, held)) == chunk


def joined(parts):
    """One sentence (S s1 (CC and) s2 ...) of the parts' words, each
    annotation shifted onto the words it covered."""
    trees, tokens, pos, anns = [], [], [], []
    for sent in parts:
        if tokens:
            trees.append("(CC and)")
            tokens.append("and")
            pos.append("CC")
        off = len(tokens)
        trees.append(serialize(sent.tree))
        tokens += sent.tokens
        pos += sent.pos
        anns += [FrameAnnotation([t + off for t in a.target], a.lu, a.frame,
                                 [((s + off, e + off), label)
                                  for (s, e), label in a.elements])
                 for a in sent.annotations]
    return Sentence(tokens=tokens, pos=pos, annotations=anns,
                    tree=parse_bracketed("(S " + " ".join(trees) + ")"))


def test_results_do_not_depend_on_the_cell_budget(monkeypatch):
    raw, ontology = synth.generate(8, 56)
    giant = joined(raw[16:])  # longer than every budget but the last
    corpus = [*raw[:4], joined(raw[4:7]), *raw[7:10], giant,
              joined(raw[10:13]), *raw[13:16]]
    assert len(giant) > 256
    model = FrameParser(tiny_config(), build_vocab(corpus, ontology),
                        ontology)
    model.ti_emit.b.data[:] = [0.0, 2.0, 0.0, 0.0]  # many targets found
    preps = [model.prepare(s) for s in corpus]
    seen = []
    for cells in (1, 16, 256, 10**6):
        monkeypatch.setattr(model_module, "CELLS", cells)
        seen.append((model.parse_many(corpus),
                     evaluate(model, corpus, "joint"),
                     [dev_metric(model, preps, task)
                      for task in ("ti", "fi", "srl", "joint")]))
    assert all(run == seen[0] for run in seen[1:])
    parsed, (ti, fi, srl), _ = seen[0]
    assert any(a.elements for anns, _ in parsed for a in anns)
    assert ti["counts"]["pred"] and srl["counts"]["pred"]
