import pytest

from framepath.evaluation import (
    _span_report,
    dev_metric,
    evaluate,
    evaluate_fi,
    evaluate_srl,
    evaluate_ti,
    fi_accuracy,
)

from test_model import count_backbone_calls, make_model, make_sentence


def report_prf(gold, pred):
    """P/R/F1 of the report evaluate_ti and evaluate_srl return."""
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
        rep = evaluate_fi(model, [sent, sent])
        assert rep["counts"]["total"] == 4
        assert rep["accuracy"] == rep["counts"]["correct"] / 4

    def test_unannotated_only_corpus(self):
        from framepath.corpus import Sentence
        model, sent = make_model()
        bare = Sentence(tokens=sent.tokens, pos=sent.pos, tree=sent.tree)
        assert evaluate_fi(model, [bare])["accuracy"] == 1.0
        srl = evaluate_srl(model, [bare])
        assert (srl["precision"], srl["recall"], srl["f1"]) == (1.0, 1.0, 1.0)
        ti = evaluate_ti(model, [bare])
        assert ti["counts"]["gold"] == 0

    def test_dev_metric_joint_is_mean(self):
        model, sent = make_model()
        fi = evaluate_fi(model, [sent])["accuracy"]
        srl = evaluate_srl(model, [sent])["f1"]
        got = dev_metric(model, [sent], "joint")
        assert abs(got - 0.5 * (fi + srl)) < 1e-12

    def test_evaluate_srl_runs_backbone_b_once(self):
        model, sent = make_model()
        calls = count_backbone_calls(model)
        evaluate_srl(model, [sent, sent])
        assert calls == {"a": 2, "b": 1}

    def test_dev_metric_unknown_task(self):
        model, sent = make_model()
        with pytest.raises(ValueError):
            dev_metric(model, [sent], "parse")
