import copy
import itertools
import json
import random

import numpy as np
import pytest

from framepath.corpus import (
    CorpusError,
    FrameAnnotation,
    Ontology,
    Sentence,
    Vocab,
    build_vocab,
    decode_iobc,
    encode_iobc,
    load_corpus,
    load_ontology,
    lu_key,
    save_corpus,
    save_ontology,
    sentence_to_dict,
    _sentence_from_dict,
)
from framepath.synth import generate
from framepath.syntax import parse_bracketed

from helpers import WRONG_VALUES, decode_iob2, encode_iob2, json_slots

O, B, I, C = 0, 1, 2, 3


def make_ontology() -> Ontology:
    return Ontology(
        lu_to_frames={"try.v": ["Attempt"], "put.v": ["Placing"]},
        frame_to_elements={
            "Attempt": ["Agent", "Goal"],
            "Placing": ["Agent", "Theme", "Goal"],
        },
    )


def make_sentence() -> Sentence:
    tree = parse_bracketed(
        "(S (NP (PRP They)) (VP (VBD tried) (NP (DT a) (NN route))))"
    )
    return Sentence(
        tokens=["They", "tried", "a", "route"],
        pos=["PRP", "VBD", "DT", "NN"],
        tree=tree,
        annotations=[
            FrameAnnotation(
                target=[1], lu="try.v", frame="Attempt",
                elements=[((0, 0), "Agent"), ((2, 3), "Goal")],
            )
        ],
    )


class TestIobc:
    def test_discontinuous_target(self):
        # One single-token target at 1 and one gapped target {2, 4}: the
        # token inside the gap stays O and the resumption is tagged C.
        assert encode_iobc([[1], [2, 4]], 5) == [O, B, B, O, C]

    def test_contiguous_target(self):
        assert encode_iobc([[1, 2]], 4) == [O, B, I, O]

    def test_roundtrip_random(self):
        # Targets drawn from disjoint ordered windows are always
        # representable; encode->decode must be the identity on them.
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 15))
            targets = []
            i = 0
            while i < n:
                width = int(rng.integers(1, 4))
                end = min(i + width - 1, n - 1)
                member = [i] + [k for k in range(i + 1, end + 1)
                                if rng.random() < 0.6]
                if rng.random() < 0.7:
                    targets.append(member)
                i = end + int(rng.integers(1, 3))
            tags = encode_iobc(targets, n)
            assert decode_iobc(tags) == sorted(targets)

    def test_decoded_targets_always_reencode(self):
        # Corpora written by `framepath predict` hold decoded targets
        # (some dropped for lacking a lexical unit), and loading checks
        # every sentence's targets with encode_iobc: any decoded set, or
        # subset of one, must encode and decode back to itself.
        rng = np.random.default_rng(23)
        for _ in range(2000):
            n = int(rng.integers(1, 12))
            targets = decode_iobc(rng.integers(0, 4, n).tolist())
            kept = [t for t in targets if rng.random() < 0.5]
            for chosen in (targets, kept):
                assert decode_iobc(encode_iobc(chosen, n)) == chosen

    def test_decode_stray_i_starts_target(self):
        assert decode_iobc([O, I, I, O]) == [[1, 2]]

    def test_decode_stray_c_starts_target(self):
        assert decode_iobc([C, O, O]) == [[0]]

    def test_decode_i_after_gap_starts_target(self):
        # I is only a continuation when adjacent to the open target.
        assert decode_iobc([B, O, I]) == [[0], [2]]

    def test_decode_c_then_i_extends(self):
        assert decode_iobc([B, O, C, I]) == [[0, 2, 3]]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            encode_iobc([[1, 2], [2, 3]], 5)

    def test_interleaved_rejected(self):
        with pytest.raises(ValueError, match="interleaved"):
            encode_iobc([[0, 4], [2]], 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_iobc([[5]], 5)


def encode_spans(spans, n):
    """Argument-span tags, as FrameParser.prepare makes them."""
    return encode_iobc([range(s, e + 1) for s, e in spans], n)


def decode_spans(tags):
    """Spans of O/B/I tags, as FrameParser.srl_predict reads them."""
    return [(t[0], t[-1]) for t in decode_iobc(tags)]


def random_spans(rng, n):
    """Sorted disjoint spans of a sentence of length n, adjacent ones
    included."""
    spans = []
    i = 0
    while i < n:
        end = min(i + int(rng.integers(0, 3)), n - 1)
        if rng.random() < 0.6:
            spans.append((i, end))
        i = end + int(rng.integers(1, 3))
    return spans


class TestIob2:
    """Argument spans are tagged with the O/B/I subset of the IOBC codec."""

    def test_encode(self):
        assert encode_spans([(1, 2), (4, 4)], 6) == [0, 1, 2, 0, 1, 0]

    def test_adjacent_spans_stay_separate(self):
        tags = encode_spans([(0, 1), (2, 2)], 3)
        assert tags == [1, 2, 1]
        assert decode_spans(tags) == [(0, 1), (2, 2)]

    def test_roundtrip_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 15))
            spans = random_spans(rng, n)
            assert decode_spans(encode_spans(spans, n)) == spans

    def test_stray_i_opens_span(self):
        assert decode_spans([0, 2, 2, 0]) == [(1, 2)]

    def test_span_runs_to_sentence_end(self):
        assert decode_spans([0, 1, 2]) == [(1, 2)]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            encode_spans([(0, 2), (2, 3)], 5)

    def test_span_reading_equals_iob2_decoder_on_every_sequence(self):
        for n in range(9):
            for tags in itertools.product(range(3), repeat=n):
                assert decode_spans(tags) == decode_iob2(tags), tags

    def test_span_tags_equal_iob2_encoder(self):
        cases = [([(1, 2), (4, 4)], 6), ([(0, 1), (2, 2)], 3),
                 ([(1, 2)], 4), ([(1, 2)], 3), ([], 4), ([(0, 4)], 5)]
        rng = np.random.default_rng(12)
        for _ in range(2000):
            n = int(rng.integers(1, 15))
            cases.append((random_spans(rng, n), n))
        for spans, n in cases:
            assert encode_spans(spans, n) == encode_iob2(spans, n), spans


class TestLuKey:
    def test_verb(self):
        assert lu_key(["They", "Tried", "it"], [1], ["PRP", "VBD", "PRP"]) == "tried.v"

    def test_discontinuous_multiword(self):
        tokens = ["She", "picked", "it", "up"]
        pos = ["PRP", "VBD", "PRP", "RP"]
        assert lu_key(tokens, [3, 1], pos) == "picked up.v"

    def test_noun(self):
        assert lu_key(["the", "market"], [1], ["DT", "NN"]) == "market.n"


class TestOntology:
    def test_masks(self):
        ont = make_ontology()
        assert ont.frames == ["Attempt", "Placing"]
        assert ont.fes == ["Agent", "Goal", "Theme"]
        assert ont.frame_mask("try.v").tolist() == [True, False]
        assert ont.fe_mask("Attempt").tolist() == [True, True, False]
        assert ont.fe_mask("Placing").tolist() == [True, True, True]

    def test_unknown_lookups(self):
        ont = make_ontology()
        with pytest.raises(KeyError):
            ont.frame_mask("fly.v")
        with pytest.raises(KeyError):
            ont.fe_mask("Motion")

    def test_lu_with_unknown_frame_rejected(self):
        with pytest.raises(CorpusError, match="unknown frame"):
            Ontology({"go.v": ["Motion"]}, {"Attempt": ["Agent"]})

    def test_lu_with_no_frames_rejected(self):
        with pytest.raises(CorpusError, match="licenses no frames"):
            Ontology({"go.v": []}, {})

    def test_file_roundtrip(self, tmp_path):
        ont = make_ontology()
        p = tmp_path / "ontology.json"
        save_ontology(ont, str(p))
        again = load_ontology(str(p))
        assert again.lu_to_frames == ont.lu_to_frames
        assert again.frame_to_elements == ont.frame_to_elements

    def test_bad_keys_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"lu_to_frames": {}}')
        with pytest.raises(CorpusError, match="expected keys"):
            load_ontology(str(p))


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        sent = make_sentence()
        p = tmp_path / "corpus.jsonl"
        save_corpus([sent, sent], str(p))
        loaded = load_corpus(str(p), make_ontology())
        assert len(loaded) == 2
        assert loaded[0].tokens == sent.tokens
        assert loaded[0].annotations[0].target == [1]
        assert loaded[0].annotations[0].elements == sent.annotations[0].elements

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        body = json.dumps(
            {"tokens": ["hi"], "pos": ["UH"], "tree": "(UH hi)"}
        )
        p.write_text("\n" + body + "\n\n")
        assert len(load_corpus(str(p))) == 1

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "corpus.jsonl"
        good = json.dumps({"tokens": ["hi"], "pos": ["UH"], "tree": "(UH hi)"})
        p.write_text(good + "\n{not json}\n")
        with pytest.raises(CorpusError, match=":2:"):
            load_corpus(str(p))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d.pop("tree"), "missing field 'tree'"),
            (lambda d: d.update(tokens=["x", "y"]), "do not match tokens"),
            (lambda d: d.update(pos=["PRP"]), "pos tags for"),
            (lambda d: d.update(pos=["NN", "VBD", "DT", "NN"]),
             "do not match pos"),
            (lambda d: d["annotations"][0].update(target=[9]), "bad target"),
            (lambda d: d["annotations"][0]["elements"].append(
                {"span": [0, 9], "label": "Agent"}), "out of range"),
            (lambda d: d["annotations"][0]["elements"].append(
                {"span": [0, 2], "label": "Goal"}), "overlaps"),
        ],
    )
    def test_structural_validation(self, tmp_path, mutate, message):
        from framepath.corpus import sentence_to_dict

        d = sentence_to_dict(make_sentence())
        mutate(d)
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps(d) + "\n")
        with pytest.raises(CorpusError, match=message):
            load_corpus(str(p))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["annotations"][0].update(lu="move.v"),
             "unknown lexical unit"),
            (lambda d: d["annotations"][0].update(frame="Placing"),
             "not licensed by"),
            (lambda d: d["annotations"][0]["elements"][0].update(label="Theme"),
             "not licensed by frame"),
        ],
    )
    def test_ontology_validation(self, tmp_path, mutate, message):
        from framepath.corpus import sentence_to_dict

        d = sentence_to_dict(make_sentence())
        mutate(d)
        p = tmp_path / "corpus.jsonl"
        p.write_text(json.dumps(d) + "\n")
        with pytest.raises(CorpusError, match=message):
            load_corpus(str(p), make_ontology())
        load_corpus(str(p))  # structurally fine without the ontology


    @pytest.mark.parametrize("record", [
        {"tokens": ["hi"], "pos": ["UH"], "tree": 5},
        {"tokens": ["hi"], "pos": None, "tree": "(UH hi)"},
        [1, 2],
    ])
    def test_wrong_types_raise_corpus_error(self, record):
        with pytest.raises(CorpusError, match="f:1: "):
            _sentence_from_dict(record, "f:1", None)

    def test_mutated_lines_raise_only_corpus_error(self):
        # Seeded fuzz: one or two values of a valid record swapped for a
        # value of the wrong type or range, or deleted, load or raise
        # CorpusError, never anything else.
        sents, onto = generate(3, 40)
        records = [sentence_to_dict(s) for s in sents]
        rng = random.Random(11)
        rejected = 0
        for k in range(4000):
            record = copy.deepcopy(rng.choice(records))
            for _ in range(rng.randint(1, 2)):
                owner, key = rng.choice(list(json_slots(record)))
                if isinstance(owner, dict) and rng.random() < 0.15:
                    del owner[key]
                else:
                    owner[key] = copy.deepcopy(rng.choice(WRONG_VALUES))
            try:
                _sentence_from_dict(record, "f:1", onto if k % 2 else None)
            except CorpusError:
                rejected += 1
        assert rejected > 1000


class TestVocab:
    def test_build_is_deterministic_and_sorted(self):
        vocab = build_vocab([make_sentence()], make_ontology())
        assert vocab.tokens[0] == "<unk>"
        assert vocab.tokens == ["<unk>", "They", "a", "route", "tried"]
        assert vocab.pos == ["DT", "NN", "PRP", "VBD"]
        # Node labels cover interior constituents and preterminals alike.
        assert vocab.labels == ["DT", "NN", "NP", "PRP", "S", "VBD", "VP"]
        assert vocab.frames == ["Attempt", "Placing"]

    def test_unknown_token_maps_to_unk(self):
        vocab = build_vocab([make_sentence()], make_ontology())
        assert vocab.token_id("zebra") == 0
        assert vocab.token_id("route") == vocab.tokens.index("route")

    def test_closed_tables_raise(self):
        vocab = build_vocab([make_sentence()], make_ontology())
        with pytest.raises(KeyError):
            vocab.pos_id("XX")
        with pytest.raises(KeyError):
            vocab.label_id("SBAR")
        with pytest.raises(KeyError):
            vocab.frame_id("Motion")

    def test_dict_roundtrip(self):
        vocab = build_vocab([make_sentence()], make_ontology())
        again = Vocab.from_dict(vocab.to_dict())
        assert again == vocab

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocab(tokens=["<unk>", "a", "a"], pos=[], labels=[],
                  frames=[], fes=[], lus=[])

    @pytest.mark.parametrize("table, value, reason", [
        ("pos", [0, 1], "pos must be a list of strings"),
        ("labels", "NPSV", "labels must be a list of strings"),
        ("tokens", ["<unk>", ["x"]], "tokens must be a list of strings"),
        ("tokens", [], r"tokens\[0\] must be '<unk>'"),
    ], ids=["pos-ids", "labels-a-string", "list-in-tokens", "no-tokens"])
    def test_tables_must_be_lists_of_strings(self, table, value, reason):
        tables = dict(tokens=["<unk>"], pos=[], labels=[], frames=[],
                      fes=[], lus=[])
        with pytest.raises(ValueError, match=f"^{reason}$"):
            Vocab(**{**tables, table: value})
