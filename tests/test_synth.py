import hashlib

import pytest

from framepath.corpus import (
    build_vocab,
    load_corpus,
    load_ontology,
    save_corpus,
    save_ontology,
)
from framepath.synth import generate, make_ontology


def depth(tree) -> int:
    """Maximum number of edges from the root to any node."""
    def up(k):
        parent = tree.nodes[k].parent
        return 0 if parent is None else 1 + up(parent)
    return max(up(k) for k in range(len(tree.nodes)))


def constituent_spans(tree):
    """Token span (min, max) covered by each node."""
    token_of = {node_id: i for i, node_id in enumerate(tree.preterminal_order)}
    spans = {}

    def walk(i):
        node = tree.nodes[i]
        if node.is_preterminal:
            spans[i] = (token_of[i], token_of[i])
            return spans[i]
        lo, hi = len(tree.preterminal_order), -1
        for c in node.children:
            s, e = walk(c)
            lo, hi = min(lo, s), max(hi, e)
        spans[i] = (lo, hi)
        return spans[i]

    walk(tree.root_index)
    return set(spans.values())


def test_same_seed_byte_identical(tmp_path):
    digests = []
    for run in range(2):
        sents, onto = generate(7, 40)
        cp = tmp_path / f"c{run}.jsonl"
        op = tmp_path / f"o{run}.json"
        save_corpus(sents, str(cp))
        save_ontology(onto, str(op))
        h = hashlib.sha256(cp.read_bytes() + op.read_bytes()).hexdigest()
        digests.append(h)
    assert digests[0] == digests[1]


def test_different_seeds_differ(tmp_path):
    a, _ = generate(1, 25)
    b, _ = generate(2, 25)
    assert [s.tokens for s in a] != [s.tokens for s in b]


def test_generated_corpus_passes_validation(tmp_path):
    sents, onto = generate(3, 50)
    cp, op = tmp_path / "c.jsonl", tmp_path / "o.json"
    save_corpus(sents, str(cp))
    save_ontology(onto, str(op))
    loaded = load_corpus(str(cp), ontology=load_ontology(str(op)))
    assert len(loaded) == 50
    for orig, back in zip(sents, loaded):
        assert back.tokens == orig.tokens
        assert back.pos == orig.pos
        assert [a.target for a in back.annotations] == \
            [a.target for a in orig.annotations]


def test_every_role_span_is_a_constituent(tmp_path):
    sents, _ = generate(11, 60)
    for sent in sents:
        spans = constituent_spans(sent.tree)
        for ann in sent.annotations:
            for span, _ in ann.elements:
                assert span in spans, (sent.tokens, span)


def test_structural_minimums():
    sents, onto = generate(5, 80)
    labels = {n.label for s in sents for n in s.tree.nodes
              if not n.is_preterminal}
    pos = {p for s in sents for p in s.pos}
    assert len(labels) >= 8
    assert len(pos) >= 10
    assert len(onto.lus) >= 6
    assert len(onto.frames) >= 4
    assert len(onto.fes) >= 6
    assert any(len(f) >= 2 for f in onto.lu_to_frames.values())
    for s in sents:
        assert 1 <= len(s.annotations) <= 2
        assert depth(s.tree) <= 5


def test_attachment_pair_shares_surface_shape():
    # both readings of the sell template must occur, and within each
    # (adjective pattern, length) surface class both role shapes appear
    sents, _ = generate(13, 300)
    by_surface = {}
    for s in sents:
        if s.annotations[0].frame != "Commerce_sell":
            continue
        key = (len(s), tuple(s.pos))
        has_place = any(lbl == "Place" for _, lbl in
                        s.annotations[0].elements)
        by_surface.setdefault(key, set()).add(has_place)
    assert by_surface
    both = [k for k, v in by_surface.items() if v == {True, False}]
    assert both, "no surface class realized with both attachments"


def test_discontinuous_target_present():
    sents, _ = generate(17, 120)
    discont = [a for s in sents for a in s.annotations if len(a.target) == 2]
    assert discont
    for ann in discont:
        assert ann.lu == "picked up.v"
        assert ann.target[1] - ann.target[0] >= 2


def test_vocab_buildable():
    sents, onto = generate(19, 40)
    v = build_vocab(sents, onto)
    assert v.tokens[0] == "<unk>"
    assert set(v.pos) == {p for s in sents for p in s.pos}
    assert [onto.frame_id(f) for f in onto.frames] == list(
        range(len(onto.frames)))


def test_bad_n_rejected():
    with pytest.raises(ValueError):
        generate(0, 0)
