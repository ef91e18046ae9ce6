import re
from pathlib import Path

from framepath.config import Config
from framepath.corpus import FrameAnnotation, Ontology, Sentence, build_vocab
from framepath import syntax
from framepath.model import FrameParser
from framepath.syntax import parse_bracketed
from framepath.trace import generate_trace


def small_config(**overrides):
    base = dict(token_dim=8, pos_dim=4, gcn_emb_dim=5, gcn_dim=5,
                lstm_hidden=6, lu_dim=4, frame_dim=4, fi_hidden1=5,
                fi_hidden2=4, ai_pr_dim=4, ai_pb_dim=4, ac_dim=4, seed=2)
    base.update(overrides)
    return Config(**base)


def possession_example():
    onto = Ontology(lu_to_frames={"had.v": ["Possession"]},
                    frame_to_elements={"Possession": ["Owner", "Asset"]})
    tree = parse_bracketed(
        "(S (NP (PRP she)) (VP (VBD had) (NP (JJ little) (NN patience))))")
    sent = Sentence(
        tokens=["she", "had", "little", "patience"],
        pos=["PRP", "VBD", "JJ", "NN"], tree=tree,
        annotations=[FrameAnnotation(
            target=[1], lu="had.v", frame="Possession",
            elements=[((0, 0), "Owner"), ((2, 3), "Asset")])])
    return sent, onto


def test_regeneration_byte_identical():
    sent, onto = possession_example()
    model = FrameParser(small_config(), build_vocab([sent], onto), onto)
    assert generate_trace(model, sent) == generate_trace(model, sent)


def test_token_paths_built_once_per_reference(monkeypatch):
    # the path features and the path listing share the tree's memo: the
    # tree pads its family rows once and each reference's paths once
    sent, onto = possession_example()
    model = FrameParser(small_config(), build_vocab([sent], onto), onto)
    built = []

    def counting(groups, inner=syntax.pad_groups):
        built.append([list(map(int, g)) for g in groups])
        return inner(groups)

    monkeypatch.setattr(syntax, "pad_groups", counting)
    generate_trace(model, sent)
    family = [[0, 1, 3], [1, 2], [2], [3, 4, 5], [4], [5, 6, 7], [6], [7]]
    to_root = [[2, 1, 0], [4, 3, 0], [6, 5, 3, 0], [7, 5, 3, 0]]
    to_verb = [[2, 1, 0, 3, 4], [4], [6, 5, 3, 4], [7, 5, 3, 4]]
    assert sorted(built) == sorted([family, to_root, to_verb])


def test_one_token_sentence_lists_l_plus_one_h_matrices():
    onto = Ontology(lu_to_frames={"ran.v": ["Motion"]},
                    frame_to_elements={"Motion": ["Mover"]})
    tree = parse_bracketed("(S (VBD ran))")
    sent = Sentence(tokens=["ran"], pos=["VBD"], tree=tree,
                    annotations=[FrameAnnotation(target=[0], lu="ran.v",
                                                 frame="Motion")])
    for layers in (1, 2, 3):
        model = FrameParser(small_config(gcn_layers=layers),
                            build_vocab([sent], onto), onto)
        text = generate_trace(model, sent)
        heads = re.findall(r"^H(\d+)", text, flags=re.M)
        assert heads == [str(k) for k in range(layers + 1)]


def test_modifier_to_verb_path_lists_four_labels():
    sent, onto = possession_example()
    model = FrameParser(small_config(), build_vocab([sent], onto), onto)
    text = generate_trace(model, sent)
    predicate_section = text.split("== predicate paths")[1]
    line = next(l for l in predicate_section.splitlines()
                if "token 2 (little)" in l)
    assert "4 nodes" in line
    assert line.endswith("JJ -> NP -> VP -> VBD")


def test_shapes_follow_dimension_chain():
    sent, onto = possession_example()
    cfg = small_config()
    model = FrameParser(cfg, build_vocab([sent], onto), onto)
    text = generate_trace(model, sent)
    shapes = dict(re.findall(r"^(\S[^\n]*?)\s+shape \((\d+, \d+)\)",
                             text, flags=re.M))
    n_nodes = len(sent.tree.nodes)
    n = len(sent)
    e_dim = cfg.token_dim + cfg.pos_dim
    assert shapes["H0  (label embeddings)"] == f"{n_nodes}, {cfg.gcn_emb_dim}"
    assert shapes["H1"] == f"{n_nodes}, {cfg.gcn_dim}"
    assert shapes["H2"] == f"{n_nodes}, {cfg.gcn_dim}"
    assert shapes["e (token + pos embeddings)"] == f"{n}, {e_dim}"
    assert shapes["a = LN(BiLSTM(e, p_root) + e)"] == f"{n}, {e_dim}"
    assert shapes["b = LN(BiLSTM(e, p_l) + e)"] == f"{n}, {e_dim}"
    assert shapes["emissions over O/B/I/C"] == f"{n}, 4"


def test_no_gcn_trace_notes_disabled():
    sent, onto = possession_example()
    model = FrameParser(small_config(use_gcn=False),
                        build_vocab([sent], onto), onto)
    text = generate_trace(model, sent)
    assert "gcn disabled" in text
    assert "H0" not in text
    assert "b = LN(BiLSTM(e, p_l) + e)" in text


def test_unannotated_sentence_uses_predictions():
    sent, onto = possession_example()
    bare = Sentence(tokens=sent.tokens, pos=sent.pos, tree=sent.tree)
    model = FrameParser(small_config(), build_vocab([sent], onto), onto)
    text = generate_trace(model, bare)
    assert "predicted targets:" in text
    assert "gold targets:" not in text


def test_worked_example_reproduces_its_quoted_trace(capsys):
    # docs/worked_example.md runs its one Python block and quotes the
    # trace it prints in its plain fenced blocks, each as printed.
    doc = Path(__file__).resolve().parents[1] / "docs" / "worked_example.md"
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", doc.read_text(),
                        re.S | re.M)
    [code] = [text for lang, text in blocks if lang == "python"]
    quoted = [text for lang, text in blocks if not lang]
    assert quoted
    exec(code, {})
    out = capsys.readouterr().out
    assert [text for text in quoted if text not in out] == []
