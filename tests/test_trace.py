import re

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
    # the path features and the path listing share the tree's memo
    sent, onto = possession_example()
    model = FrameParser(small_config(), build_vocab([sent], onto), onto)
    built = []

    def counting(tree, i, j, inner=syntax.tree_path):
        built.append((i, j))
        return inner(tree, i, j)

    monkeypatch.setattr(syntax, "tree_path", counting)
    generate_trace(model, sent)
    refs = [sent.tree.root_index, sent.tree.token_node(1)]
    assert sorted(built) == sorted((node, ref) for ref in refs
                                   for node in sent.tree.preterminal_order)


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
