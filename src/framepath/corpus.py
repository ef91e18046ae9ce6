"""Corpus containers, JSONL IO, the tag codec, ontology, and vocabularies.

A corpus file holds one JSON object per line:

    {"tokens": [...], "pos": [...], "tree": "(S ...)",
     "annotations": [{"target": [1], "lu": "try.v", "frame": "Attempt",
                      "elements": [{"span": [0, 0], "label": "Agent"}]}]}

Spans are inclusive [start, end] token index pairs.  Targets are sorted
token index lists and may be discontinuous.  One O/B/I/C codec tags
both; spans use its O/B/I subset, the IOB2 chunk tags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .syntax import ConstTree, TreeSyntaxError, parse_bracketed, serialize

UNK = "<unk>"

# Tag ids for target spans (O outside, B begin, I inside, C continuation
# of a discontinuous target after a gap).
O, B, I, C = 0, 1, 2, 3


class CorpusError(ValueError):
    """Raised when a corpus or ontology file fails validation."""


@dataclass
class FrameAnnotation:
    target: list[int]
    lu: str
    frame: str
    elements: list[tuple[tuple[int, int], str]] = field(default_factory=list)


@dataclass
class Sentence:
    tokens: list[str]
    pos: list[str]
    tree: ConstTree
    annotations: list[FrameAnnotation] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)


# ---------------------------------------------------------------------------
# tag codec

def encode_iobc(targets: Sequence[Sequence[int]], n: int) -> list[int]:
    """Tag a sentence of length n with its target index sets.

    Each target's first token gets B; later tokens get I when contiguous
    with the previous target token and C after a gap.  Raises when the
    targets overlap or when the tagging would not decode back to the same
    sets (interleaved discontinuous targets cannot be represented).
    """
    tags = [O] * n
    seen: set[int] = set()
    norm = [sorted(t) for t in targets]
    for t in norm:
        if not t:
            raise ValueError("empty target index set")
        if t[0] < 0 or t[-1] >= n:
            raise ValueError(f"target index out of range for n={n}: {t}")
        if seen & set(t):
            raise ValueError(f"overlapping targets at indices {sorted(seen & set(t))}")
        seen |= set(t)
        for k, idx in enumerate(t):
            if k == 0:
                tags[idx] = B
            elif idx == t[k - 1] + 1:
                tags[idx] = I
            else:
                tags[idx] = C
    if decode_iobc(tags) != sorted(norm):
        raise ValueError("interleaved discontinuous targets cannot be tagged")
    return tags


def decode_iobc(tags: Sequence[int]) -> list[list[int]]:
    """Recover target index sets from a tag sequence.

    Total over arbitrary sequences: a stray I or C (no open target to
    extend) starts a new target.  Returned sets are sorted by first index.
    """
    targets: list[list[int]] = []
    cur: list[int] | None = None
    for i, tag in enumerate(tags):
        if tag == B:
            cur = [i]
            targets.append(cur)
        elif tag == I:
            if cur is not None and cur[-1] == i - 1:
                cur.append(i)
            else:
                cur = [i]
                targets.append(cur)
        elif tag == C:
            if cur is not None:
                cur.append(i)
            else:
                cur = [i]
                targets.append(cur)
    return sorted(targets)


def lu_key(tokens: Sequence[str], target: Sequence[int], pos: Sequence[str]) -> str:
    """Lexical-unit key for a target: joined lowercased words + POS letter.

    The suffix letter comes from the coarse part of speech of the first
    target token ("picked up" tagged VBD/RP gives "picked up.v").
    """
    words = " ".join(tokens[i].lower() for i in sorted(target))
    first_pos = pos[sorted(target)[0]]
    coarse = {"V": "v", "N": "n", "J": "a", "R": "adv", "I": "prep"}
    return f"{words}.{coarse.get(first_pos[:1], first_pos[:1].lower())}"


def _id(ids: dict[str, int], key: str, unknown: str) -> int:
    """ids[key]; a key not in ids raises KeyError(unknown.format(key))."""
    if key not in ids:
        raise KeyError(unknown.format(key))
    return ids[key]


# ---------------------------------------------------------------------------
# ontology

@dataclass
class Ontology:
    """Lexicon mapping lexical units to frames and frames to role labels;
    it owns the frame, role and lexical-unit inventories and their ids."""

    lu_to_frames: dict[str, list[str]]
    frame_to_elements: dict[str, list[str]]
    frames: list[str] = field(init=False)
    fes: list[str] = field(init=False)
    lus: list[str] = field(init=False)

    def __post_init__(self):
        for name in ("lu_to_frames", "frame_to_elements"):
            mapping = getattr(self, name)
            if not isinstance(mapping, dict) or not all(
                    isinstance(v, list) and all(isinstance(x, str) for x in v)
                    for v in mapping.values()):
                raise CorpusError(f"{name} must map names to lists of strings")
        self.lu_to_frames = {k: sorted(set(v)) for k, v in self.lu_to_frames.items()}
        self.frame_to_elements = {
            k: sorted(set(v)) for k, v in self.frame_to_elements.items()
        }
        for lu, frames in self.lu_to_frames.items():
            if not frames:
                raise CorpusError(f"lexical unit {lu!r} licenses no frames")
            for f in frames:
                if f not in self.frame_to_elements:
                    raise CorpusError(
                        f"lexical unit {lu!r} references unknown frame {f!r}"
                    )
        for frame, roles in self.frame_to_elements.items():
            if not roles:
                raise CorpusError(f"frame {frame!r} licenses no roles")
        self.frames = sorted(self.frame_to_elements)
        self.fes = sorted({e for v in self.frame_to_elements.values() for e in v})
        self.lus = sorted(self.lu_to_frames)
        self._ids = {name: {s: i for i, s in enumerate(getattr(self, name))}
                     for name in ("frames", "fes", "lus")}

    @classmethod
    def from_dict(cls, data: dict) -> "Ontology":
        if not isinstance(data, dict) or set(data) != {"lu_to_frames",
                                                       "frame_to_elements"}:
            raise CorpusError("expected keys lu_to_frames and frame_to_elements")
        return cls(data["lu_to_frames"], data["frame_to_elements"])

    def frame_id(self, frame: str) -> int:
        return _id(self._ids["frames"], frame, "unknown frame {!r}")

    def fe_id(self, fe: str) -> int:
        return _id(self._ids["fes"], fe, "unknown role label {!r}")

    def lu_id(self, lu: str) -> int:
        return _id(self._ids["lus"], lu, "unknown lexical unit {!r}")

    def frame_mask(self, lu: str) -> np.ndarray:
        """Boolean vector over the frame inventory: frames licensed by lu."""
        return np.isin(self.frames, self.lu_to_frames[lu])

    def fe_mask(self, frame: str) -> np.ndarray:
        """Boolean vector over the role inventory: roles licensed by frame."""
        return np.isin(self.fes, self.frame_to_elements[frame])

    def to_dict(self) -> dict:
        return {
            "lu_to_frames": self.lu_to_frames,
            "frame_to_elements": self.frame_to_elements,
        }


def load_ontology(path: str) -> Ontology:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as e:  # also a file that is not UTF-8
            raise CorpusError(f"{path}: invalid JSON: {e}") from e
    try:
        return Ontology.from_dict(data)
    except CorpusError as e:
        raise CorpusError(f"{path}: {e}") from e


def save_ontology(ontology: Ontology, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(ontology.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# corpus IO

def _field(obj, key: str, kind: type, where: str, default=None):
    """obj[key] (default if given and key is absent), checked to be a kind."""
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: expected a JSON object, got {obj!r}")
    if key not in obj and default is None:
        raise CorpusError(f"{where}: missing field {key!r}")
    value = obj.get(key, default)
    if not isinstance(value, kind):
        raise CorpusError(
            f"{where}: field {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _indices(value) -> bool:
    return isinstance(value, list) and all(type(i) is int for i in value)


def _sentence_from_dict(obj: dict, where: str, ontology: Ontology | None) -> Sentence:
    tokens = _field(obj, "tokens", list, where)
    pos = _field(obj, "pos", list, where)
    try:
        tree = parse_bracketed(_field(obj, "tree", str, where))
    except TreeSyntaxError as e:
        raise CorpusError(f"{where}: bad tree: {e}") from e
    if tree.tokens() != tokens:
        raise CorpusError(
            f"{where}: tree leaves {tree.tokens()!r} do not match tokens {tokens!r}"
        )
    if len(pos) != len(tokens):
        raise CorpusError(f"{where}: {len(pos)} pos tags for {len(tokens)} tokens")
    tree_pos = [tree.nodes[k].label for k in tree.preterminal_order]
    if tree_pos != pos:
        raise CorpusError(
            f"{where}: preterminal labels {tree_pos!r} do not match pos {pos!r}"
        )

    annotations = []
    n = len(tokens)
    for a_idx, ann in enumerate(_field(obj, "annotations", list, where, [])):
        loc = f"{where}, annotation {a_idx}"
        target = _field(ann, "target", list, loc)
        lu, frame = _field(ann, "lu", str, loc), _field(ann, "frame", str, loc)
        if not (_indices(target) and target and 0 <= min(target)
                and max(target) < n):
            raise CorpusError(f"{loc}: bad target indices {target!r}")
        target = sorted(target)
        if len(set(target)) != len(target):
            raise CorpusError(f"{loc}: duplicate target indices")
        elements = []
        spans_seen: list[tuple[int, int]] = []
        for el in _field(ann, "elements", list, loc, []):
            if not (isinstance(el, dict) and set(el) == {"span", "label"}
                    and _indices(el["span"]) and len(el["span"]) == 2
                    and isinstance(el["label"], str)):
                raise CorpusError(f"{loc}: element needs a [start, end] span "
                                  f"and a label string, got {el!r}")
            start, end = el["span"]
            if not (0 <= start <= end < n):
                raise CorpusError(f"{loc}: span {el['span']!r} out of range")
            for s2, e2 in spans_seen:
                if start <= e2 and s2 <= end:
                    raise CorpusError(
                        f"{loc}: span ({start}, {end}) overlaps ({s2}, {e2})"
                    )
            spans_seen.append((start, end))
            elements.append(((start, end), el["label"]))
        if ontology is not None:
            if lu not in ontology.lu_to_frames:
                raise CorpusError(f"{loc}: unknown lexical unit {lu!r}")
            if frame not in ontology.lu_to_frames[lu]:
                raise CorpusError(
                    f"{loc}: frame {frame!r} not licensed by {lu!r}")
            licensed = set(ontology.frame_to_elements[frame])
            for _, label in elements:
                if label not in licensed:
                    raise CorpusError(
                        f"{loc}: role {label!r} not licensed by frame "
                        f"{frame!r}"
                    )
        elements.sort()
        annotations.append(FrameAnnotation(target=target, lu=lu, frame=frame,
                                           elements=elements))
    try:  # targets that overlap or interleave have no target tagging
        encode_iobc([ann.target for ann in annotations], n)
    except ValueError as e:
        raise CorpusError(f"{where}: {e}") from e
    return Sentence(tokens=tokens, pos=pos, tree=tree, annotations=annotations)


def sentence_to_dict(sent: Sentence) -> dict:
    return {
        "tokens": sent.tokens,
        "pos": sent.pos,
        "tree": serialize(sent.tree),
        "annotations": [
            {
                "target": ann.target,
                "lu": ann.lu,
                "frame": ann.frame,
                "elements": [
                    {"span": [s, e], "label": lab} for (s, e), lab in ann.elements
                ],
            }
            for ann in sent.annotations
        ],
    }


def load_corpus(path: str, ontology: Ontology | None = None,
                vocab: Vocab | None = None) -> list[Sentence]:
    """Read a JSONL corpus; errors carry the 1-based line number.

    With an ontology, annotations are checked against it (known lexical
    units, licensed frames and roles); with a vocab, every POS tag and
    constituent label must be in it.
    """
    sentences = []
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()  # at \n, \r\n and \r, as text mode
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            obj = json.loads(line)
        except ValueError as e:  # not UTF-8, or not JSON
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {e}") from e
        sent = _sentence_from_dict(obj, f"{path}:{lineno}", ontology)
        if vocab is not None:
            try:
                for tag in sent.pos:
                    vocab.pos_id(tag)
                for node in sent.tree.nodes:
                    vocab.label_id(node.label)
            except KeyError as e:
                raise CorpusError(f"{path}:{lineno}: {e.args[0]}") from e
        sentences.append(sent)
    return sentences


def save_corpus(sentences: Sequence[Sentence], path: str) -> None:
    with open(path, "w") as fh:
        for sent in sentences:
            fh.write(json.dumps(sentence_to_dict(sent)) + "\n")


# ---------------------------------------------------------------------------
# vocabularies

@dataclass
class Vocab:
    """Deterministic string-to-id tables of what a training corpus
    closes, shared by model and checkpoints (the ontology owns the frame,
    role and lexical-unit tables).

    tokens[0] is the unknown-word entry; the other tables are closed
    (an unseen part of speech or constituent label is an error, since its
    embedding was never trained).
    """

    tokens: list[str]
    pos: list[str]
    labels: list[str]

    def __post_init__(self):
        self._ids = {}
        for f in fields(self):
            table = getattr(self, f.name)
            if not isinstance(table, list) or not all(
                    isinstance(s, str) for s in table):
                raise ValueError(f"{f.name} must be a list of strings")
            self._ids[f.name] = {s: i for i, s in enumerate(table)}
            if len(self._ids[f.name]) != len(table):
                raise ValueError(f"duplicate entries in {f.name} vocabulary")
        if self.tokens[:1] != [UNK]:
            raise ValueError(f"tokens[0] must be {UNK!r}")

    def token_id(self, token: str) -> int:
        return self._ids["tokens"].get(token, 0)

    def pos_id(self, tag: str) -> int:
        return _id(self._ids["pos"], tag,
                   "part of speech {!r} not in training vocabulary")

    def label_id(self, label: str) -> int:
        return _id(self._ids["labels"], label,
                   "constituent label {!r} not in training vocabulary")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Vocab":
        """Other keys (older checkpoints' frame, role and lu tables) are
        not read."""
        try:
            return cls(**{f.name: data[f.name] for f in fields(cls)})
        except KeyError as e:
            raise ValueError(f"no {e} table") from e


def build_vocab(sentences: Sequence[Sentence], ontology: Ontology) -> Vocab:
    """Closed vocabularies from a training corpus.  The ontology is not
    read: it owns the frame, role and lexical-unit inventories itself.
    The argument stays because callers pass it, the acceptance tests
    and the benchmark harness among them."""
    tokens: set[str] = set()
    pos: set[str] = set()
    labels: set[str] = set()
    for sent in sentences:
        tokens.update(sent.tokens)
        pos.update(sent.pos)
        labels.update(node.label for node in sent.tree.nodes)
    return Vocab(
        tokens=[UNK] + sorted(tokens),
        pos=sorted(pos),
        labels=sorted(labels),
    )
