"""Command-line interface.

Subcommands: synth, train, eval, predict, gradcheck.  Exit codes:
0 success, 1 usage error, 2 data or file error, 3 gradient-check
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext

import numpy as np

from . import autodiff as ad
from .autodiff import grad_check
from .config import PRESETS, TASKS, ConfigError, load_config
from .corpus import (
    CorpusError,
    build_vocab,
    load_corpus,
    load_ontology,
    save_corpus,
    save_ontology,
    sentence_to_dict,
)
from .evaluation import evaluate
from .model import TASK_LOSSES, FrameParser
from .syntax import TreeSyntaxError
from .training import TrainingError, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_GRADCHECK = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_model_args(p: _Parser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--seed", type=int)
    p.add_argument("--no-gcn", action="store_true",
                   help="replace path features with zero vectors")


def _add_training_args(p: _Parser) -> None:
    _add_model_args(p)
    p.add_argument("--task", choices=TASKS)
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--stop-metric", type=float, dest="stop_metric")


def _config_from_args(args) -> "Config":
    overrides = {}
    for key in ("preset", "task", "seed", "max_epochs", "batch_size", "lr",
                "dropout", "stop_metric"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "no_gcn", False):
        overrides["use_gcn"] = False
    return load_config(args.config, overrides)


def build_parser() -> _Parser:
    p = _Parser(prog="framepath", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a toy corpus and ontology")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-n", "--n-sentences", type=int, default=100)
    sp.add_argument("--corpus", required=True, help="output JSONL path")
    sp.add_argument("--ontology", required=True, help="output JSON path")

    tp = sub.add_parser("train", help="train a model")
    tp.add_argument("--corpus", required=True)
    tp.add_argument("--ontology", required=True)
    tp.add_argument("--dev", help="dev corpus (defaults to the train corpus)")
    tp.add_argument("--checkpoint", required=True, help="output model path")
    tp.add_argument("--log", help="metric log CSV path")
    _add_training_args(tp)

    ep = sub.add_parser("eval", help="evaluate a checkpoint")
    ep.add_argument("--checkpoint", required=True)
    ep.add_argument("--corpus", required=True)
    ep.add_argument("--task", choices=TASKS,
                    help="fi: frame accuracy on gold targets; srl: role F1 "
                         "on gold targets and frames (default: the "
                         "checkpoint's task)")
    ep.add_argument("--report", help="write the JSON report here")

    pp = sub.add_parser("predict", help="parse a corpus end to end")
    pp.add_argument("--checkpoint", required=True)
    pp.add_argument("--corpus", required=True)
    pp.add_argument("--out", help="output JSONL (default stdout)")

    gp = sub.add_parser("gradcheck",
                        help="finite-difference check of every loss")
    _add_model_args(gp)
    gp.add_argument("--tolerance", type=float, default=1e-4)
    gp.add_argument("--max-checks", type=int, default=800, dest="max_checks",
                    help="probe at most this many values per task")
    return p


def _load_model_and_corpus(args) -> tuple[FrameParser, list]:
    """Load --checkpoint and --corpus; the first sentence with a POS tag or
    constituent label outside the model's vocabulary raises with file:line."""
    model = FrameParser.load(args.checkpoint)
    return model, load_corpus(args.corpus, ontology=model.ontology,
                              vocab=model.vocab)


@contextmanager
def _checkpoint_overflow(checkpoint: str):
    """Report a FloatingPointError raised in the block, which finite
    parameters that overflow a forward pass cause, as a data error
    naming the checkpoint."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except FloatingPointError as e:
        raise CorpusError(f"{checkpoint}: parameters overflow: {e}") from e


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    from .synth import generate
    if args.n_sentences < 1:
        print("need at least one sentence", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print("seed must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    sentences, ontology = generate(args.seed, args.n_sentences)
    save_corpus(sentences, args.corpus)
    save_ontology(ontology, args.ontology)
    print(f"wrote {len(sentences)} sentences to {args.corpus}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _config_from_args(args)
    for path in filter(None, (args.checkpoint, args.log)):  # not after training
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(f"{path}: parent directory does not exist")
    ontology = load_ontology(args.ontology)
    sentences = load_corpus(args.corpus, ontology=ontology)
    vocab = build_vocab(sentences, ontology)
    dev = (load_corpus(args.dev, ontology=ontology, vocab=vocab) if args.dev
           else sentences)
    model = FrameParser(config, vocab, ontology)
    result = train(model, sentences, dev, log_path=args.log)
    model.save(args.checkpoint)
    print(f"best dev metric {result.best_metric:.4f} at epoch "
          f"{result.best_epoch} of {result.epochs_run}")
    print(f"saved {args.checkpoint}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, sentences = _load_model_and_corpus(args)
    if not sentences:  # nothing to score is not a perfect score
        raise CorpusError(f"{args.corpus}: empty corpus")
    with _checkpoint_overflow(args.checkpoint):
        reports = evaluate(model, sentences, args.task or model.config.task)
    text = json.dumps(reports, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_predict(args) -> int:
    model, sentences = _load_model_and_corpus(args)
    for sent in sentences:  # gold is not read, and would outlive parsing
        sent.annotations = []
    with _checkpoint_overflow(args.checkpoint):
        parsed = model.parse_many(sentences)
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        for sent, (annotations, _) in zip(sentences, parsed):
            sent.annotations = annotations  # records reload as a corpus
            out.write(json.dumps(sentence_to_dict(sent)) + "\n")
    if dropped_total := sum(dropped for _, dropped in parsed):
        print(f"warning: dropped {dropped_total} predicted targets with "
              f"unknown lexical units", file=sys.stderr)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    """Check every loss mode on a tiny generated example; exit 3 if any
    gradient misses the tolerance."""
    from .synth import generate
    if args.max_checks < 1 or not 0.0 < args.tolerance < np.inf:
        print("need --max-checks >= 1 and a finite --tolerance > 0",
              file=sys.stderr)
        return EXIT_USAGE
    config = _config_from_args(args)
    config.dropout = 0.0
    sentences, ontology = generate(config.seed, 12)
    sentences = [s for s in sentences if len(s) <= 6][:1]
    if not sentences:
        sentences, _ = generate(config.seed + 1, 40)
        sentences = [s for s in sentences if len(s) <= 6][:1]
    vocab = build_vocab(sentences, ontology)
    model = FrameParser(config, vocab, ontology)
    noise = np.random.default_rng(config.seed)
    for _, entry in model.store.entries():
        entry.tensor.data += noise.normal(0.0, 0.05, entry.tensor.data.shape)
    preps = [model.prepare(s) for s in sentences]
    failed = False
    for task in TASKS:
        params = [e.tensor for _, e in model.trainable_entries(task)]
        worst, report = grad_check(lambda: model.loss(preps, task), params,
                                   max_checks=args.max_checks)
        ok = worst < args.tolerance
        total = sum(p.data.size for p in params)
        print(f"{task}: max relative error {worst:.3e} over "
              f"{len(report)} of {total} values [{'ok' if ok else 'FAIL'}]")
        if not ok:
            failed = True
            for name, idx, a, n, rel in report[:3]:
                print(f"  {name}{list(idx)}: analytic {a:.6e} "
                      f"numeric {n:.6e} rel {rel:.3e}")
    return EXIT_GRADCHECK if failed else EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except (ConfigError,) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, TreeSyntaxError, OSError, json.JSONDecodeError,
            TrainingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
