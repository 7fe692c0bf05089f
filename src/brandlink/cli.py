"""Batch command line surface.

Eight subcommands map one-to-one onto the library operations: build-dict,
gen-corpus, gen-weak-labels, train-xmc, train-pt, link, eval, and bench.
``_COMMANDS`` declares each one once: its help line, its handler and its
options' defaults, a choice option as the tuple of its allowed values.
Options resolve in three layers: built-in defaults, then a JSON object
in a config file given with --config, then explicit flags, later layers
winning.  A choice option must take one of its values, and an option
whose default is an int, float or bool resolves to that type; anything
else is a usage error, under --dry-run too.  --dry-run prints the
resolved configuration and stops.

train-xmc builds its label tree with branching 16, leaves of at most
100 labels and clustering seed 0, and trains every node with the penalty
``DEFAULT_REG`` (1e-3).  link searches with a beam of 10 and keeps the
top 5.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
Failures are reported as single-line diagnostics on stderr.
"""
from __future__ import annotations

import argparse
import json
import logging
import random
import statistics
import sys
import time
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .core import (
    BrandEntityId,
    LabeledQuery,
    LinkResult,
    Query,
    labeled_query_from_record,
    labeled_query_to_record,
    link_result_from_record,
    link_result_to_record,
    query_from_record,
    read_jsonl,
    write_jsonl,
)
from .data import (
    DEFAULT_STRENGTH_THRESHOLD,
    CorpusSpec,
    gen_synthetic_corpus,
    gen_weak_labels,
    read_engagement_jsonl,
)
from .evaluation import (
    false_alarm_rate,
    render_text,
    report,
    write_report_json,
)
from .gazetteer import (
    BrandDictionary,
    TrieDetector,
    build_dictionary,
    load_dictionary,
    read_b2e_tsv,
    save_dictionary,
)
from .linear import DEFAULT_REG, stack_layers
from .pipeline import (
    LexicalMatcher,
    LinkerConfig,
    M2eMatcher,
    link_end_to_end,
    link_fused,
    link_two_stage,
)
from .ptfilter import (
    PtAssociations,
    load_pt_predictor,
    mine_associations,
    read_associations_tsv,
    read_pt_training_jsonl,
    save_pt_predictor,
    train_pt_baseline,
)
from .text import FeaturizerConfig, featurize_corpus, normalize, vectorize
from .xmc import (
    BeamParams,
    XmcModel,
    aggregate_label_features,
    beam_predict,
    build_tree,
    load_model,
    save_model,
    train,
)
from .xmc.tree import unit_rows

LOGGER = logging.getLogger(__name__)


class UsageError(Exception):
    """Bad or missing options; maps to exit code 2."""


_DIM = FeaturizerConfig().dim


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _require(config: dict, command: str, *keys: str) -> None:
    missing = [k for k in keys if config.get(k) is None]
    if missing:
        raise UsageError(f"{command} requires {', '.join(map(_flag, missing))}")


def _as_str_tuple(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(v for v in value.split(",") if v)
    return tuple(value)


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------


def _cmd_build_dict(config: dict) -> int:
    _require(config, "build-dict", "b2e", "out")
    dictionary = build_dictionary(read_b2e_tsv(config["b2e"]))
    save_dictionary(dictionary, config["out"])
    print(
        f"dictionary: {len(dictionary)} surface keys,"
        f" {dictionary.rejected} rows rejected -> {config['out']}"
    )
    return 0


def _cmd_gen_corpus(config: dict) -> int:
    _require(config, "gen-corpus", "out")
    spec = CorpusSpec(
        n_entities=config["entities"],
        surface_variants_per_entity=config["variants"],
        languages=_as_str_tuple(config["languages"]),
        n_branded_queries=config["branded"],
        n_nonbranded_queries=config["nonbranded"],
        pt_space_size=config["pt_types"],
        seed=config["seed"],
    )
    manifest = gen_synthetic_corpus(spec, config["out"])
    counts = ", ".join(f"{k}={v}" for k, v in sorted(manifest["counts"].items()))
    print(f"corpus at {config['out']}: {counts}")
    return 0


def _cmd_gen_weak_labels(config: dict) -> int:
    _require(config, "gen-weak-labels", "logs", "dict", "out")
    dictionary = load_dictionary(config["dict"])
    logs = read_engagement_jsonl(config["logs"])
    labeled = gen_weak_labels(logs, config["threshold"], dictionary)
    count = write_jsonl(
        config["out"], (labeled_query_to_record(ex) for ex in labeled)
    )
    print(f"weak labels: {count} -> {config['out']}")
    return 0


def _read_labeled_files(paths: Iterable[str]) -> list[LabeledQuery]:
    out: list[LabeledQuery] = []
    for path in paths:
        out.extend(labeled_query_from_record(r) for r in read_jsonl(path))
    return out


def _surfaces_by_entity(dictionary: BrandDictionary) -> dict[BrandEntityId, list[str]]:
    table: dict[BrandEntityId, set[str]] = {}
    for key, entities in dictionary.entries.items():
        for entity in entities:
            table.setdefault(entity, set()).add(key.surface)
    return {entity: sorted(surfaces) for entity, surfaces in table.items()}


def _training_pairs(
    examples: Iterable[LabeledQuery], target: str
) -> list[tuple[str, BrandEntityId]]:
    pairs: list[tuple[str, BrandEntityId]] = []
    for example in examples:
        if target == "m2e":
            if not example.is_branded:
                continue
            text = example.brand_names[0]
        else:
            text = example.query.text
        pairs.extend((text, entity) for entity in example.entities)
    return pairs


def _cmd_train_xmc(config: dict) -> int:
    _require(config, "train-xmc", "train", "dict", "out")
    examples = _read_labeled_files(_as_str_tuple(config["train"]))
    pairs = _training_pairs(examples, config["target"])
    if not pairs:
        raise ValueError("no usable training examples")

    featurizer, vectors = featurize_corpus(
        [normalize(text) for text, _ in pairs], FeaturizerConfig(dim=config["dim"])
    )
    featurized = [(vec, label) for vec, (_, label) in zip(vectors, pairs)]

    labels = sorted({label for _, label in pairs}, key=lambda e: e.id)
    surfaces = _surfaces_by_entity(load_dictionary(config["dict"]))
    inputs: dict[BrandEntityId, list] = {}
    for vec, label in featurized:
        inputs.setdefault(label, []).append(vec)
    space = aggregate_label_features(labels, surfaces, inputs, featurizer)
    tree = build_tree(space)
    model = train(featurized, space, tree, featurizer=featurizer)
    save_model(model, config["out"])
    print(
        f"{config['target']} model: {len(labels)} labels,"
        f" layers {list(tree.layer_sizes)},"
        f" {model.stats['examples']} examples -> {config['out']}"
    )
    return 0


def _cmd_train_pt(config: dict) -> int:
    _require(config, "train-pt", "train", "out")
    rows = list(read_pt_training_jsonl(config["train"]))
    featurizer, vectors = featurize_corpus(
        [normalize(query.text) for query, _ in rows], FeaturizerConfig(dim=config["dim"])
    )
    pairs = zip(vectors, (pt for _, pt in rows))
    predictor = train_pt_baseline(pairs, featurizer, config["reg"])
    save_pt_predictor(predictor, config["out"])
    print(
        f"pt model: {len(predictor.product_types)} types,"
        f" {len(rows)} rows -> {config['out']}"
    )
    return 0


def _linker_from_config(config: dict) -> LinkerConfig:
    mode = config["mode"]
    matcher = detector = q2e = pt_predictor = None
    matcher_kind = config["fused_matcher"] if mode == "fused" else mode
    if matcher_kind != "q2e":
        _require(config, "link", "dict", *(("m2e_model",) if matcher_kind == "m2e" else ()))
        dictionary = load_dictionary(config["dict"])
        detector = TrieDetector(dictionary)
        if matcher_kind == "m2e":
            matcher = M2eMatcher(load_model(config["m2e_model"]))
        else:
            matcher = LexicalMatcher(dictionary)
    if mode in ("q2e", "fused"):
        _require(config, "link", "q2e_model")
        q2e = load_model(config["q2e_model"])
    if config["pt_model"] is not None:
        pt_predictor = load_pt_predictor(config["pt_model"])
    associations = PtAssociations.empty()
    if config["associations"] is not None:
        associations = mine_associations(read_associations_tsv(config["associations"]))
    return LinkerConfig(
        detector=detector,
        matcher=matcher,
        q2e=q2e,
        pt_predictor=pt_predictor,
        associations=associations,
        fusion=(mode == "fused"),
    )


def _read_queries(path: str) -> list[Query]:
    queries = []
    for record in read_jsonl(path):
        if "query" in record:
            record = record["query"]
        queries.append(query_from_record(record))
    return queries


# One linker function per --mode; the first is the default.
_LINK_FNS: dict[str, Callable[[LinkerConfig, Query], LinkResult]] = {
    "lexical": link_two_stage,
    "m2e": link_two_stage,
    "q2e": link_end_to_end,
    "fused": link_fused,
}


def _cmd_link(config: dict) -> int:
    _require(config, "link", "queries", "out")
    linker = _linker_from_config(config)
    link = _LINK_FNS[config["mode"]]
    queries = _read_queries(config["queries"])
    count = write_jsonl(
        config["out"], (link_result_to_record(link(linker, q)) for q in queries)
    )
    print(f"linked {count} queries ({config['mode']}) -> {config['out']}")
    return 0


# One slice function per --slice; the first is the default.
_SLICE_FNS: dict[str, Callable[[LabeledQuery], str]] = {
    "none": lambda example: "all",
    "language": lambda example: example.query.language or "unknown",
    "store": lambda example: example.query.store.code,
}


def _cmd_eval(config: dict) -> int:
    _require(config, "eval", "gold", "results")
    gold = _read_labeled_files([config["gold"]])
    results = [link_result_from_record(r) for r in read_jsonl(config["results"])]
    if len(gold) != len(results):
        raise ValueError(
            f"gold has {len(gold)} records, results {len(results)}; cannot pair"
        )
    pairs = list(zip(gold, results))
    if config["false_alarm"]:
        rate = false_alarm_rate(pairs)
        print(f"false_alarm_rate: {rate:.2f}")
        if config["report"] is not None:
            with open(config["report"], "w", encoding="utf-8") as handle:
                json.dump(
                    {"schema_version": 1, "false_alarm_rate": round(rate, 2)},
                    handle,
                    sort_keys=True,
                )
                handle.write("\n")
        return 0
    metric_report = report(_SLICE_FNS[config["slice"]], pairs)
    sys.stdout.write(render_text(metric_report))
    if config["report"] is not None:
        write_report_json(metric_report, config["report"])
    return 0


# ---------------------------------------------------------------------------
# Bench: beam inference latency across label-space sizes.
# ---------------------------------------------------------------------------


def _bench_names(rng: random.Random, count: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    names = set()
    while len(names) < count:
        name = "".join(rng.choice(letters) for _ in range(rng.randint(6, 12)))
        names.add(name)
    return sorted(names)


def _centroid_model(n_labels: int, featurizer: FeaturizerConfig) -> XmcModel:
    """Untrained stand-in scorer with the tree shape of a trained model.

    Node weights are the unit-normalized sums of their labels' surface
    features, built without the training time.  The stand-in matches a
    trained model's tree, not its weight count: a trained node also
    weighs the features of its training queries, and at 50k labels a
    trained m2e model holds 22.6M weights against the stand-in's 3.4M
    and takes 2.3 times its beam p50.
    """
    names = _bench_names(random.Random(0), n_labels)
    labels = tuple(BrandEntityId(f"B{i:06d}") for i in range(n_labels))
    surfaces = {
        label: [names[i], names[i][: max(3, len(names[i]) // 2)]]
        for i, label in enumerate(labels)
    }
    space = aggregate_label_features(labels, surfaces, {}, featurizer)
    tree = build_tree(space)
    layer_features = [space.feature_matrix()[tree.label_order]]
    for layer in range(tree.n_layers - 1, 0, -1):
        n_nodes = tree.layer_sizes[layer]
        members = sp.csr_matrix(
            (np.ones(n_nodes), (tree.parents_of_layer(layer), np.arange(n_nodes))),
            shape=(tree.layer_sizes[layer - 1], n_nodes),
        )
        layer_features.insert(0, unit_rows(members @ layer_features[0]))
    # Per layer, one column per node; the added last row, the bias
    # feature's, stays zero.
    blocks = [features.T for features in layer_features]
    for block in blocks:
        block.resize(featurizer.dim + 1, block.shape[1])
    weights = stack_layers(blocks, featurizer.dim + 1)
    return XmcModel(
        labels=labels, tree=tree, layer_weights=weights, featurizer=featurizer
    )


def _cmd_bench(config: dict) -> int:
    try:
        sizes = tuple(int(v) for v in _as_str_tuple(config["sizes"]))
    except ValueError:
        sizes = ()
    if not sizes or min(sizes) < 2:
        raise UsageError("--sizes must list label counts of at least 2")
    n_queries = config["queries"]
    if n_queries < 1:
        raise UsageError("--queries must be at least 1")
    params = BeamParams(beam_size=config["beam_size"])
    featurizer = FeaturizerConfig(dim=config["dim"])
    rows = []
    for n_labels in sizes:
        build_start = time.perf_counter()
        model = _centroid_model(n_labels, featurizer)
        build_s = time.perf_counter() - build_start
        rng = random.Random(1)
        names = _bench_names(rng, n_queries)
        vectors = [
            vectorize(f"{name} {rng.choice(names)}", featurizer) for name in names
        ]
        for vec in vectors[:20]:
            beam_predict(model, vec, params)
        timings = []
        for vec in vectors:
            start = time.perf_counter()
            beam_predict(model, vec, params)
            timings.append((time.perf_counter() - start) * 1000.0)
        rows.append(
            {
                "labels": n_labels,
                "layers": list(model.tree.layer_sizes),
                "build_s": round(build_s, 2),
                "mean_ms": round(statistics.fmean(timings), 4),
                "p50_ms": round(statistics.median(timings), 4),
                "p95_ms": round(sorted(timings)[int(0.95 * len(timings))], 4),
            }
        )
    print(f"{'labels':>8}  {'mean_ms':>8}  {'p50_ms':>8}  {'p95_ms':>8}  layers")
    for row in rows:
        print(
            f"{row['labels']:>8}  {row['mean_ms']:>8.4f}  {row['p50_ms']:>8.4f}"
            f"  {row['p95_ms']:>8.4f}  {row['layers']}"
        )
    if len(rows) > 1:
        ratio = rows[-1]["mean_ms"] / rows[0]["mean_ms"]
        print(
            f"ratio: {ratio:.2f}x mean latency"
            f" from L={rows[0]['labels']} to L={rows[-1]['labels']}"
        )
    if config["out"] is not None:
        with open(config["out"], "w", encoding="utf-8") as handle:
            json.dump({"schema_version": 1, "rows": rows}, handle, sort_keys=True)
            handle.write("\n")
    return 0


# Each subcommand once: its help line, its handler and its options'
# defaults.  A tuple lists a choice option's allowed values, the first
# being its default.
_COMMANDS: dict[str, tuple[str, Callable[[dict], int], dict]] = {
    "build-dict": (
        "compile a brand-to-entity TSV into a dictionary artifact",
        _cmd_build_dict,
        {"b2e": None, "out": None},
    ),
    "gen-corpus": (
        "generate a deterministic synthetic corpus",
        _cmd_gen_corpus,
        {"out": None, "entities": 1000, "variants": 3, "languages": "en", "branded": 5000,
         "nonbranded": 2000, "pt_types": 20, "seed": 0},
    ),
    "gen-weak-labels": (
        "label engagement logs by token-aligned matching",
        _cmd_gen_weak_labels,
        {"logs": None, "dict": None, "threshold": DEFAULT_STRENGTH_THRESHOLD, "out": None},
    ),
    "train-xmc": (
        "train a mention-to-entity or query-to-entity model",
        _cmd_train_xmc,
        {"train": None, "dict": None, "target": ("q2e", "m2e"), "out": None, "dim": _DIM},
    ),
    "train-pt": (
        "train the flat product-type classifier",
        _cmd_train_pt,
        {"train": None, "out": None, "dim": _DIM, "reg": DEFAULT_REG},
    ),
    "link": (
        "link queries with a chosen linker mode",
        _cmd_link,
        {"queries": None, "out": None, "mode": tuple(_LINK_FNS), "dict": None,
         "m2e_model": None, "q2e_model": None, "pt_model": None, "associations": None,
         "fused_matcher": ("lexical", "m2e")},
    ),
    "eval": (
        "score link results against gold labels",
        _cmd_eval,
        {"gold": None, "results": None, "slice": tuple(_SLICE_FNS), "report": None,
         "false_alarm": False},
    ),
    "bench": (
        "measure beam inference latency across label-space sizes",
        _cmd_bench,
        {"sizes": "5000,50000", "queries": 500, "beam_size": BeamParams().beam_size,
         "dim": _DIM, "out": None},
    ),
}


# ---------------------------------------------------------------------------
# Argument plumbing.
# ---------------------------------------------------------------------------


def _add_options(parser: argparse.ArgumentParser, options: dict) -> None:
    parser.add_argument("--config", help="JSON file with option defaults")
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the resolved configuration and exit",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true", help="log progress lines"
    )
    for key, default in options.items():
        flag = _flag(key)
        if isinstance(default, bool):
            group = parser.add_mutually_exclusive_group()
            group.add_argument(flag, dest=key, action="store_const", const=True)
            group.add_argument(
                "--no-" + flag[2:],
                dest=key,
                action="store_const",
                const=False,
            )
            parser.set_defaults(**{key: None})
        elif isinstance(default, tuple):
            parser.add_argument(
                flag, default=None, help=f"one of {', '.join(default)}; default: {default[0]}"
            )
        else:
            parser.add_argument(flag, default=None, help=f"default: {default}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brandlink",
        description="Brand entity linking for search queries: data, training,"
        " linking, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _, options) in _COMMANDS.items():
        _add_options(sub.add_parser(command, help=help_line), options)
    return parser


def _resolve(args: argparse.Namespace, options: dict) -> dict:
    resolved = {
        key: default[0] if isinstance(default, tuple) else default
        for key, default in options.items()
    }
    if args.config is not None:
        with open(args.config, encoding="utf-8") as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise UsageError(f"--config file {args.config} must hold one JSON object")
        unknown = sorted(set(loaded) - set(options))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        resolved.update(loaded)
    for key in options:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    # A choice option takes one of its listed values.  An int, float or
    # bool option takes its default's type: a string, from a flag or the
    # file, is parsed, and a JSON int is fine for a float.
    for key, default in options.items():
        kind, value = type(default), resolved[key]
        if kind is tuple:
            if value not in default:
                raise UsageError(f"{_flag(key)} must be one of {', '.join(default)}")
            continue
        if kind not in (bool, int, float) or type(value) is kind:
            continue
        parse = isinstance(value, str) and kind is not bool
        if parse or (kind is float and type(value) is int):
            try:
                resolved[key] = kind(value)
                continue
            except ValueError:
                pass
        raise UsageError(f"{_flag(key)} must be a {kind.__name__}, not {value!r}")
    return resolved


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute one command; all failures become exit codes."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _, handler, options = _COMMANDS[args.command]
        config = _resolve(args, options)
        if args.dry_run:
            print(json.dumps({"command": args.command} | config, sort_keys=True))
            return 0
        return handler(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single-line diagnostic contract
        detail = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
