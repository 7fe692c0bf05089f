"""System acceptance: nine end-to-end criteria, one verdict line each.

Every criterion prints a single PASS/FAIL line with the measured values
(visible with -s; the -v test ids mirror the criterion numbers) and then
asserts.  One more test checks that the float32 weights the rankers and
the PT predictor store link every query as float64 scoring would.
Corpora and models are built through the public CLI so these checks walk
the same paths operators do.
"""
import json
import time

import numpy as np
import pytest

import brandlink.ptfilter
import brandlink.xmc.model
from brandlink.cli import run as cli_run
from brandlink.core import (
    NIL,
    BrandEntityId,
    LabeledQuery,
    LinkResult,
    Outcome,
    Query,
    Source,
    StoreTag,
    labeled_query_from_record,
    labeled_query_to_record,
    read_jsonl,
    write_jsonl,
)
from brandlink.data import augment_b2e
from brandlink.evaluation import EvalCounts, false_alarm_rate, metrics, score
from brandlink.gazetteer import TrieDetector, build_dictionary, read_b2e_tsv
from brandlink.linear import WEIGHT_DTYPE
from brandlink.pipeline import (
    LexicalMatcher,
    LinkerConfig,
    M2eMatcher,
    link_end_to_end,
    link_fused,
    link_two_stage,
)
from brandlink.ptfilter import (
    ProductType,
    load_pt_predictor,
    mine_associations,
    read_associations_tsv,
)
from brandlink.text import featurize, normalize
from brandlink.xmc import BeamParams, beam_predict, load_model


class OraclePtPredictor:
    """Replays gold product types keyed by normalized query text."""

    def __init__(self, mapping: dict[str, ProductType]) -> None:
        self._mapping = dict(mapping)

    def predict(self, query: Query) -> ProductType | None:
        return self._mapping.get(normalize(query.text).text)


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {name}: {detail}")
    assert ok, f"criterion {number} {name}: {detail}"


def _cli(*argv: str) -> None:
    code = cli_run(list(argv))
    assert code == 0, f"command failed ({code}): {' '.join(argv)}"


def _coverage_identity(counts: EvalCounts) -> bool:
    # Coverage * T must recover P_single exactly, before any rounding.
    row = metrics(counts)
    if counts.t == 0:
        return True
    recovered = row.coverage * counts.t / 100.0
    return round(recovered) == counts.p_single and abs(
        recovered - counts.p_single
    ) < 1e-6


def _load_slice(path) -> list[LabeledQuery]:
    return [labeled_query_from_record(r) for r in read_jsonl(path)]


def _write_pseudo(b2e_path, out_path):
    write_jsonl(
        out_path,
        (labeled_query_to_record(x) for x in augment_b2e(read_b2e_tsv(b2e_path))),
    )
    return out_path


def _exhaustive_scores(model, weights, vec) -> dict:
    """Full-path scores for every label: no beam, no pruning.

    ``weights`` is the model's stack in feature order, ``model.weights``
    turned back (``[::-1]``) once by the caller.  A dense float32 matvec
    adds each node's float32 products in ascending feature order, the
    bias last, as the scorer does, and its margins are widened to float64
    as the scorer's are.
    """
    dense = np.zeros(vec.dim + 1, dtype=WEIGHT_DTYPE)
    dense[vec.indices] = vec.values
    dense[vec.dim] = 1.0
    tree = model.tree
    logs = None
    for layer in range(tree.n_layers):
        lo, hi = tree.offsets[layer], tree.offsets[layer + 1]
        margins = (weights[:, lo:hi].T @ dense).astype(np.float64)
        layer_logs = -np.logaddexp(0.0, -margins)
        if logs is None:
            logs = layer_logs
        else:
            logs = logs[tree.parents_of_layer(layer)] + layer_logs
    scores = np.exp(logs)
    return {
        model.labels[int(li)]: float(scores[pos])
        for pos, li in enumerate(tree.label_order)
    }


def _exhaustive_top(model, weights, vec, k: int) -> list[tuple[BrandEntityId, float]]:
    ranked = sorted(
        _exhaustive_scores(model, weights, vec).items(), key=lambda kv: (-kv[1], kv[0].id)
    )
    return ranked[:k]


# ---------------------------------------------------------------------------
# Shared large corpus (criteria 4-7) and its models.
# ---------------------------------------------------------------------------

DIM = str(2**18)


@pytest.fixture(scope="session")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def corpus5k(work):
    out = work / "corpus5k"
    _cli(
        "gen-corpus",
        "--out",
        str(out),
        "--entities",
        "5000",
        "--variants",
        "3",
        "--branded",
        "20000",
        "--nonbranded",
        "5000",
        "--pt-types",
        "25",
        "--seed",
        "11",
    )
    return out


@pytest.fixture(scope="session")
def dict5k(work, corpus5k):
    path = work / "dict5k.blaf"
    _cli("build-dict", "--b2e", str(corpus5k / "b2e.tsv"), "--out", str(path))
    return path, build_dictionary(read_b2e_tsv(corpus5k / "b2e.tsv"))


@pytest.fixture(scope="session")
def q2e5k(work, corpus5k, dict5k):
    pseudo = _write_pseudo(corpus5k / "b2e.tsv", work / "pseudo5k.jsonl")
    path = work / "q2e5k.blaf"
    started = time.perf_counter()
    _cli(
        "train-xmc",
        "--train",
        f"{pseudo},{corpus5k / 'strong_labels.jsonl'},{corpus5k / 'weak_labels.jsonl'}",
        "--dict",
        str(dict5k[0]),
        "--target",
        "q2e",
        "--dim",
        DIM,
        "--out",
        str(path),
    )
    return load_model(path), time.perf_counter() - started


@pytest.fixture(scope="session")
def m2e5k(work, corpus5k, dict5k):
    pseudo = _write_pseudo(corpus5k / "b2e.tsv", work / "pseudo5k_m2e.jsonl")
    path = work / "m2e5k.blaf"
    _cli(
        "train-xmc",
        "--train",
        str(pseudo),
        "--dict",
        str(dict5k[0]),
        "--target",
        "m2e",
        "--dim",
        DIM,
        "--out",
        str(path),
    )
    return load_model(path)


@pytest.fixture(scope="session")
def pt5k(work, corpus5k):
    path = work / "pt5k.blaf"
    _cli(
        "train-pt",
        "--train",
        str(corpus5k / "pt_train.jsonl"),
        "--out",
        str(path),
        "--dim",
        DIM,
        "--reg",
        "1e-6",
    )
    return load_pt_predictor(path)


@pytest.fixture(scope="session")
def assoc5k(corpus5k):
    return mine_associations(read_associations_tsv(corpus5k / "pt_associations.tsv"))


# ---------------------------------------------------------------------------
# Criterion 1: beam search against the exhaustive oracle.
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_1_beam_matches_exhaustive(work):
    corpus = work / "corpus1k"
    _cli(
        "gen-corpus",
        "--out",
        str(corpus),
        "--entities",
        "1000",
        "--variants",
        "3",
        "--branded",
        "6000",
        "--nonbranded",
        "1500",
        "--pt-types",
        "15",
        "--seed",
        "21",
    )
    dict_path = work / "dict1k.blaf"
    _cli("build-dict", "--b2e", str(corpus / "b2e.tsv"), "--out", str(dict_path))
    pseudo = _write_pseudo(corpus / "b2e.tsv", work / "pseudo1k.jsonl")
    model_path = work / "q2e1k.blaf"
    _cli(
        "train-xmc",
        "--train",
        f"{pseudo},{corpus / 'strong_labels.jsonl'},{corpus / 'weak_labels.jsonl'}",
        "--dict",
        str(dict_path),
        "--target",
        "q2e",
        "--dim",
        DIM,
        "--out",
        str(model_path),
    )
    model = load_model(model_path)

    queries = (
        [ex.query for ex in _load_slice(corpus / "test.jsonl")][:250]
        + [ex.query for ex in _load_slice(corpus / "test_variants.jsonl")][:150]
        + [ex.query for ex in _load_slice(corpus / "nonbranded.jsonl")][:100]
    )
    assert len(queries) == 500

    wide = BeamParams(beam_size=max(model.tree.layer_sizes), top_k=5)
    narrow = BeamParams(beam_size=10, top_k=1)
    started = time.perf_counter()
    logical = model.weights[::-1]
    exact_mismatches = 0
    top1_agree = 0
    for query in queries:
        vec = featurize(normalize(query.text), model.featurizer)
        want = _exhaustive_top(model, logical, vec, 5)
        got = beam_predict(model, vec, wide)
        if [(s.entity, s.score) for s in got] != want:
            exact_mismatches += 1
        narrowed = beam_predict(model, vec, narrow)
        if narrowed and narrowed[0].entity == want[0][0]:
            top1_agree += 1
    elapsed = time.perf_counter() - started

    agreement = top1_agree / len(queries)
    ok = exact_mismatches == 0 and agreement >= 0.95 and elapsed < 120.0
    _verdict(
        1,
        "beam/exhaustive equivalence",
        ok,
        f"wide-beam mismatches {exact_mismatches}/500 (bar 0),"
        f" b=10 top-1 agreement {agreement:.2%} (bar 95%),"
        f" compare loop {elapsed:.1f}s (bar 120s)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: metric oracle on a frozen hand-recounted fixture.
# ---------------------------------------------------------------------------


def test_criterion_2_metric_oracle():
    e1, e2 = BrandEntityId("E1"), BrandEntityId("E2")

    def gold(text, *entities):
        return LabeledQuery(
            query=Query(text, StoreTag("us")),
            brand_names=("b",) if entities != (NIL,) else (),
            entities=entities,
            source=Source.SL,
        )

    single, nil_r, nothing = (
        lambda e: LinkResult.single(e, 0.8),
        LinkResult.nil(),
        LinkResult.no_prediction(),
    )
    pairs = [
        (gold("q00", e1), single(e1)),
        (gold("q01", e2), single(e2)),
        (gold("q02", e1), single(e2)),
        (gold("q03", e2), nothing),
        (gold("q04", e1), single(e1)),
        (gold("q05", e2), nil_r),
        (gold("q06", e1), single(e1)),
        (gold("q07", e2), single(e2)),
        (gold("q08", e1), nothing),
        (gold("q09", e2), single(e1)),
        (gold("q10", e1), single(e1)),
        (gold("q11", e2), single(e2)),
        (gold("q12", e1, e2), single(e1)),
        (gold("q13", e1, e2), nothing),
        (gold("q14", NIL), nil_r),
        (gold("q15", NIL), single(e2)),
        (gold("q16", NIL), nothing),
        (gold("q17", e1), single(e1)),
        (gold("q18", e2), nil_r),
        (gold("q19", e1), single(e1)),
    ]

    # Brute-force recount, written independently of evaluation.score.
    t = len(pairs)
    l_single = 0
    p_single = 0
    correct = 0
    for example, result in pairs:
        gold_is_single = (
            len(example.entities) == 1 and not example.entities[0].is_nil
        )
        if gold_is_single:
            l_single += 1
        if result.outcome is Outcome.SINGLE:
            p_single += 1
            if gold_is_single and result.best.entity == example.entities[0]:
                correct += 1
    # Hand tally over the rows above: 15 single-gold rows (q00-q11 and
    # q17-q19; two multi-gold and three NIL rows excluded), 13 Single
    # predictions, and 9 of them name the gold entity.
    hand = EvalCounts(t=20, l_single=15, p_single=13, c=9)
    recount = EvalCounts(t=t, l_single=l_single, p_single=p_single, c=correct)

    counts = score(pairs)
    row = metrics(counts)
    formulas_ok = (
        row.recall == pytest.approx(100.0 * 9 / 15)
        and row.precision == pytest.approx(100.0 * 9 / 13)
        and row.coverage == pytest.approx(100.0 * 13 / 20)
        and row.f1
        == pytest.approx(
            2.0 * (100.0 * 9 / 13) * (100.0 * 9 / 15) / (100.0 * 9 / 13 + 100.0 * 9 / 15)
        )
    )
    ok = counts == hand == recount and formulas_ok and _coverage_identity(counts)
    _verdict(
        2,
        "metric oracle",
        ok,
        f"score{(counts.t, counts.l_single, counts.p_single, counts.c)} =="
        f" hand recount {(hand.t, hand.l_single, hand.p_single, hand.c)},"
        f" formulas exact, coverage identity holds",
    )


# ---------------------------------------------------------------------------
# Criterion 3: lexical round-trip over a 10k-entry registry.
# ---------------------------------------------------------------------------


def test_criterion_3_lexical_round_trip(work):
    corpus = work / "corpus2500"
    _cli(
        "gen-corpus",
        "--out",
        str(corpus),
        "--entities",
        "2500",
        "--variants",
        "4",
        "--branded",
        "200",
        "--nonbranded",
        "60",
        "--pt-types",
        "10",
        "--seed",
        "33",
    )
    rows = list(read_b2e_tsv(corpus / "b2e.tsv"))
    assert len(rows) == 10000

    owners: dict[tuple[str, str], set[str]] = {}
    for store, surface, entity_id in rows:
        owners.setdefault((store.code, normalize(surface).text), set()).add(entity_id)

    dictionary = build_dictionary(rows)
    config = LinkerConfig(
        detector=TrieDetector(dictionary), matcher=LexicalMatcher(dictionary)
    )

    started = time.perf_counter()
    unambiguous_pairs = []
    ambiguous_total = 0
    ambiguous_abstained = 0
    for (store_code, surface), ids in sorted(owners.items()):
        query = Query(surface, StoreTag(store_code))
        result = link_two_stage(config, query)
        if len(ids) == 1:
            example = LabeledQuery(
                query=query,
                brand_names=(surface,),
                entities=(BrandEntityId(next(iter(ids))),),
                source=Source.SL,
            )
            unambiguous_pairs.append((example, result))
        else:
            ambiguous_total += 1
            ambiguous_abstained += result.outcome is Outcome.NO_PREDICTION
    elapsed = time.perf_counter() - started

    counts = score(unambiguous_pairs)
    row = metrics(counts)
    ok = (
        row.precision == 100.0
        and row.recall == 100.0
        and ambiguous_total > 0
        and ambiguous_abstained == ambiguous_total
        and elapsed < 60.0
        and _coverage_identity(counts)
    )
    _verdict(
        3,
        "lexical round-trip",
        ok,
        f"{counts.t} unambiguous surfaces P={row.precision:.2f} R={row.recall:.2f}"
        f" (bar 100.00/100.00), {ambiguous_abstained}/{ambiguous_total} ambiguous"
        f" abstained (bar 100%), {elapsed:.1f}s (bar 60s)",
    )


# ---------------------------------------------------------------------------
# Criterion 4: product-type disambiguation on the shared-surface slice.
# ---------------------------------------------------------------------------


def test_criterion_4_pt_disambiguation(corpus5k, dict5k, pt5k, assoc5k):
    records = list(read_jsonl(corpus5k / "test_shared.jsonl"))
    assert records
    _, dictionary = dict5k

    def resolved_rate(pt_predictor) -> float:
        config = LinkerConfig(
            detector=TrieDetector(dictionary),
            matcher=LexicalMatcher(dictionary),
            pt_predictor=pt_predictor,
            associations=assoc5k,
        )
        hits = 0
        for record in records:
            example = labeled_query_from_record(record)
            result = link_two_stage(config, example.query)
            hits += (
                result.outcome is Outcome.SINGLE
                and result.best.entity == example.entities[0]
            )
        return hits / len(records)

    trained_rate = resolved_rate(pt5k)
    oracle = OraclePtPredictor(
        {
            normalize(r["query"]["text"]).text: ProductType(r["pt"])
            for r in records
        }
    )
    oracle_rate = resolved_rate(oracle)

    ok = trained_rate >= 0.99 and oracle_rate == 1.0
    _verdict(
        4,
        "pt disambiguation",
        ok,
        f"trained predictor {trained_rate:.2%} of {len(records)} (bar 99%),"
        f" oracle predictor {oracle_rate:.2%} (bar 100%)",
    )


# ---------------------------------------------------------------------------
# Criterion 5: fusion dominates the lexical branch.
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_fusion_dominance(corpus5k, dict5k, q2e5k):
    _, dictionary = dict5k
    model, _ = q2e5k
    examples = _load_slice(corpus5k / "test.jsonl") + _load_slice(
        corpus5k / "test_variants.jsonl"
    )
    lexical = LinkerConfig(
        detector=TrieDetector(dictionary), matcher=LexicalMatcher(dictionary)
    )
    fused = LinkerConfig(
        detector=TrieDetector(dictionary),
        matcher=LexicalMatcher(dictionary),
        q2e=model,
        fusion=True,
    )

    lex_pairs = [(ex, link_two_stage(lexical, ex.query)) for ex in examples]
    fused_pairs = [(ex, link_fused(fused, ex.query)) for ex in examples]

    lex_singles = {
        i for i, (_, r) in enumerate(lex_pairs) if r.outcome is Outcome.SINGLE
    }
    fused_singles = {
        i for i, (_, r) in enumerate(fused_pairs) if r.outcome is Outcome.SINGLE
    }
    lex_counts, fused_counts = score(lex_pairs), score(fused_pairs)
    lex_row, fused_row = metrics(lex_counts), metrics(fused_counts)

    ok = (
        lex_singles <= fused_singles
        and fused_row.recall >= lex_row.recall
        and lex_row.precision >= fused_row.precision - 2.0
        and fused_row.coverage >= lex_row.coverage
        and _coverage_identity(lex_counts)
        and _coverage_identity(fused_counts)
    )
    _verdict(
        5,
        "fusion dominance",
        ok,
        f"singles {len(lex_singles)} lexical ⊆ {len(fused_singles)} fused"
        f" ({lex_singles <= fused_singles}),"
        f" R {lex_row.recall:.2f}→{fused_row.recall:.2f},"
        f" C {lex_row.coverage:.2f}→{fused_row.coverage:.2f},"
        f" P {lex_row.precision:.2f} vs {fused_row.precision:.2f} (slack 2.00)",
    )


# ---------------------------------------------------------------------------
# float32 weights against float64 scoring.
# ---------------------------------------------------------------------------


def _float64_scorer(*stacks):
    """A stand-in for ``linear.score_vector`` over the given stored stacks
    that reads their weights, widened, with float64 query values and
    float64 sums, adding the query's rows in ascending feature order and
    the bias row last."""
    logical = {id(stack): stack[::-1].astype(np.float64) for stack in stacks}

    def score_vector(weights, x):
        rows = np.append(x.indices, x.dim)
        return logical[id(weights)][rows].T @ np.append(x.values, 1.0)

    return score_vector


@pytest.mark.slow
def test_float32_scoring_keeps_every_outcome(
    corpus5k, dict5k, q2e5k, pt5k, assoc5k, monkeypatch
):
    # float32 sums move a margin by about 1e-7 of its terms' size; no
    # outcome or best entity of the test slice may move with them.
    _, dictionary = dict5k
    model, _ = q2e5k
    examples = _load_slice(corpus5k / "test.jsonl")
    common = dict(q2e=model, pt_predictor=pt5k, associations=assoc5k)
    q2e = LinkerConfig(**common)
    fused = LinkerConfig(
        detector=TrieDetector(dictionary),
        matcher=LexicalMatcher(dictionary),
        fusion=True,
        **common,
    )

    def decisions():
        """Per query, the q2e and the fused outcome and best entity."""
        return [
            tuple(
                (result.outcome, result.best and result.best.entity)
                for result in (link_end_to_end(q2e, ex.query), link_fused(fused, ex.query))
            )
            for ex in examples
        ]

    served = decisions()
    reference = _float64_scorer(model.weights, pt5k.weights)
    monkeypatch.setattr(brandlink.xmc.model, "score_vector", reference)
    monkeypatch.setattr(brandlink.ptfilter, "score_vector", reference)
    exact = decisions()
    singles = sum(q2e_decision[0] is Outcome.SINGLE for q2e_decision, _ in served)
    assert len(examples) > 1000 and singles > len(examples) // 2
    assert [ex.query.text for ex, a, b in zip(examples, served, exact) if a != b] == []


# ---------------------------------------------------------------------------
# Criterion 6: false-alarm ordering across the three linkers.
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_false_alarm_ordering(corpus5k, dict5k, m2e5k, q2e5k):
    _, dictionary = dict5k
    q2e_model, _ = q2e5k
    examples = _load_slice(corpus5k / "nonbranded.jsonl")
    assert len(examples) >= 5000

    lexical = LinkerConfig(
        detector=TrieDetector(dictionary), matcher=LexicalMatcher(dictionary)
    )
    m2e = LinkerConfig(
        detector=TrieDetector(dictionary),
        matcher=M2eMatcher(m2e5k, BeamParams(top_k=1)),
    )
    q2e = LinkerConfig(q2e=q2e_model)

    fa_lex = false_alarm_rate(
        (ex, link_two_stage(lexical, ex.query)) for ex in examples
    )
    fa_m2e = false_alarm_rate(
        (ex, link_two_stage(m2e, ex.query)) for ex in examples
    )
    fa_q2e = false_alarm_rate(
        (ex, link_end_to_end(q2e, ex.query)) for ex in examples
    )

    ok = fa_lex <= fa_m2e <= fa_q2e and fa_lex <= 1.0
    _verdict(
        6,
        "false-alarm ordering",
        ok,
        f"FA lexical {fa_lex:.2f} ≤ M2E {fa_m2e:.2f} ≤ Q2E {fa_q2e:.2f}"
        f" on {len(examples)} non-branded (bar: ordering and lexical ≤ 1.00)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: end-to-end learning sanity at 5k entities.
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_q2e_sanity(corpus5k, q2e5k):
    model, train_seconds = q2e5k
    config = LinkerConfig(q2e=model)

    started = time.perf_counter()
    seen_pairs = [
        (ex, link_end_to_end(config, ex.query))
        for ex in _load_slice(corpus5k / "test.jsonl")
    ]
    variant_pairs = [
        (ex, link_end_to_end(config, ex.query))
        for ex in _load_slice(corpus5k / "test_variants.jsonl")
    ]
    eval_seconds = time.perf_counter() - started

    seen_counts = score(seen_pairs)
    seen_row = metrics(seen_counts)
    variant_row = metrics(score(variant_pairs))
    total = train_seconds + eval_seconds

    ok = (
        seen_row.recall >= 80.0
        and seen_row.precision >= 90.0
        and variant_row.recall >= 40.0
        and total < 900.0
        and _coverage_identity(seen_counts)
    )
    _verdict(
        7,
        "q2e learning sanity",
        ok,
        f"seen R={seen_row.recall:.2f} (bar 80) P={seen_row.precision:.2f} (bar 90),"
        f" misspelled R={variant_row.recall:.2f} (bar 40),"
        f" train+eval {total:.0f}s (bar 900s)",
    )


# ---------------------------------------------------------------------------
# Criterion 8: beam latency scaling across label-space sizes.
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_scaling(work):
    out = work / "bench.json"
    _cli(
        "bench",
        "--sizes",
        "5000,50000",
        "--queries",
        "300",
        "--beam-size",
        "10",
        "--out",
        str(out),
    )
    rows = json.loads(out.read_text())["rows"]
    assert [row["labels"] for row in rows] == [5000, 50000]
    ratio = rows[1]["mean_ms"] / rows[0]["mean_ms"]
    mean_50k = rows[1]["mean_ms"]

    ok = ratio <= 3.0 and mean_50k <= 5.0
    _verdict(
        8,
        "scaling contract",
        ok,
        f"mean {rows[0]['mean_ms']:.3f}ms at 5k → {mean_50k:.3f}ms at 50k,"
        f" ratio {ratio:.2f}x (bar 3x), absolute bar 5ms",
    )


# ---------------------------------------------------------------------------
# Criterion 9: byte-identical end-to-end pipeline runs.
# ---------------------------------------------------------------------------


def test_criterion_9_determinism(work):
    def pipeline(tag: str) -> dict[str, bytes]:
        root = work / f"det_{tag}"
        corpus = root / "corpus"
        _cli(
            "gen-corpus",
            "--out",
            str(corpus),
            "--entities",
            "300",
            "--variants",
            "3",
            "--branded",
            "1200",
            "--nonbranded",
            "400",
            "--pt-types",
            "10",
            "--seed",
            "17",
        )
        dict_path = root / "dict.blaf"
        _cli("build-dict", "--b2e", str(corpus / "b2e.tsv"), "--out", str(dict_path))
        pseudo = _write_pseudo(corpus / "b2e.tsv", root / "pseudo.jsonl")
        model_path = root / "q2e.blaf"
        _cli(
            "train-xmc",
            "--train",
            f"{pseudo},{corpus / 'strong_labels.jsonl'},{corpus / 'weak_labels.jsonl'}",
            "--dict",
            str(dict_path),
            "--target",
            "q2e",
            "--dim",
            "65536",
            "--out",
            str(model_path),
        )
        results = root / "results.jsonl"
        _cli(
            "link",
            "--queries",
            str(corpus / "test.jsonl"),
            "--mode",
            "q2e",
            "--q2e-model",
            str(model_path),
            "--out",
            str(results),
        )
        report_path = root / "report.json"
        _cli(
            "eval",
            "--gold",
            str(corpus / "test.jsonl"),
            "--results",
            str(results),
            "--report",
            str(report_path),
        )
        watched = {
            "manifest": corpus / "manifest.json",
            "b2e": corpus / "b2e.tsv",
            "strong_labels": corpus / "strong_labels.jsonl",
            "weak_labels": corpus / "weak_labels.jsonl",
            "dict": dict_path,
            "pseudo": pseudo,
            "model": model_path,
            "results": results,
            "report": report_path,
        }
        return {name: path.read_bytes() for name, path in watched.items()}

    first = pipeline("a")
    second = pipeline("b")
    differing = sorted(name for name in first if first[name] != second[name])

    ok = not differing
    _verdict(
        9,
        "pipeline determinism",
        ok,
        f"{len(first)} artifacts byte-compared, differing: {differing or 'none'}",
    )
