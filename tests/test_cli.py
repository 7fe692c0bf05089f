"""Command line surface: option resolution, exit codes, workflows."""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import brandlink
from brandlink.cli import _COMMANDS, run
from brandlink.core import StoreTag, read_jsonl
from brandlink.gazetteer import build_dictionary, load_dictionary, save_dictionary

SRC = Path(brandlink.__file__).resolve().parent.parent


def test_no_subcommand_is_a_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for command in (
        "build-dict",
        "gen-corpus",
        "gen-weak-labels",
        "train-xmc",
        "train-pt",
        "link",
        "eval",
        "bench",
    ):
        assert command in out


def test_subcommand_help_lists_options(capsys):
    assert run(["gen-corpus", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--entities" in out
    assert "--seed" in out


# Every option each subcommand takes, 39 settable values in all.
OPTIONS = {
    "build-dict": {"b2e", "out"},
    "gen-corpus": {
        "out", "entities", "variants", "languages", "branded", "nonbranded", "pt-types", "seed",
    },
    "gen-weak-labels": {"logs", "dict", "out"},
    "train-xmc": {"train", "dict", "target", "out", "dim"},
    "train-pt": {"train", "out", "dim", "reg"},
    "link": {
        "queries", "out", "mode", "dict", "m2e-model", "q2e-model", "pt-model",
        "associations", "fused-matcher",
    },
    "eval": {"gold", "results", "slice", "report"},
    "bench": {"sizes", "queries", "dim", "out"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_help_lists_exactly_its_options(command, capsys):
    assert run([command, "--help"]) == 0
    flags = set(re.findall(r"(?<![\w-])--([a-z][a-z0-9-]*)", capsys.readouterr().out))
    assert flags == OPTIONS[command] | {"help", "dry-run", "verbose"}


def test_every_option_default_has_a_type_argparse_can_parse():
    # Each flag parses as its default's type.  A bool would read
    # "--x False" as True, so a default is None, a string, a number or the
    # tuple of a choice option's values.
    for command, (_, _, options) in _COMMANDS.items():
        for key, default in options.items():
            if isinstance(default, tuple):
                assert default and all(type(v) is str for v in default), (command, key)
            else:
                assert default is None or type(default) in (str, int, float), (command, key)


def _readme_commands() -> list[list[str]]:
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.split()[1:] for line in lines if line.startswith("brandlink ")]


def test_readme_command_lines_parse(capsys):
    commands = _readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert run([*argv, "--dry-run"]) == 0, argv
    capsys.readouterr()


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = text.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    assert run(["gen-corpus", "--out", "corpus", "--entities", "60"]) == 0
    assert run(["build-dict", "--b2e", "corpus/b2e.tsv", "--out", "dict.blaf"]) == 0
    argv = ["train-xmc", "--train", "corpus/strong_labels.jsonl", "--dict", "dict.blaf",
            "--target", "q2e", "--dim", "65536", "--out", "q2e.blaf"]
    assert run(argv) == 0
    capsys.readouterr()
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("Outcome.")


def cli_process(argv: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    """Run the command line in a fresh interpreter, so its stdio is its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "brandlink.cli", *argv],
        input=stdin,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestConfigResolution:
    def test_dry_run_prints_defaults(self, capsys):
        assert run(["gen-corpus", "--dry-run"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["command"] == "gen-corpus"
        assert resolved["entities"] == 1000
        assert resolved["seed"] == 0

    @pytest.mark.parametrize(
        "command, key",
        [
            ("train-xmc", "reg"),
            ("train-xmc", "branching"),
            ("train-xmc", "max_leaf"),
            ("train-xmc", "seed"),
            ("link", "beam_size"),
            ("link", "top_k"),
            ("bench", "seed"),
            ("bench", "beam_size"),
            ("eval", "false_alarm"),
            ("gen-weak-labels", "threshold"),
            ("gen-corpus", "config"),
        ],
    )
    def test_deleted_option_is_unknown(self, capsys, command, key):
        # Fixed settings: tree 16/100/seed 0, penalty 1e-3, beam 10/top 5
        # for link and bench alike, bench seed 0, weak-label threshold 1.0.  The false-alarm rate is
        # eval's overall coverage on non-branded gold.  Every option is a
        # flag: there is no config file.
        assert run([command, "--" + key.replace("_", "-"), "4", "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "command, key",
        [("train-xmc", "target"), ("link", "mode"), ("link", "fused_matcher"), ("eval", "slice")],
    )
    def test_bad_choice_is_a_usage_error(self, capsys, command, key):
        flag = "--" + key.replace("_", "-")
        assert run([command, flag, "bogus", "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err and "invalid choice" in err
        assert err.count("\n") == 1

    def test_choice_defaults_to_its_first_value(self, capsys):
        assert run(["link", "--dry-run"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert (resolved["mode"], resolved["fused_matcher"]) == ("lexical", "lexical")

    def test_unparsable_flag_is_a_usage_error(self, capsys):
        assert run(["gen-corpus", "--entities", "1.5", "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--entities" in err

    def test_dry_run_has_no_side_effects(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert run(["gen-corpus", "--out", str(out), "--dry-run"]) == 0
        capsys.readouterr()
        assert not out.exists()


class TestExitCodes:
    def test_missing_required_option_exits_2(self, capsys):
        assert run(["build-dict"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "\n" not in err.strip()

    def test_train_xmc_without_dict_exits_2(self, tmp_path, capsys):
        # Label surfaces come only from the dictionary.
        code = run(
            [
                "train-xmc",
                "--train",
                str(tmp_path / "train.jsonl"),
                "--out",
                str(tmp_path / "q2e.blaf"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "--dict" in err
        assert not (tmp_path / "q2e.blaf").exists()

    @pytest.mark.parametrize("argv", [["train-pt", "--no-idf"], ["train-xmc", "--idf"]])
    def test_idf_switch_is_gone(self, argv, capsys):
        # Training always fits idf.
        assert run([*argv, "--dry-run"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record, code",
        [
            ({"outcome": "single", "best": {"entity": "E1", "score": 0.5}}, 0),
            ({"outcome": "ambiguous", "best": None}, 1),
            (
                {
                    "outcome": "no_prediction",
                    "best": None,
                    "candidates": [{"entity": "E1", "score": 0.5}, {"entity": "E2", "score": 0.5}],
                },
                1,
            ),
            ({"outcome": "single", "best": {"entity": "E1", "score": True}}, 1),
        ],
        ids=["single", "ambiguous", "candidates", "bool-score"],
    )
    def test_eval_rejects_results_outside_the_three_outcomes(
        self, tmp_path, capsys, record, code
    ):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(
            json.dumps(
                {
                    "query": {"text": "nike shoes", "store": "us"},
                    "brand_names": ["nike"],
                    "entities": ["E1"],
                    "source": "sl",
                }
            )
            + "\n"
        )
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps({"candidates": [], "trace": []} | record) + "\n")
        assert run(["eval", "--gold", str(gold), "--results", str(results)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") if code else err == ""

    @pytest.mark.parametrize("field, value", [("entities", "E1"), ("brand_names", "nike")])
    def test_eval_rejects_gold_labels_that_are_not_lists(self, tmp_path, capsys, field, value):
        # Read as a sequence, "E1" would be the two entities E and 1.
        record = {"query": {"text": "nike shoes", "store": "us"}, "brand_names": ["nike"],
                  "entities": ["E1"], "source": "sl"}
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps(record | {field: value}) + "\n")
        results = tmp_path / "results.jsonl"
        results.write_text(json.dumps({"outcome": "single", "best": {"entity": "E1", "score": 1.0},
                                       "candidates": [], "trace": []}) + "\n")
        assert run(["eval", "--gold", str(gold), "--results", str(results)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and field in err
        assert err.count("\n") == 1

    def test_missing_input_file_exits_1(self, tmp_path, capsys):
        code = run(
            [
                "build-dict",
                "--b2e",
                str(tmp_path / "absent.tsv"),
                "--out",
                str(tmp_path / "dict.blaf"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" not in err.strip()

    def test_bad_link_mode_exits_2(self, tmp_path, capsys):
        code = run(
            [
                "link",
                "--queries",
                str(tmp_path / "q.jsonl"),
                "--out",
                str(tmp_path / "r.jsonl"),
                "--mode",
                "psychic",
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_bad_fused_matcher_exits_2(self, tmp_path, capsys):
        code = run(
            [
                "link",
                "--queries",
                str(tmp_path / "q.jsonl"),
                "--out",
                str(tmp_path / "r.jsonl"),
                "--mode",
                "fused",
                "--fused-matcher",
                "foo",
                "--q2e-model",
                str(tmp_path / "q2e.blaf"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--fused-matcher" in err
        assert not (tmp_path / "r.jsonl").exists()

    def test_q2e_link_does_not_load_the_dictionary(self, tmp_path, capsys):
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps({"text": "nike shoes", "store": "us"}) + "\n")
        code = run(
            [
                "link",
                "--queries",
                str(queries),
                "--out",
                str(tmp_path / "r.jsonl"),
                "--mode",
                "q2e",
                "--dict",
                str(tmp_path / "absent-dict.blaf"),
                "--q2e-model",
                str(tmp_path / "absent-q2e.blaf"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "absent-q2e.blaf" in err and "absent-dict.blaf" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--queries", "0"], "--queries"),
            (["--queries", "-3"], "--queries"),
            (["--sizes", "1"], "--sizes"),
            (["--sizes", "60,x"], "--sizes"),
        ],
        ids=["no-queries", "negative-queries", "one-label", "not-a-number"],
    )
    def test_bad_bench_size_exits_2(self, capsys, argv, flag):
        assert run(["bench", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bench", "--dim", "0"], "--dim"),
            (["gen-corpus", "--entities", "-1"], "--entities"),
            (["gen-corpus", "--variants", "9"], "--variants"),
            (["train-xmc", "--dict", "absent.blaf", "--dim", "1000"], "--dim"),
            (["train-pt", "--dim", "1000"], "--dim"),
            (["train-pt", "--reg", "0"], "--reg"),
            (["train-pt", "--reg", "nan"], "--reg"),
        ],
        ids=["bench-dim", "entities", "variants", "xmc-dim", "pt-dim", "reg",
             "nan-reg"],
    )
    def test_out_of_range_value_exits_2_before_reading_input(
        self, tmp_path, capsys, argv, flag
    ):
        # The training file is absent: reading it first would exit 1.
        paths = ["--out", str(tmp_path / "out")]
        if argv[0].startswith("train"):
            paths += ["--train", str(tmp_path / "absent.jsonl")]
        assert run([*argv, *paths]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"text": 5, "store": "us"}, "text"),
            ({"text": ["nike"], "store": "us"}, "text"),
            ({"text": "nike", "store": 5}, "store"),
            ({"text": "nike", "store": "us", "language": 5}, "language"),
        ],
        ids=["int-text", "list-text", "int-store", "int-language"],
    )
    def test_link_rejects_a_non_string_query_field(self, tmp_path, capsys, record, field):
        dictionary = tmp_path / "dict.blaf"
        save_dictionary(build_dictionary([(StoreTag("us"), "nike", "E1")]), dictionary)
        queries = tmp_path / "q.jsonl"
        queries.write_text(json.dumps(record) + "\n")
        argv = ["link", "--queries", str(queries), "--dict", str(dictionary),
                "--out", str(tmp_path / "r.jsonl")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and field in err

    @pytest.mark.parametrize("strength", ["NaN", "Infinity", '"inf"', "true"])
    def test_weak_labels_reject_a_strength_that_is_not_a_finite_number(
        self, tmp_path, capsys, strength
    ):
        # Read as floats, each of these would pass the threshold and label.
        dictionary = tmp_path / "dict.blaf"
        save_dictionary(build_dictionary([(StoreTag("us"), "nike", "E1")]), dictionary)
        logs = tmp_path / "logs.jsonl"
        logs.write_text(
            '{"text": "nike shoes", "store": "us", "product_brand_name": "nike",'
            f' "strength": {strength}}}\n'
        )
        argv = ["gen-weak-labels", "--logs", str(logs), "--dict", str(dictionary),
                "--out", str(tmp_path / "weak.jsonl")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "association_strength" in err
        assert err.count("\n") == 1


    def test_weak_labels_leave_no_partial_out(self, tmp_path, capsys):
        dictionary = tmp_path / "dict.blaf"
        save_dictionary(build_dictionary([(StoreTag("us"), "nike", "E1")]), dictionary)
        logs = tmp_path / "logs.jsonl"
        line = '{{"text": "nike shoes", "store": "us", "product_brand_name": "nike", "strength": {}}}\n'
        logs.write_text(line.format(2) + line.format("NaN"))
        out = tmp_path / "weak.jsonl"
        argv = ["gen-weak-labels", "--logs", str(logs), "--dict", str(dictionary),
                "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error: ValueError:")
        assert not out.exists()

    def test_weak_labels_write_to_stdout(self, tmp_path):
        dictionary = tmp_path / "dict.blaf"
        save_dictionary(build_dictionary([(StoreTag("us"), "nike", "E1")]), dictionary)
        logs = tmp_path / "logs.jsonl"
        logs.write_text(
            '{"text": "nike shoes", "store": "us", "product_brand_name": "nike", "strength": 2}\n'
        )
        done = cli_process(["gen-weak-labels", "--logs", str(logs), "--dict", str(dictionary),
                            "--out", "/dev/stdout"])
        assert done.returncode == 0, done.stderr
        label, summary = done.stdout.splitlines()
        assert json.loads(label)["entities"] == ["E1"]
        assert summary == "weak labels: 1 -> /dev/stdout"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny corpus taken through the full command chain."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    argv = [
        "gen-corpus",
        "--out",
        str(corpus),
        "--entities",
        "20",
        "--variants",
        "2",
        "--branded",
        "80",
        "--nonbranded",
        "30",
        "--pt-types",
        "6",
        "--seed",
        "3",
    ]
    assert run(argv) == 0
    assert (
        run(
            [
                "build-dict",
                "--b2e",
                str(corpus / "b2e.tsv"),
                "--out",
                str(root / "dict.blaf"),
            ]
        )
        == 0
    )
    return root, corpus


class TestWorkflow:
    def test_corpus_and_manifest_exist(self, workspace):
        _, corpus = workspace
        manifest = json.loads((corpus / "manifest.json").read_text())
        assert manifest["counts"]["b2e_rows"] == 40

    def test_dictionary_artifact_loads(self, workspace):
        root, _ = workspace
        dictionary = load_dictionary(root / "dict.blaf")
        assert len(dictionary) > 0

    def test_gen_weak_labels_matches_corpus_output(self, workspace, capsys):
        root, corpus = workspace
        out = root / "wl_again.jsonl"
        code = run(
            [
                "gen-weak-labels",
                "--logs",
                str(corpus / "engagement.jsonl"),
                "--dict",
                str(root / "dict.blaf"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        regenerated = list(read_jsonl(out))
        original = list(read_jsonl(corpus / "weak_labels.jsonl"))
        assert regenerated == original

    def test_link_lexical_and_eval(self, workspace, capsys):
        root, corpus = workspace
        results = root / "results.jsonl"
        code = run(
            [
                "link",
                "--queries",
                str(corpus / "test.jsonl"),
                "--dict",
                str(root / "dict.blaf"),
                "--mode",
                "lexical",
                "--out",
                str(results),
            ]
        )
        assert code == 0
        n_test = sum(1 for _ in read_jsonl(corpus / "test.jsonl"))
        assert sum(1 for _ in read_jsonl(results)) == n_test

        report_path = root / "report.json"
        code = run(
            [
                "eval",
                "--gold",
                str(corpus / "test.jsonl"),
                "--results",
                str(results),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "overall" in out
        assert "macro" in out
        doc = json.loads(report_path.read_text())
        # Test rows reuse training surfaces verbatim: lexical gets them all.
        assert doc["overall"]["metrics"]["recall"] == 100.0
        assert doc["overall"]["metrics"]["precision"] == 100.0

    def test_link_and_eval_are_deterministic(self, workspace, capsys):
        root, corpus = workspace
        outputs = []
        for tag in ("a", "b"):
            results = root / f"det_{tag}.jsonl"
            report_path = root / f"det_{tag}.json"
            assert (
                run(
                    [
                        "link",
                        "--queries",
                        str(corpus / "test.jsonl"),
                        "--dict",
                        str(root / "dict.blaf"),
                        "--mode",
                        "lexical",
                        "--out",
                        str(results),
                    ]
                )
                == 0
            )
            assert (
                run(
                    [
                        "eval",
                        "--gold",
                        str(corpus / "test.jsonl"),
                        "--results",
                        str(results),
                        "--report",
                        str(report_path),
                    ]
                )
                == 0
            )
            outputs.append((results.read_bytes(), report_path.read_bytes()))
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_false_alarm_eval(self, workspace, capsys):
        root, corpus = workspace
        results = root / "fa_results.jsonl"
        report_path = root / "fa_report.json"
        assert (
            run(
                [
                    "link",
                    "--queries",
                    str(corpus / "nonbranded.jsonl"),
                    "--dict",
                    str(root / "dict.blaf"),
                    "--mode",
                    "lexical",
                    "--out",
                    str(results),
                ]
            )
            == 0
        )
        code = run(
            [
                "eval",
                "--gold",
                str(corpus / "nonbranded.jsonl"),
                "--results",
                str(results),
                "--report",
                str(report_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        # On non-branded gold, coverage is the false-alarm rate.  Generator
        # guarantee: no brand surface inside non-branded queries.
        assert json.loads(report_path.read_text())["overall"]["metrics"]["coverage"] == 0.0

    def test_mismatched_gold_and_results_exit_1(self, workspace, capsys):
        root, corpus = workspace
        results = root / "results.jsonl"
        truncated = root / "truncated.jsonl"
        lines = results.read_text().splitlines()[:-1]
        truncated.write_text("\n".join(lines) + "\n")
        code = run(
            [
                "eval",
                "--gold",
                str(corpus / "test.jsonl"),
                "--results",
                str(truncated),
            ]
        )
        assert code == 1
        assert "cannot pair" in capsys.readouterr().err

    def test_train_pt_and_link_with_filter(self, workspace, capsys):
        root, corpus = workspace
        pt_model = root / "pt.blaf"
        code = run(
            [
                "train-pt",
                "--train",
                str(corpus / "pt_train.jsonl"),
                "--out",
                str(pt_model),
                "--dim",
                "65536",
            ]
        )
        assert code == 0
        results = root / "results_pt.jsonl"
        code = run(
            [
                "link",
                "--queries",
                str(corpus / "test_shared.jsonl"),
                "--dict",
                str(root / "dict.blaf"),
                "--mode",
                "lexical",
                "--pt-model",
                str(pt_model),
                "--associations",
                str(corpus / "pt_associations.tsv"),
                "--out",
                str(results),
            ]
        )
        assert code == 0
        capsys.readouterr()
        rows = list(read_jsonl(results))
        assert len(rows) == sum(1 for _ in read_jsonl(corpus / "test_shared.jsonl"))
        # Shared surfaces resolve only through the filter; at least one
        # must have made it to a single prediction.
        assert any(r["outcome"] == "single" for r in rows)

    def test_train_xmc_q2e_and_link(self, workspace, capsys):
        root, corpus = workspace
        model_path = root / "q2e.blaf"
        code = run(
            [
                "train-xmc",
                "--train",
                f"{corpus / 'strong_labels.jsonl'},{corpus / 'weak_labels.jsonl'}",
                "--dict",
                str(root / "dict.blaf"),
                "--target",
                "q2e",
                "--dim",
                "65536",
                "--out",
                str(model_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "q2e model" in out
        results = root / "results_q2e.jsonl"
        code = run(
            [
                "link",
                "--queries",
                str(corpus / "test.jsonl"),
                "--mode",
                "q2e",
                "--q2e-model",
                str(model_path),
                "--out",
                str(results),
            ]
        )
        assert code == 0
        capsys.readouterr()
        rows = list(read_jsonl(results))
        assert rows
        assert {r["outcome"] for r in rows} <= {"single", "nil", "no_prediction"}


    def test_link_fused_with_m2e_matcher(self, workspace, tmp_path, capsys):
        root, corpus = workspace
        for target in ("m2e", "q2e"):
            code = run(
                [
                    "train-xmc",
                    "--train",
                    str(corpus / "strong_labels.jsonl"),
                    "--dict",
                    str(root / "dict.blaf"),
                    "--target",
                    target,
                    "--dim",
                    "65536",
                    "--out",
                    str(tmp_path / f"{target}.blaf"),
                ]
            )
            assert code == 0
        results = tmp_path / "results.jsonl"
        code = run(
            [
                "link",
                "--queries",
                str(corpus / "test.jsonl"),
                "--dict",
                str(root / "dict.blaf"),
                "--mode",
                "fused",
                "--fused-matcher",
                "m2e",
                "--m2e-model",
                str(tmp_path / "m2e.blaf"),
                "--q2e-model",
                str(tmp_path / "q2e.blaf"),
                "--out",
                str(results),
            ]
        )
        assert code == 0
        capsys.readouterr()
        rows = list(read_jsonl(results))
        assert len(rows) == sum(1 for _ in read_jsonl(corpus / "test.jsonl"))
        matches = [
            t["detail"] for r in rows for t in r["trace"] if t["stage"] == "two_stage/match"
        ]
        assert matches and all(m.startswith("m2e: ") for m in matches)
        assert all(r["trace"][-1]["stage"] == "fusion" for r in rows)


def test_bench_reports_scaling_rows(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = run(
        [
            "bench",
            "--sizes",
            "60,120",
            "--queries",
            "20",
            "--dim",
            "65536",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "ratio:" in printed
    doc = json.loads(out.read_text())
    assert [row["labels"] for row in doc["rows"]] == [60, 120]
    for row in doc["rows"]:
        assert row["mean_ms"] > 0.0
