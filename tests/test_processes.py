"""Properties only a fresh interpreter shows: what linking, the text
module, the PT filter and the artifact container import, that every
callable the traced benchmark wraps still exists, and that trained
models do not depend on the BLAS thread count."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import brandlink
from brandlink.cli import run

SRC = Path(brandlink.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Modules only an optimizer needs; none may load to link.
TRAINER_MODULES = ("scipy.optimize", "scipy.special", "scipy.linalg")


def python(code: str, *args: str, threads: int | None = None) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_linking_does_not_load_the_trainer():
    loaded = python(
        "import sys, brandlink, brandlink.cli\n"
        f"print(*(m for m in {TRAINER_MODULES!r} if m in sys.modules))"
    )
    assert loaded.split() == []


def test_text_loads_no_other_module_of_the_package():
    # The package root re-exports nothing, so a submodule loads only what
    # it imports itself; text needs neither scipy nor a sibling.
    loaded = python(
        "import sys, brandlink.text\n"
        "print(*(m for m in sys.modules if m.split('.')[0] in ('brandlink', 'scipy')))"
    )
    assert sorted(loaded.split()) == ["brandlink", "brandlink.text"]


def test_ptfilter_loads_no_ranker_module():
    # The PT predictor shares the linear solver, and its default penalty,
    # with the ranker, but nothing of brandlink.xmc.
    loaded = python(
        "import sys, brandlink.ptfilter\n"
        "print(*(m for m in sys.modules if m.startswith('brandlink.xmc')))"
    )
    assert loaded.split() == []


def test_binio_loads_no_other_module_of_the_package():
    # The container stores and serves arrays; what a model's arrays must
    # hold is checked where the model is built.
    loaded = python(
        "import sys, brandlink.binio\n"
        "print(*(m for m in sys.modules if m.split('.')[0] == 'brandlink'))"
    )
    assert sorted(loaded.split()) == ["brandlink", "brandlink.binio"]


def test_every_benchmark_wrap_point_resolves():
    # perfbench/tracing.py wraps the program's callables by module and
    # attribute name; after a rename its install raises a TraceError that
    # names each missing attribute, and the traced benchmark cannot run.
    count = python(
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from tracing import WRAP_POINTS, Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
        "print(len(WRAP_POINTS))\n",
        str(PERFBENCH),
    )
    assert int(count) > 0


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("blas")
    corpus = root / "corpus"
    assert run([
        "gen-corpus", "--out", str(corpus), "--entities", "300", "--variants", "3",
        "--branded", "1200", "--nonbranded", "400", "--pt-types", "10", "--seed", "17",
    ]) == 0
    dictionary = ["build-dict", "--b2e", str(corpus / "b2e.tsv"), "--out", str(root / "dict.blaf")]
    assert run(dictionary) == 0
    return root, corpus


TRAIN = """
import sys, json
from brandlink.cli import run
for argv in json.loads(sys.argv[1]):
    if run(argv) != 0:
        sys.exit(f"brandlink {argv[0]} failed")
"""


def test_models_do_not_depend_on_blas_threads(corpus, tmp_path):
    root, data = corpus
    digests = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        commands = [
            [
                "train-xmc", "--train",
                f"{data / 'strong_labels.jsonl'},{data / 'weak_labels.jsonl'}",
                "--dict", str(root / "dict.blaf"), "--target", "q2e", "--dim", "65536",
                "--out", str(out / "q2e.blaf"),
            ],
            [
                "train-pt", "--train", str(data / "pt_train.jsonl"), "--dim", "65536",
                "--out", str(out / "pt.blaf"),
            ],
        ]
        python(TRAIN, json.dumps(commands), threads=threads)
        digests.append(
            {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("q2e.blaf", "pt.blaf")
            }
        )
    assert digests[0] == digests[1]
