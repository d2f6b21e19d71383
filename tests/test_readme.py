"""README's examples run as tests, so that the documentation cannot drift
from the code: the python quick start, the command lines, the run
configuration document and the problem descriptors."""

import json
import re
import shlex
from pathlib import Path

import numpy as np

from qvisolve import cli
from qvisolve.problems import default_problem_suite, load_problem

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_block(heading: str, lang: str = "") -> str:
    """The first fenced block (of language lang) after the README heading."""
    match = re.search(rf"^#+ {re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README,
                      re.M | re.S)
    assert match, f"README has no {lang or 'plain'} block under {heading!r}"
    return match.group(1)


def json_documents(text: str) -> list:
    """The JSON values written one after another in text."""
    decoder, docs, i = json.JSONDecoder(), [], 0
    while text[i:].strip():
        i += len(text[i:]) - len(text[i:].lstrip())
        doc, i = decoder.raw_decode(text, i)
        docs.append(doc)
    return docs


def test_quick_start_runs(capsys):
    names = {}
    exec(readme_block("Library quick start", "python"), names)
    assert names["trace"].status == "converged"
    assert names["flow"].status == "completed"
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_command_lines_parse():
    parser = cli.build_parser()
    lines = readme_block("Command line").replace("\\\n", " ").splitlines()
    assert len(lines) == 6
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "qvisolve"
        args = parser.parse_args(words[1:])
        assert args.config is not None or args.func is getattr(cli, f"cmd_{args.command}")


def test_config_document_parses():
    (doc,) = json_documents(readme_block("Run configuration documents", "json"))
    args = cli.build_parser().parse_args(cli._argv_from_config(doc))
    assert args.func is cli.cmd_solve
    assert json.loads(args.problem) == doc["problem"]
    assert (args.x0, args.lam, args.tol, args.max_iter, args.output) == (
        "geometric", 0.1, 1e-10, 300, "trace.csv")


# README's descriptors, by family, and the suite problem each one builds
SUITE_INDEX = {"l2_example": 0, "single_set_vi": 1, "moving_set": 2, "affine": 3}


def test_descriptors_build_the_suite_problems():
    docs = json_documents(readme_block("Problem descriptors", "json"))
    assert sorted(d["family"] for d in docs) == sorted(SUITE_INDEX)
    suite = default_problem_suite()
    rng = np.random.default_rng(13)
    for doc in docs:
        built, expected = load_problem(doc), suite[SUITE_INDEX[doc["family"]]]
        family = doc["family"]
        assert built.dim == expected.dim, family
        assert (built.operator.lipschitz_L, built.operator.strong_rho, built.constraint.lip_l) \
            == (expected.operator.lipschitz_L, expected.operator.strong_rho,
                expected.constraint.lip_l), family
        assert built.known_solution.tobytes() == expected.known_solution.tobytes(), family
        for _ in range(50):
            x, z = 2.0 * rng.standard_normal((2, built.dim))
            assert built.operator.func(x).tobytes() == expected.operator.func(x).tobytes(), family
            assert (built.constraint.project(x, z).tobytes()
                    == expected.constraint.project(x, z).tobytes()), family

