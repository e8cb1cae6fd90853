"""Command-line behavior: verdicts, exit codes, certificates, tracing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bipartite_rigidity import cli, docio, engine
from bipartite_rigidity.cli import main
from bipartite_rigidity.engine import Verdict, rigidity_test, rigidity_test_batch, verify_chain
from bipartite_rigidity.fixtures import emit_fixtures, fixture
from bipartite_rigidity.geometry import BipartiteFramework
from bipartite_rigidity.geometry import SymmetricMatrix
from conftest import huge_k44, thin_image


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    emit_fixtures(out)
    return out


def test_check_universally_rigid(corpus, capsys):
    code = main(["check", str(corpus / "k22_line.json")])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "universally-rigid"


def test_check_not_dimensionally_rigid(corpus, capsys):
    code = main(["check", str(corpus / "separated_line.json")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "not-dimensionally-rigid"


def test_check_dimensionally_rigid(corpus, capsys):
    code = main(["check", str(corpus / "triangle_k21.json")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "dimensionally-rigid"


def test_check_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 1, "P": [["1/0"]], "Q": []}')
    code = main(["check", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/path.json"]) == 2


NOT_UTF8 = b'\xff\xfe{"d":1}'
DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("command", [
    ["check", "{bad}"],
    ["verify", "{bad}", "{good}"],
    ["verify", "{good}", "{bad}"],
    ["separate", "{bad}"],
    ["stress", "{bad}"],
])
def test_non_utf8_input_is_an_input_error(command, corpus, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    good = corpus / "k22_line.json"
    code = main([arg.format(bad=bad, good=good) for arg in command])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize("command", [
    ["check", "{deep}"],
    ["verify", "{deep}", "{good}"],
    ["verify", "{good}", "{deep}"],
])
def test_deeply_nested_input_is_an_input_error(command, corpus, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    good = corpus / "k22_line.json"
    code = main([arg.format(deep=deep, good=good) for arg in command])
    assert code == 2
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


def test_trace_line_count_matches_chain(corpus, capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code = main(
        ["check", str(corpus / "projection_k44.json"), "--trace",
         "--certificate", str(cert_path)]
    )
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    trace_lines = [l for l in out_lines if l.startswith("iteration ")]
    chain = docio.parse_chain(cert_path.read_text())
    assert len(trace_lines) == len(chain.records)
    assert out_lines[-1] == "universally-rigid"


def test_certificate_verifies(corpus, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["check", str(corpus / "cube_k44.json"),
                 "--certificate", str(cert_path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(corpus / "cube_k44.json"), str(cert_path)]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    # wrong framework: rejected with exit 1
    assert main(["verify", str(corpus / "k22_line.json"), str(cert_path)]) == 1
    assert capsys.readouterr().out.strip() == "invalid: record 0: input"


def test_certificate_rejects_edited_field(corpus, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    main(["check", str(corpus / "k22_line.json"), "--certificate", str(cert_path)])
    capsys.readouterr()
    doc = json.loads(cert_path.read_text())
    doc["iterations"][0]["balance"]["lambdas"][0] = "-1/4"
    cert_path.write_text(json.dumps(doc))
    assert main(["verify", str(corpus / "k22_line.json"), str(cert_path)]) == 1
    assert capsys.readouterr().out.strip() == "invalid: record 0: balance"
    # a field of the wrong shape is an input error, located, not a rejection
    for key, value in (("index", "x"), ("balance", [1]), (None, 5)):
        bad = json.loads(json.dumps(doc))
        if key is None:
            bad["iterations"][0] = value
        else:
            bad["iterations"][0][key] = value
        cert_path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify", str(corpus / "k22_line.json"), str(cert_path)]) == 2
        assert "iterations[0]" in capsys.readouterr().err
    # so is a document of a format this reader does not know, or of none
    for value in (None, "1", 1.0, True, 0, 2):
        bad = dict(doc)
        if value is None:
            del bad["format"]
        else:
            bad["format"] = value
        cert_path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["verify", str(corpus / "k22_line.json"), str(cert_path)]) == 2
        assert "format" in capsys.readouterr().err
    # a separating quadric whose stated margin is doubled no longer holds
    main(["check", str(corpus / "separated_line.json"), "--certificate", str(cert_path)])
    doc = json.loads(cert_path.read_text())
    separation = doc["iterations"][-1]["separation"]
    separation["delta"] = str(2 * F(separation["delta"]))
    cert_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(corpus / "separated_line.json"), str(cert_path)]) == 1
    assert capsys.readouterr().out.strip() == "invalid: record 0: separation"


def test_check_thin_cube(tmp_path, capsys):
    path = tmp_path / "thin_cube.json"
    path.write_text(docio.serialize_framework(thin_image(fixture("cube_k44").framework)))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "universally-rigid"


def test_check_tiny_balance_coefficients(tmp_path, capsys):
    # Balance needs two coefficients of about 1e-400, which are 0.0 as
    # doubles; the stress rank is exact, so the verdict does not depend on it.
    fw = BipartiteFramework.from_lists(1, [[0], [2]], [[F(1, 10**400)], [3]])
    verdict, chain = rigidity_test(fw)
    assert verdict is Verdict.UNIVERSALLY_RIGID
    assert [rec.stress.rank for rec in chain.records if rec.kind == "balanced"] == [2]
    assert verify_chain(fw, chain)
    assert verify_chain(fw, docio.parse_chain(docio.serialize_chain(chain)))
    path = tmp_path / "tiny.json"
    path.write_text(docio.serialize_framework(fw))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "universally-rigid"


def test_check_many_files(corpus, capsys):
    code = main([
        "check",
        str(corpus / "k11.json"),
        str(corpus / "separated_line.json"),
        str(corpus / "k22_line.json"),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].endswith("universally-rigid")
    assert lines[1].endswith("not-dimensionally-rigid")
    assert lines[2].endswith("universally-rigid")


def fixture_paths(corpus) -> list[str]:
    return sorted(str(p) for p in corpus.glob("*.json") if p.name != "manifest.json")


@pytest.mark.parametrize("flags", [[], ["--dump-coords"]], ids=["plain", "dump-coords"])
def test_check_many_files_prints_tables_then_verdicts(corpus, capsys, flags):
    # Every coordinate table first, as the single-file check prints it,
    # then one `<path>: <verdict>` line per file, with the batch's verdicts.
    paths = fixture_paths(corpus)
    tables = []
    for path in paths:
        assert main(["check", path, *flags]) == 0
        tables += capsys.readouterr().out.splitlines()[:-1]
    assert bool(tables) == bool(flags)
    frameworks = [docio.parse_framework(Path(path).read_text()) for path in paths]
    verdicts = [f"{path}: {result[0].value}"
                for path, result in zip(paths, rigidity_test_batch(frameworks))]
    assert main(["check", *flags, *paths]) == 0
    assert capsys.readouterr().out == "".join(line + "\n" for line in tables + verdicts)


def test_check_many_files_traces_each_file(corpus, capsys):
    # Each file's iteration lines, then its verdict line.
    paths = fixture_paths(corpus)
    expected = []
    for path in paths:
        assert main(["check", "--trace", path]) == 0
        *iterations, verdict = capsys.readouterr().out.splitlines()
        assert iterations
        expected += [*iterations, f"{path}: {verdict}"]
    assert main(["check", "--trace", *paths]) == 0
    assert capsys.readouterr().out.splitlines() == expected


def refuse(monkeypatch, refused):
    """Make the decision raise ``ValueError("refused")`` for ``refused`` only."""

    def decide(fw):
        if fw == refused:
            raise ValueError("refused")
        return rigidity_test(fw)

    monkeypatch.setattr(engine, "rigidity_test", decide)


def test_check_many_files_reports_a_refused_framework(corpus, monkeypatch, capsys):
    # The other files are still decided; the exit code flags the failure.
    refuse(monkeypatch, docio.parse_framework((corpus / "k11.json").read_text()))
    paths = [str(corpus / "k22_line.json"), str(corpus / "k11.json"),
             str(corpus / "separated_line.json")]
    assert main(["check", *paths]) == cli.EXIT_INPUT
    assert capsys.readouterr().out.splitlines() == [
        f"{paths[0]}: universally-rigid",
        f"{paths[1]}: error: refused",
        f"{paths[2]}: not-dimensionally-rigid",
    ]


def test_check_reports_a_refused_framework(corpus, monkeypatch, tmp_path, capsys):
    # A single file: no verdict, no certificate, and a nonzero exit code.
    path = corpus / "k11.json"
    refuse(monkeypatch, docio.parse_framework(path.read_text()))
    out = tmp_path / "chain.json"
    assert main(["check", "--trace", str(path), "--certificate", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().out == "error: refused\n"
    assert not out.exists()


def test_certificate_flag_needs_single_file(corpus, capsys):
    code = main([
        "check", str(corpus / "k11.json"), str(corpus / "k22_line.json"),
        "--certificate", "/tmp/nope.json",
    ])
    assert code == 2


def test_separate_subcommand(corpus, capsys):
    assert main(["separate", str(corpus / "k22_line.json")]) == 0
    out = capsys.readouterr().out
    assert "lambda[0] = 1/4" in out
    assert main(["separate", str(corpus / "separated_line.json")]) == 0
    assert "margin" in capsys.readouterr().out


def test_stress_subcommand(corpus, capsys):
    assert main(["stress", str(corpus / "k22_line.json")]) == 0
    out = capsys.readouterr().out
    assert "rank 2" in out
    assert main(["stress", str(corpus / "separated_line.json")]) == 0
    assert "no positive stress" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["separate", "stress"])
def test_evidence_subcommands_reject_empty_class(command, tmp_path, capsys):
    path = tmp_path / "one_sided.json"
    path.write_text('{"d": 1, "P": [["0"], ["2"]], "Q": []}')
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


@pytest.fixture(scope="module")
def huge_file(tmp_path_factory):
    # Its separating quadric has entries past the interpreter's
    # 4300-digit limit on decimal conversion.
    path = tmp_path_factory.mktemp("huge") / "huge_k44.json"
    path.write_text(docio.serialize_framework(huge_k44(3)))
    return path


def test_check_trace_past_the_digit_limit(huge_file, capsys):
    assert main(["check", str(huge_file), "--trace", "--dump-coords"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "not-dimensionally-rigid"
    margin = [line for line in out if line.startswith("iteration 0: separated margin=")]
    assert len(margin) == 1 and len(margin[0]) > 4300


def test_check_certificate_past_the_digit_limit(huge_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["check", str(huge_file), "--certificate", str(cert_path)]) == 0
    assert capsys.readouterr().out.strip() == "not-dimensionally-rigid"
    assert main(["verify", str(huge_file), str(cert_path)]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_separate_past_the_digit_limit(corpus, monkeypatch, capsys):
    # The distance LP takes many seconds at this size, so a quadric with a
    # 5000-digit entry stands in for its result.
    big = F(10**5000 + 1, 3)
    monkeypatch.setattr(cli, "max_margin_quadric",
                        lambda fw: (SymmetricMatrix(2, (big, F(-1), F(1, 2))), big))
    assert main(["separate", str(corpus / "separated_line.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"separated; margin = {docio._rat_to_str(big)}"
    assert out[1].split() == [docio._rat_to_str(big), "-1"]
    assert len(out[0]) > 5000


def test_dump_coords(corpus, capsys):
    assert main(["check", str(corpus / "k11.json"), "--dump-coords"]) == 0
    out = capsys.readouterr().out
    assert "# vertex class x..." in out
    assert "0 P 0" in out and "0 Q 1" in out


def test_fixtures_subcommand(tmp_path, capsys):
    assert main(["fixtures", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_module_invocation_smoke(corpus):
    proc = subprocess.run(
        [sys.executable, "-m", "bipartite_rigidity", "check", str(corpus / "k11.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "universally-rigid"
