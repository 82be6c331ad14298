from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsig import MutationKind, cli, parse_dot
from cfsig.cli import main
from cfsig.errors import CfsigError, ScenarioError, TransportError

from .conftest import FIXTURES, UNREACHABLE_DOT, dot_texts, serialize_graphml

# A DOT file with a byte that no UTF-8 text contains.
UNDECODABLE_DOT = b"digraph g { B1 -> B2; }\xff"
NON_ASCII_DOT = "digraph g { B\u00e9 -> B2; }"
# The stem "d\u00e9" as the file system names it, so the file has the same
# bytes on disk in any locale (under LC_ALL=C it comes back surrogate-escaped).
NON_ASCII_STEM = os.fsdecode("d\u00e9".encode("utf-8"))
# The exact environment the ASCII-locale CI step runs in.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


@pytest.fixture
def corpus(tmp_path, fixtures_dir):
    for p in fixtures_dir.glob("*.dot"):
        (tmp_path / p.name).write_text(p.read_text())
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["simulate"],
            ["sign", "--alg", "XX", "g.dot"],
            ["simulate", "s.scn", "--threaded"],
            ["simulate", "s.scn", "--alg", "SHA256"],
            ["--alg", "SHA256", "simulate", "s.scn"],
            ["--cipher", "XorStream", "--key", "9", "simulate", "s.scn"],
            ["oracle", "diamond.dot"],
            ["bench", "corpus", "--cipher", "XorStream"],  # bench's round has one fixed cipher and key
            ["bench", "corpus", "--key", "9"],
        ],
    )
    def test_usage_error_exit_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: cfsig") and "error: " in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--alg", "SHA256", "simulate", "s.scn"], "--alg belongs after 'sign' or 'bench'"),
            (["--alg=SHA256", "sign", "g.dot"], "--alg belongs after 'sign' or 'bench'"),
        ],
    )
    def test_misplaced_option_names_its_subcommand(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage: cfsig") and err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exit_0(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage: cfsig")

    def test_readme_cli_block_lists_every_subcommand(self):
        readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        documented = {line.split()[1] for line in block.splitlines() if line.startswith("cfsig ")}
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert documented == set(subparsers.choices)


class TestSign:
    def test_sign_diamond(self, capsys, corpus):
        out_path = corpus / "diamond.sig"
        code, out, _ = run_cli(capsys, "sign", str(corpus / "diamond.dot"))
        assert code == 0
        assert out.strip() == "digests: 1"
        assert out_path.read_bytes().startswith(b"cfsig/1\nalg:MD5\nlabel:diamond\n")

    def test_sign_sha256(self, capsys, corpus):
        code, _, _ = run_cli(capsys, "sign", "--alg", "SHA256", str(corpus / "diamond.dot"))
        assert code == 0
        digest_line = (corpus / "diamond.sig").read_text().splitlines()[4]
        assert len(digest_line) == 64

    def test_sign_broken_input(self, capsys, tmp_path):
        bad = tmp_path / "broken.dot"
        bad.write_text("digraph g { B1 -> }")
        code, _, err = run_cli(capsys, "sign", str(bad))
        assert code == 1
        assert "error" in err

    def test_sign_graphml_agrees_with_dot(self, capsys, corpus, fixtures_dir):
        (corpus / "diamond.graphml").write_text(
            (fixtures_dir / "diamond.graphml").read_text()
        )
        run_cli(capsys, "sign", str(corpus / "diamond.dot"), "--out", str(corpus / "a.sig"))
        run_cli(capsys, "sign", str(corpus / "diamond.graphml"), "--out", str(corpus / "b.sig"))
        assert (corpus / "a.sig").read_bytes() == (corpus / "b.sig").read_bytes()

    def test_prune_unreachable(self, capsys, tmp_path):
        path = tmp_path / "unreachable.dot"
        path.write_text(UNREACHABLE_DOT)
        code, _, err = run_cli(capsys, "sign", str(path))
        assert code == 1 and err.startswith("error: invalid CFG")
        code, out, _ = run_cli(capsys, "sign", "--prune-unreachable", str(path))
        assert code == 0 and out == "digests: 1\n"


class TestMatch:
    def test_same_file_matches(self, capsys, corpus):
        run_cli(capsys, "sign", str(corpus / "diamond.dot"))
        sig = str(corpus / "diamond.sig")
        code, out, _ = run_cli(capsys, "match", sig, sig)
        assert code == 0 and out.strip() == "MATCH"

    def test_mismatch_exit_2(self, capsys, corpus):
        run_cli(capsys, "sign", str(corpus / "diamond.dot"))
        run_cli(capsys, "sign", str(corpus / "star.dot"))
        code, out, _ = run_cli(
            capsys, "match", str(corpus / "diamond.sig"), str(corpus / "star.sig")
        )
        assert code == 2
        assert out.startswith("MISMATCH")

    @pytest.mark.parametrize(
        "other,detail",
        [
            (["sign", "--alg", "SHA256"], "AlgorithmDiffer"),
            (None, "SizeDiffer"),
        ],
    )
    def test_mismatch_detail(self, capsys, corpus, other, detail):
        run_cli(capsys, "sign", str(corpus / "diamond.dot"), "--out", str(corpus / "a.sig"))
        b = corpus / "b.sig"
        if other is None:  # greedy peeling gives one digest, so write a two-digest file by hand
            b.write_text("cfsig/1\nalg:MD5\nlabel:two\ncount:2\n" + "0" * 32 + "\n" + "1" * 32 + "\n")
        else:
            run_cli(capsys, *other, str(corpus / "diamond.dot"), "--out", str(b))
        code, out, _ = run_cli(capsys, "match", str(corpus / "a.sig"), str(b))
        assert code == 2 and out == f"MISMATCH {detail}\n"

    def test_malformed_sigfile_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.sig"
        bad.write_bytes(b"garbage")
        code, _, _ = run_cli(capsys, "match", str(bad), str(bad))
        assert code == 3


class TestSimulate:
    def test_clean(self, capsys, corpus):
        scn = corpus / "clean.scn"
        scn.write_text("n=3\nfixture=diamond.dot\n")
        code, out, _ = run_cli(capsys, "simulate", str(scn))
        assert code == 0 and out.strip() == "CLEAN"
        assert (corpus / "clean.transcript").exists()

    def test_tamper(self, capsys, corpus):
        scn = corpus / "tamper.scn"
        scn.write_text("n=3\nfixture=diamond.dot\ntamper=1:RemoveEdge:B2>B4\n")
        code, out, _ = run_cli(capsys, "simulate", str(scn))
        assert code == 2 and out.strip() == "INTRUSION node=1"

    def test_algorithm_name_is_case_insensitive(self, capsys, corpus):
        scn = corpus / "sha.scn"
        scn.write_text("n=3\nfixture=diamond.dot\nalg=sha256\n")
        code, out, _ = run_cli(capsys, "simulate", str(scn))
        assert code == 0 and out.strip() == "CLEAN"
        assert (corpus / "sha.transcript").read_text().startswith("scenario label=diamond n=3 alg=SHA256 ")

    def test_n2_inconclusive(self, capsys, corpus):
        scn = corpus / "n2.scn"
        scn.write_text("n=2\nfixture=diamond.dot\ntamper=1:RemoveEdge:B2>B4\n")
        code, out, _ = run_cli(capsys, "simulate", str(scn))
        assert code == 2 and out.strip() == "INCONCLUSIVE"

    def test_scenario_error_exit_4(self, capsys, corpus):
        scn = corpus / "bad.scn"
        scn.write_text("n=3\nfixture=nope.dot\n")
        code, _, _ = run_cli(capsys, "simulate", str(scn))
        assert code == 4

    @pytest.mark.parametrize(
        "text",
        [
            "n=3\nfixture=diamond.dot\ndead=x\n",
            "n=3\nfixture=diamond.dot\ntamper=7:RemoveEdge:B2>B4\n",
            "n=3\nfixture=diamond.dot\ndead=3\n",
            "n=3\nfixture=diamond.dot\ntamper=1:RemoveEdge:B4>B1\n",
            "n=3\nfixture=diamond.dot\ntamper=1:RemoveNode:B1\n",
            "n=3\nfixture=diamond.dot\ntamper=x:RemoveEdge:B2>B4\n",
            "n=3\nfixture=diamond.dot\ntamper=1:Frobnicate:B1\n",
            "n=3\nfixture=unreachable.dot\n",
            "n=3\nfixture=diamond.dot\nkey=0\n",
            "n=3\nfixture=diamond.dot\nkey=300\n",
            "n=3\nfixture=diamond.dot\ncipher=XorStream\nkey=-1\n",
            "n=3\nfixture=diamond.dot\ncipher=Null\nkey=-1\n",
            "n=3\nn=5\nfixture=diamond.dot\n",
            "n=65537\nfixture=diamond.dot\n",
        ],
    )
    def test_bad_scenario_value_exit_4(self, capsys, corpus, text):
        (corpus / "unreachable.dot").write_text(UNREACHABLE_DOT)
        scn = corpus / "bad.scn"
        scn.write_text(text)
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert code == 4
        assert out == "" and err.startswith("error: ")


class TestBench:
    def test_report_shape(self, capsys, tmp_path, fixtures_dir):
        bench = fixtures_dir / "bench"
        refs = tmp_path / "refs.txt"
        refs.write_text("wordmean=0.002\npentomino=0.004\n")  # job times near the cost, so the percent is large
        csv_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "bench", str(bench), "--reference", str(refs), "--csv", str(csv_path)
        )
        assert code == 0
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 17  # 16 fixtures + average row
        assert rows[-1]["label"] == "average"
        for row in rows[:-1]:
            sign_ms, round_ms, total = (float(row[c]) for c in ("sign_ms", "round_ms", "total_ms"))
            assert min(sign_ms, round_ms, total) > 0  # every timing is a measurement, none reads 0.000
            assert total == pytest.approx(sign_ms + round_ms, abs=2e-3)  # three cells rounded to .3f
            if row["reference_exec_s"]:
                # three significant digits (.3g) of a ratio whose total_ms cell is rounded to .3f
                assert float(row["overhead_percent"]) == pytest.approx(
                    total / 1000 / float(row["reference_exec_s"]) * 100, rel=5e-3 + 5e-4 / total
                )
        assert [row["label"] for row in rows if row["overhead_percent"]] == ["pentomino", "wordmean"]
        assert rows[0]["reference_exec_s"] == ""  # labels sorted; aggregate* first

    # Timings exact in binary, so every formatted cell is free of rounding ties.
    LAYOUT_ROWS = {
        "alpha": {"label": "alpha", "sign_ms": 0.25, "round_ms": 0.5, "total_ms": 0.75},
        "beta": {"label": "beta", "sign_ms": 123456.5, "round_ms": 0.25, "total_ms": 123456.75},
    }

    def test_report_layout(self, capsys, monkeypatch, tmp_path, fixtures_dir):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for stem in self.LAYOUT_ROWS:
            (corpus / f"{stem}.dot").write_bytes((fixtures_dir / "diamond.dot").read_bytes())
        refs = tmp_path / "refs.txt"
        refs.write_text("beta=1562.5\n")
        csv_path = tmp_path / "report.csv"
        monkeypatch.setattr(cli, "_bench_fixture", lambda path, *rest: dict(self.LAYOUT_ROWS[path.stem]))
        code, out, err = run_cli(
            capsys, "bench", str(corpus), "--reference", str(refs), "--csv", str(csv_path)
        )
        assert code == 0 and err == ""
        assert out == (
            "label    sign_ms     round_ms  total_ms    reference_exec_s  overhead_percent\n"
            + "-" * 77 + "\n"
            "alpha    0.250       0.500     0.750                                         \n"
            "beta     123456.500  0.250     123456.750  1562.5000         7.9             \n"
            "average  61728.375   0.375     61728.750                                     \n"
            "note: median of 5 runs; sign_ms = load + peel + sign, round_ms = one clean n=3"
            " in-process round (ShiftByte, key 7); overhead_percent = total_ms / 1000 / reference_exec_s * 100\n"
        )
        assert csv_path.read_bytes() == (
            b"label,sign_ms,round_ms,total_ms,reference_exec_s,overhead_percent\r\n"
            b"alpha,0.250,0.500,0.750,,\r\n"
            b"beta,123456.500,0.250,123456.750,1562.5000,7.9\r\n"
            b"average,61728.375,0.375,61728.750,,\r\n"
        )

    def test_long_job_overhead_reads_above_zero(self, capsys, monkeypatch, tmp_path, fixtures_dir):
        # The paper measured long jobs: 0.75 ms on a 100 s job is a small overhead, but not zero.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "alpha.dot").write_bytes((fixtures_dir / "diamond.dot").read_bytes())
        refs = tmp_path / "refs.txt"
        refs.write_text("alpha=100\n")
        csv_path = tmp_path / "report.csv"
        monkeypatch.setattr(cli, "_bench_fixture", lambda path, *rest: dict(self.LAYOUT_ROWS[path.stem]))
        code, _, _ = run_cli(capsys, "bench", str(corpus), "--reference", str(refs), "--csv", str(csv_path))
        assert code == 0
        with open(csv_path) as fh:
            assert [row["overhead_percent"] for row in csv.DictReader(fh)] == ["0.00075", "0.00075"]

    def test_non_numeric_reference_exit_1(self, capsys, tmp_path, fixtures_dir):
        refs = tmp_path / "refs.txt"
        for value in ("abc", "0", "-2", "nan", "inf"):  # a time must be a finite number above 0
            refs.write_text(f"# seconds\nwordmean=6.988\nwordcount={value}\n")
            code, out, err = run_cli(capsys, "bench", str(fixtures_dir / "bench"), "--reference", str(refs))
            assert code == 1 and out == "", value
            assert err == f"error: {refs}:3: bad reference time {value!r}\n"

    def test_repeated_reference_label_exit_1(self, capsys, tmp_path, fixtures_dir):
        refs = tmp_path / "refs.txt"
        refs.write_text("wordmean=1\nwordcount=2\nwordmean=3\n")
        code, out, err = run_cli(capsys, "bench", str(fixtures_dir / "bench"), "--reference", str(refs))
        assert code == 1 and out == ""
        assert err == f"error: {refs}:3: repeated label 'wordmean'\n"

    def test_unknown_reference_label_exit_1(self, capsys, monkeypatch, tmp_path, fixtures_dir):
        refs = tmp_path / "refs.txt"
        refs.write_text("wordcnt=5\n")
        monkeypatch.setattr(cli, "_bench_fixture", raising(AssertionError("a fixture was timed")))
        code, out, err = run_cli(capsys, "bench", str(fixtures_dir / "bench"), "--reference", str(refs))
        assert code == 1 and out == ""
        assert err == f"error: {refs}:1: unknown label 'wordcnt'\n"

    def test_invalid_fixture_exit_1(self, capsys, tmp_path):
        (tmp_path / "unreachable.dot").write_text(UNREACHABLE_DOT)
        code, _, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 1
        assert err.startswith("error: unreachable.dot: invalid CFG")

    def test_empty_corpus_exit_5(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "bench", str(tmp_path))
        assert code == 5

    @pytest.mark.parametrize("name", ["missing", "diamond.dot"])
    def test_corpus_not_a_directory_exit_1(self, capsys, corpus, name):
        code, out, err = run_cli(capsys, "bench", str(corpus / name))
        assert code == 1 and out == ""
        assert err == f"error: corpus {corpus / name} is not a directory\n"

    def test_shared_label_exit_1(self, capsys, monkeypatch, tmp_path, fixtures_dir):
        for name in ("diamond.dot", "diamond.graphml", "loopback.dot"):
            (tmp_path / name).write_bytes((fixtures_dir / name).read_bytes())
        monkeypatch.setattr(cli, "_bench_fixture", raising(AssertionError("a fixture was timed")))
        code, out, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 1 and out == ""
        assert err == "error: diamond.dot and diamond.graphml share the label 'diamond'\n"

    def test_non_ascii_fixture_name_exit_1(self, monkeypatch, tmp_path, fixtures_dir):
        (tmp_path / f"{NON_ASCII_STEM}.dot").write_bytes((fixtures_dir / "diamond.dot").read_bytes())
        # Under an ASCII locale the name is surrogate-escaped: the real stderr writes the
        # escapes as backslashes, a StringIO keeps them, capsys's UTF-8 stream would raise.
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["bench", str(tmp_path)]) == 1
        assert err.getvalue().startswith(f"error: {NON_ASCII_STEM}.dot: label ")


def raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


class TestErrorBoundary:
    """An error raised anywhere inside a subcommand ends in one error line and its exit code."""

    @pytest.mark.parametrize(
        "command,operands,callee,exc,code",
        [
            ("match", ["diamond.sig", "diamond.sig"], "match_signatures", CfsigError("match failed"), 3),
            ("simulate", ["s.scn"], "run_cluster_scenario", TransportError("peer unreachable"), 1),
            ("sign", ["diamond.dot"], "serialize_signature", OSError("disk full"), 1),
            ("bench", ["."], "run_cluster_scenario", ScenarioError("round failed"), 1),
        ],
        ids=["match", "simulate", "sign", "bench"],
    )
    def test_callee_error(self, capsys, monkeypatch, corpus, command, operands, callee, exc, code):
        run_cli(capsys, "sign", str(corpus / "diamond.dot"))
        (corpus / "s.scn").write_text("n=3\nfixture=diamond.dot\n")
        monkeypatch.setattr(cli, callee, raising(exc))
        got, out, err = run_cli(capsys, command, *(str(corpus / name) for name in operands))
        assert got == code and out == ""
        assert err.startswith("error: ") and err.endswith(f"{exc}\n") and err.count("\n") == 1


class TestInputEncoding:
    @pytest.mark.parametrize("command", ["sign"])
    def test_undecodable_graph_exit_1(self, capsys, tmp_path, command):
        bad = tmp_path / "bad.dot"
        bad.write_bytes(UNDECODABLE_DOT)
        code, out, err = run_cli(capsys, command, str(bad))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read {bad} as UTF-8: ")

    def test_undecodable_bench_fixture_exit_1(self, capsys, tmp_path):
        (tmp_path / "bad.dot").write_bytes(UNDECODABLE_DOT)
        code, out, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error: bad.dot: cannot read ")

    def test_unreadable_bench_fixture_exit_1(self, capsys, tmp_path):
        (tmp_path / "dir.dot").mkdir()
        code, out, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("error: dir.dot: ")

    def test_undecodable_reference_exit_1(self, capsys, tmp_path, fixtures_dir):
        refs = tmp_path / "refs.txt"
        refs.write_bytes(b"wordmean=6.988\n# \xff\n")
        code, out, err = run_cli(capsys, "bench", str(fixtures_dir / "bench"), "--reference", str(refs))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read {refs} as UTF-8: ")

    @pytest.mark.parametrize(
        "scenario,fixture",
        [(b"n=3\nfixture=g.dot\n", UNDECODABLE_DOT), (b"n=3\nfixture=g.dot\n# \xff\n", b"digraph g { B1; }")],
        ids=["fixture", "scenario"],
    )
    def test_undecodable_scenario_input_exit_4(self, capsys, tmp_path, scenario, fixture):
        (tmp_path / "g.dot").write_bytes(fixture)
        scn = tmp_path / "s.scn"
        scn.write_bytes(scenario)
        code, out, err = run_cli(capsys, "simulate", str(scn))
        assert code == 4 and out == ""
        assert err.startswith("error: ") and "as UTF-8: " in err

    def test_non_ascii_ids_sign_alike_from_dot_and_graphml(self, capsys, tmp_path):
        (tmp_path / "g.dot").write_text(NON_ASCII_DOT, encoding="utf-8")
        (tmp_path / "g.graphml").write_text(serialize_graphml(parse_dot(NON_ASCII_DOT)), encoding="utf-8")
        for suffix, sig in ((".dot", "a.sig"), (".graphml", "b.sig")):
            code, out, _ = run_cli(capsys, "sign", str(tmp_path / f"g{suffix}"), "--out", str(tmp_path / sig))
            assert code == 0 and out == "digests: 1\n"
        assert (tmp_path / "a.sig").read_bytes() == (tmp_path / "b.sig").read_bytes()

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, fixtures_dir):
        (tmp_path / "bom").mkdir()
        original = (fixtures_dir / "diamond.dot").read_bytes()
        (tmp_path / "diamond.dot").write_bytes(original)
        (tmp_path / "bom" / "diamond.dot").write_bytes(b"\xef\xbb\xbf" + original)
        for path, sig in ((tmp_path / "diamond.dot", "a.sig"), (tmp_path / "bom" / "diamond.dot", "b.sig")):
            code, out, _ = run_cli(capsys, "sign", str(path), "--out", str(tmp_path / sig))
            assert code == 0 and out == "digests: 1\n"
        assert (tmp_path / "a.sig").read_bytes() == (tmp_path / "b.sig").read_bytes()

    def test_scenario_with_byte_order_mark_runs(self, capsys, corpus):
        scn = corpus / "bom.scn"
        scn.write_bytes(b"\xef\xbb\xbfn=3\nfixture=diamond.dot\n")
        code, out, _ = run_cli(capsys, "simulate", str(scn))
        assert code == 0 and out.strip() == "CLEAN"

    def test_signing_does_not_depend_on_the_locale(self, capsys, tmp_path):
        (tmp_path / "g.dot").write_text(NON_ASCII_DOT, encoding="utf-8")
        assert run_cli(capsys, "sign", str(tmp_path / "g.dot"), "--out", str(tmp_path / "here.sig"))[0] == 0
        src = str(FIXTURES.parent / "src")
        env = {**os.environ, **ASCII_LOCALE, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "cfsig", "sign", str(tmp_path / "g.dot"), "--out", str(tmp_path / "c.sig")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "c.sig").read_bytes() == (tmp_path / "here.sig").read_bytes()


class TestLabels:
    @pytest.mark.parametrize("stem", [NON_ASCII_STEM, "a\nb"])
    def test_sign_label_not_one_ascii_line_exit_1(self, capsys, tmp_path, fixtures_dir, stem):
        path = tmp_path / f"{stem}.dot"
        path.write_bytes((fixtures_dir / "diamond.dot").read_bytes())
        code, out, err = run_cli(capsys, "sign", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: label ") and "must be one line of ASCII" in err
        assert not path.with_suffix(".sig").exists()

    def test_simulate_non_ascii_fixture_exit_4(self, capsys, tmp_path, fixtures_dir):
        (tmp_path / f"{NON_ASCII_STEM}.dot").write_bytes((fixtures_dir / "diamond.dot").read_bytes())
        scn = tmp_path / "s.scn"
        scn.write_bytes("n=3\nfixture=d\u00e9.dot\n".encode("utf-8"))
        code, out, err = run_cli(capsys, "simulate", str(scn))
        # Under an ASCII locale the name cannot be opened at all; either way the round never starts.
        assert code == 4 and out == "" and err.startswith("error: ")
        assert not (tmp_path / "s.transcript").exists()


class TestWriteFailures:
    def test_sign_out(self, capsys, tmp_path, fixtures_dir):
        target = tmp_path / "missing" / "x.sig"
        code, out, err = run_cli(capsys, "sign", str(fixtures_dir / "diamond.dot"), "--out", str(target))
        assert code == 1 and out == "" and err.startswith("error: ") and str(target) in err

    def test_simulate_transcript(self, capsys, corpus):
        scn = corpus / "clean.scn"
        scn.write_text("n=3\nfixture=diamond.dot\n")
        target = corpus / "missing" / "t"
        code, out, err = run_cli(capsys, "simulate", str(scn), "--transcript", str(target))
        assert code == 1 and out == "" and err.startswith("error: ") and str(target) in err

    def test_bench_csv(self, capsys, tmp_path, fixtures_dir):
        target = tmp_path / "missing" / "r.csv"
        code, _, err = run_cli(capsys, "bench", str(fixtures_dir / "bench"), "--csv", str(target))
        assert code == 1 and err.startswith("error: ") and str(target) in err


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "diamond.dot").write_bytes((FIXTURES / "diamond.dot").read_bytes())
    return directory


def assert_contract_exit(argv: list[str]) -> None:
    code = main(argv)
    assert isinstance(code, int) and 0 <= code <= 5


GRAPH_BYTES = st.binary(max_size=80) | dot_texts.map(lambda text: text.encode("utf-8"))
SIGNATURE_BYTES = st.binary(max_size=120) | st.binary(max_size=80).map(
    lambda tail: b"cfsig/1\nalg:MD5\nlabel:" + tail
)
# n stays in 2..9: a round's work grows as n squared, so a huge n is slow, not wrong.
SCENARIO_VALUES = {
    "n": st.integers(2, 9).map(str),
    "tamper": st.builds(
        "{}:{}:{}".format,
        st.integers(-1, 9),
        st.sampled_from([k.value for k in MutationKind] + ["Bogus"]),
        st.sampled_from(["B1>B2", "B2>B4", "B4>B1", "B3>B4>B2", "B2,B3", "B4", "B1", "B9", ""]),
    ),
    "alg": st.sampled_from(["MD5", "SHA1", "SHA256", "md5", "CRC32", ""]),
    "cipher": st.sampled_from(["Null", "ShiftByte", "XorStream", "Rot13", ""]),
    "key": st.integers(-2, 2**64 + 1).map(str) | st.sampled_from(["x", ""]),
    "dead": st.integers(-1, 9).map(str) | st.sampled_from(["x", ""]),
}
SCENARIO_LINES = st.sampled_from(sorted(SCENARIO_VALUES)).flatmap(
    lambda key: SCENARIO_VALUES[key].map(lambda value: f"{key}={value}")
) | st.text(max_size=20).filter(lambda line: line.partition("=")[0].strip() != "n")


class TestCliFuzz:
    """Whatever the input, the CLI returns an exit code of the contract and raises nothing."""

    @given(GRAPH_BYTES, st.sampled_from([".dot", ".graphml"]))
    @settings(max_examples=150, deadline=None)
    def test_graph_input(self, fuzz_dir, data, suffix):
        path = fuzz_dir / f"g{suffix}"
        path.write_bytes(data)
        assert_contract_exit(["sign", str(path), "--out", str(fuzz_dir / "g.sig")])

    @given(SIGNATURE_BYTES, SIGNATURE_BYTES)
    @settings(max_examples=50, deadline=None)
    def test_match(self, fuzz_dir, a, b):
        (fuzz_dir / "a.sig").write_bytes(a)
        (fuzz_dir / "b.sig").write_bytes(b)
        assert_contract_exit(["match", str(fuzz_dir / "a.sig"), str(fuzz_dir / "b.sig")])

    @given(SCENARIO_VALUES["n"], st.lists(SCENARIO_LINES, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_simulate(self, fuzz_dir, n, lines):
        scn = fuzz_dir / "s.scn"
        scn.write_text("\n".join([f"n={n}", "fixture=diamond.dot", *lines]) + "\n", encoding="utf-8")
        assert_contract_exit(["simulate", str(scn), "--transcript", str(fuzz_dir / "s.transcript")])
