from __future__ import annotations

import csv
import io
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfsig import MutationKind, cli, parse_dot, serialize_graphml
from cfsig.cli import main
from cfsig.errors import CfsigError, ScenarioError, TransportError

from .conftest import FIXTURES, UNREACHABLE_DOT, dot_texts

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
            (["--cipher", "XorStream", "--key", "9", "simulate", "s.scn"], "--cipher belongs after 'bench'"),
            (["--key", "9", "bench", "corpus"], "--key belongs after 'bench'"),
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
            "n=3\nfixture=unreachable.dot\n",
            "n=3\nfixture=diamond.dot\nkey=0\n",
            "n=3\nfixture=diamond.dot\nkey=300\n",
            "n=3\nfixture=diamond.dot\ncipher=XorStream\nkey=-1\n",
            "n=3\nfixture=diamond.dot\ncipher=Null\nkey=-1\n",
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
        refs.write_text("wordmean=6.988\npentomino=4.914\n")
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
            total = float(row["proposed_total_s"])
            parts = (
                float(row["profiling_s"])
                + float(row["matching_s"])
                + float(row["consensus_s"])
            )
            assert total == pytest.approx(parts, abs=2e-4)
            assert float(row["profiling_s"]) == pytest.approx(
                float(row["cfg_to_msa_s"]) + float(row["hashing_s"]), abs=2e-4
            )
            if row["reference_exec_s"]:
                assert float(row["overhead_percent"]) == pytest.approx(
                    total / float(row["reference_exec_s"]) * 100, abs=0.05
                )
        assert rows[0]["reference_exec_s"] == ""  # labels sorted; aggregate* first

    def test_non_numeric_reference_exit_1(self, capsys, tmp_path, fixtures_dir):
        refs = tmp_path / "refs.txt"
        refs.write_text("# seconds\nwordmean=6.988\nwordcount=abc\n")
        code, out, err = run_cli(capsys, "bench", str(fixtures_dir / "bench"), "--reference", str(refs))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {refs}:3: ")

    def test_invalid_fixture_exit_1(self, capsys, tmp_path):
        (tmp_path / "unreachable.dot").write_text(UNREACHABLE_DOT)
        code, _, err = run_cli(capsys, "bench", str(tmp_path))
        assert code == 1
        assert err.startswith("error: unreachable.dot: invalid CFG")

    @pytest.mark.parametrize(
        "argv", [["--key", "0"], ["--key", "300"], ["--cipher", "XorStream", "--key", "-1"]]
    )
    def test_bad_key_exit_1(self, capsys, fixtures_dir, argv):
        code, out, err = run_cli(capsys, "bench", str(fixtures_dir / "bench"), *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: --key: ") and ".dot" not in err

    def test_empty_corpus_exit_5(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "bench", str(tmp_path))
        assert code == 5

    def test_non_ascii_fixture_name_exit_1(self, monkeypatch, tmp_path, fixtures_dir):
        (tmp_path / f"{NON_ASCII_STEM}.dot").write_bytes((fixtures_dir / "diamond.dot").read_bytes())
        # Under an ASCII locale the name is surrogate-escaped: the real stderr writes the
        # escapes as backslashes, a StringIO keeps them, capsys's UTF-8 stream would raise.
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["bench", str(tmp_path)]) == 1
        assert err.getvalue().startswith(f"error: {NON_ASCII_STEM}.dot: label ")


class TestOracle:
    def test_diamond(self, capsys, corpus):
        code, out, _ = run_cli(capsys, "oracle", str(corpus / "diamond.dot"))
        assert code == 0
        assert "enumerated: 2" in out
        assert "max_packing: 1" in out
        assert "peeled: 1" in out


def raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


class TestErrorBoundary:
    """An error raised anywhere inside a subcommand ends in one error line and its exit code."""

    @pytest.mark.parametrize(
        "command,operands,callee,exc,code",
        [
            ("oracle", ["diamond.dot"], "peel_edge_disjoint", CfsigError("peel failed"), 1),
            ("match", ["diamond.sig", "diamond.sig"], "match_signatures", CfsigError("match failed"), 3),
            ("simulate", ["s.scn"], "run_cluster_scenario", TransportError("peer unreachable"), 1),
            ("sign", ["diamond.dot"], "serialize_signature", OSError("disk full"), 1),
            ("bench", ["."], "run_cluster_scenario", ScenarioError("round failed"), 1),
        ],
        ids=["oracle", "match", "simulate", "sign", "bench"],
    )
    def test_callee_error(self, capsys, monkeypatch, corpus, command, operands, callee, exc, code):
        run_cli(capsys, "sign", str(corpus / "diamond.dot"))
        (corpus / "s.scn").write_text("n=3\nfixture=diamond.dot\n")
        monkeypatch.setattr(cli, callee, raising(exc))
        got, out, err = run_cli(capsys, command, *(str(corpus / name) for name in operands))
        assert got == code and out == ""
        assert err.startswith("error: ") and err.endswith(f"{exc}\n") and err.count("\n") == 1


class TestInputEncoding:
    @pytest.mark.parametrize("command", ["sign", "oracle"])
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

    @given(GRAPH_BYTES, st.sampled_from([("sign", ".dot"), ("oracle", ".dot"), ("sign", ".graphml")]))
    @settings(max_examples=150, deadline=None)
    def test_graph_input(self, fuzz_dir, data, command):
        name, suffix = command
        path = fuzz_dir / f"g{suffix}"
        path.write_bytes(data)
        extra = ["--out", str(fuzz_dir / "g.sig")] if name == "sign" else []
        assert_contract_exit([name, str(path), *extra])

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
