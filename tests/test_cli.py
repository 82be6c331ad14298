from __future__ import annotations

import csv

import pytest

from cfsig.cli import main

from .conftest import UNREACHABLE_DOT


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


class TestOracle:
    def test_diamond(self, capsys, corpus):
        code, out, _ = run_cli(capsys, "oracle", str(corpus / "diamond.dot"))
        assert code == 0
        assert "enumerated: 2" in out
        assert "max_packing: 1" in out
        assert "peeled: 1" in out
