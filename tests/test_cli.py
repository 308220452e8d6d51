"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestAllocate:
    def test_prints_table(self, capsys):
        assert main(["allocate", "--kind", "ncp-fe", "--z", "0.5",
                     "2", "3", "5"]) == 0
        out = capsys.readouterr().out
        assert "alpha_i" in out
        assert "P3" in out

    def test_default_kind(self, capsys):
        assert main(["allocate", "--z", "0.5", "2", "3"]) == 0
        assert "ncp-fe" in capsys.readouterr().out

    def test_bad_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["allocate", "--kind", "mesh",
                                       "--z", "0.5", "2"])

    def test_kind_names_are_the_network_kinds(self):
        # The parser holds the names as strings so that it loads no
        # engine; they must stay the values of the enum they convert to.
        from repro.cli import _KINDS
        from repro.dlt.platform import NetworkKind

        assert sorted(_KINDS) == sorted(k.value for k in NetworkKind)
        args = build_parser().parse_args(["allocate", "--z", "0.5", "2"])
        assert args.kind is NetworkKind.NCP_FE

    def test_bad_w_reports_error(self, capsys):
        rc = main(["allocate", "--z", "0.5", "2", "-3"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestSchedule:
    def test_renders_gantt(self, capsys):
        assert main(["schedule", "--kind", "cp", "--z", "0.6",
                     "2", "3", "5"]) == 0
        out = capsys.readouterr().out
        assert "bus" in out
        assert "#" in out and "=" in out


class TestMechanism:
    def test_truthful_round(self, capsys):
        assert main(["mechanism", "--kind", "cp", "--z", "0.5",
                     "--bids", "2", "3", "5"]) == 0
        out = capsys.readouterr().out
        assert "Q_i" in out and "user cost" in out

    def test_exec_override(self, capsys):
        assert main(["mechanism", "--kind", "cp", "--z", "0.5",
                     "--bids", "2", "3", "--exec", "2", "6"]) == 0
        assert "U_i" in capsys.readouterr().out

    def test_exec_length_mismatch(self, capsys):
        rc = main(["mechanism", "--kind", "cp", "--z", "0.5",
                   "--bids", "2", "3", "--exec", "2"])
        assert rc == 2


class TestProtocol:
    def test_honest_run_exit_zero(self, capsys):
        rc = main(["protocol", "--kind", "ncp-fe", "--z", "0.4",
                   "2", "3", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "COMPLETED" in out
        assert "no fines" in out

    def test_deviant_run_exit_one(self, capsys):
        rc = main(["protocol", "--kind", "ncp-fe", "--z", "0.4",
                   "2", "3", "5", "--deviant", "1:multiple-bids"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "TERMINATED" in out
        assert "P2 fined" in out

    def test_cp_rejected(self, capsys):
        rc = main(["protocol", "--kind", "cp", "--z", "0.4", "2", "3"])
        assert rc == 2

    def test_bad_deviant_index(self, capsys):
        rc = main(["protocol", "--kind", "ncp-fe", "--z", "0.4",
                   "2", "3", "--deviant", "7:multiple-bids"])
        assert rc == 2

    def test_bad_deviant_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["protocol", "--z", "0.4", "2", "3",
                                       "--deviant", "1:nonsense"])

    def test_pki_seed_makes_a_commit_transcript_repeat(self, capsys):
        # Keys and commitment nonces come from the seed, so one seed
        # prints the same bytes twice, and another seed changes only
        # the commitment digests.
        def transcript(seed):
            assert main(["protocol", "--z", "0.4", "2", "3", "5", "4",
                         "--bidding-mode", "commit", "--trace",
                         "--pki-seed", str(seed)]) == 0
            return capsys.readouterr().out

        first = transcript(5)
        assert transcript(5) == first
        other = transcript(6)
        changed = [(a, b) for a, b in zip(first.splitlines(),
                                          other.splitlines()) if a != b]
        assert len(first.splitlines()) == len(other.splitlines())
        assert len(changed) == 4
        assert all("commitment" in a and "commitment" in b
                   for a, b in changed)


class TestContend:
    def test_two_engagements_verify_exit_zero(self, capsys):
        rc = main(["contend", "--z", "0.4", "2", "3", "5",
                   "--engagements", "2", "--policy", "sjf", "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "E1" in out and "E2" in out
        assert "matches serial reference" in out
        assert "mean flow time" in out

    def test_json_emits_result_payload(self, capsys):
        import json

        rc = main(["contend", "--z", "0.4", "2", "3",
                   "--engagements", "2", "--policy", "rr", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["type"] == "multi-engagement-result"
        assert doc["policy"] == "rr"
        assert set(doc["outcomes"]) == {"E1", "E2"}

    def test_bad_engagement_count_is_usage_error(self, capsys):
        rc = main(["contend", "--z", "0.4", "2", "3",
                   "--engagements", "0"])
        assert rc == 2
        assert "engagements" in capsys.readouterr().err


class TestSurvey:
    def test_ranks_kinds(self, capsys):
        assert main(["survey", "--z", "0.5", "2", "3", "5"]) == 0
        out = capsys.readouterr().out
        for kind in ("cp", "ncp-fe", "ncp-nfe"):
            assert kind in out


class TestModuleEntry:
    def test_python_dash_m(self):
        import subprocess
        import sys

        r = subprocess.run(
            [sys.executable, "-m", "repro", "allocate", "--z", "0.5", "2", "3"],
            capture_output=True, text=True)
        assert r.returncode == 0
        assert "alpha_i" in r.stdout
