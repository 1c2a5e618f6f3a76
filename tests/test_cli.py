"""Tests for the command-line interface.

Most tests call ``main`` in-process and inspect stdout/stderr and the exit
code; a few run the module in a subprocess to check byte-level determinism
and stdin handling end to end.
"""

import json
import subprocess
import sys

import pytest

import pottspart.cli as cli_mod
from pottspart.cli import main
from pottspart.errors import (
    BudgetError,
    ParseError,
    PottspartError,
    PreconditionError,
    VerificationError,
)
from pottspart.generate import generate_graph
from pottspart.graphs import parse_graph, serialize_graph
from pottspart.oracle import exact_log_z


@pytest.fixture
def bridged_triangles_file(tmp_path):
    path = tmp_path / "triangles.el"
    path.write_text(serialize_graph(generate_graph("clique-chain(2,3,1)")))
    return str(path)


@pytest.fixture
def two_cliques_file(tmp_path):
    path = tmp_path / "twocliques.el"
    path.write_text(serialize_graph(generate_graph("clique-chain(2,5,1)")))
    return str(path)


GOOD_PARTS_ARGS = [
    "--q", "2", "--beta", "40", "--eps", "0.05",
    "--mode", "good-parts", "--parts", "0,1,2/3,4,5",
]


class TestGenerateCommand:
    def test_writes_edge_list_to_stdout(self, capsys):
        assert main(["generate", "cycle(6)"]) == 0
        out = capsys.readouterr().out
        g = parse_graph(out)
        assert g.n == 6 and g.m == 6

    def test_writes_file_and_parses_back(self, tmp_path, capsys):
        target = tmp_path / "g.el"
        assert main(["generate", "random-regular(10,3)", "--seed", "1",
                     "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        g = parse_graph(target.read_text())
        assert all(d == 3 for d in g.degrees)

    def test_seed_determinism(self, capsys):
        main(["generate", "random-regular(12,4)", "--seed", "9"])
        first = capsys.readouterr().out
        main(["generate", "random-regular(12,4)", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_bad_spec_exits_1(self, capsys):
        assert main(["generate", "torus(3,3)"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_infeasible_spec_exits_1(self, capsys):
        assert main(["generate", "random-regular(5,3)"]) == 1
        assert "odd" in capsys.readouterr().err


class TestPartitionCommand:
    def test_two_cliques_kept_whole_and_verified(self, two_cliques_file, capsys):
        assert main(["partition", "--k", "2", two_cliques_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schemaVersion"] == 1
        assert payload["ell"] == 1
        assert payload["verified"] is True
        assert payload["parts"] == [list(range(10))]
        cert = payload["certificates"][0]
        assert cert["sweepConductance"] == "1/21"
        assert cert["phiInnerLowerBound"] == "1/1764"

    def test_disconnected_graph_exits_1(self, tmp_path, capsys):
        path = tmp_path / "disc.el"
        path.write_text(serialize_graph(generate_graph("clique-chain(2,5,0)")))
        assert main(["partition", "--k", "2", str(path)]) == 1
        assert "eigenvalue" in capsys.readouterr().err

    def test_text_format(self, two_cliques_file, capsys):
        assert main(["partition", "--k", "2", "--format", "text",
                     two_cliques_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ell = 1\nverified = True\n")
        assert "part 0: 10 vertices" in out

    def test_missing_file_exits_1(self, capsys):
        assert main(["partition", "--k", "2", "/nonexistent/g.el"]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestPottsCommand:
    def test_good_parts_json_schema_and_value(self, bridged_triangles_file, capsys):
        assert main(["potts", *GOOD_PARTS_ARGS, bridged_triangles_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "schemaVersion", "logZ", "epsBound", "mode", "groundStates",
            "truncationDepth", "clustersEvaluated", "perPsi",
        }
        g = generate_graph("clique-chain(2,3,1)")
        assert abs(payload["logZ"] - exact_log_z(g, 2, 40.0)) <= payload["epsBound"]
        assert payload["mode"] == "partition"
        assert payload["groundStates"] == 4
        assert len(payload["perPsi"]) == 4

    def test_json_is_one_compact_line(self, bridged_triangles_file, capsys):
        assert main(["potts", *GOOD_PARTS_ARGS, bridged_triangles_file]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def test_text_format(self, bridged_triangles_file, capsys):
        assert main(["potts", *GOOD_PARTS_ARGS, "--format", "text",
                     bridged_triangles_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("logZ = ")
        assert "mode = partition\n" in out

    def test_sse_requires_k(self, bridged_triangles_file, capsys):
        assert main(["potts", "--q", "2", "--beta", "40", "--eps", "0.05",
                     bridged_triangles_file]) == 1
        assert "requires --k" in capsys.readouterr().err

    def test_below_threshold_reports_required_beta(
        self, bridged_triangles_file, capsys
    ):
        assert main(["potts", "--q", "2", "--beta", "0.01", "--eps", "0.05",
                     "--mode", "good-parts", "--parts", "0,1,2/3,4,5",
                     bridged_triangles_file]) == 1
        assert "required threshold" in capsys.readouterr().err

    def test_bad_parts_value_exits_1(self, bridged_triangles_file, capsys):
        assert main(["potts", "--q", "2", "--beta", "40", "--eps", "0.05",
                     "--mode", "good-parts", "--parts", "0,1;2",
                     bridged_triangles_file]) == 1
        assert "--parts" in capsys.readouterr().err

    def test_expander_mode_requires_alpha(self, bridged_triangles_file, capsys):
        assert main(["potts", "--q", "2", "--beta", "40", "--eps", "0.05",
                     "--mode", "expander", bridged_triangles_file]) == 1
        assert "requires --alpha" in capsys.readouterr().err

    def test_with_partition_mode(self, tmp_path, capsys):
        # triangle + K_8 joined by an edge; the triangle is the bad part
        path = tmp_path / "mixed.el"
        g = parse_graph(
            serialize_graph(generate_graph("complete(3)"))
            + "".join(f"{u + 3} {v + 3}\n" for u, v in generate_graph("complete(8)").edges)
            + "0 3\n"
        )
        path.write_text(serialize_graph(g))
        assert main(["potts", "--q", "2", "--beta", "55", "--eps", "0.01",
                     "--mode", "with-partition", "--eta", "0.5",
                     "--parts", "0,1,2/3,4,5,6,7,8,9,10", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "partition"
        assert payload["epsBound"] == pytest.approx(2 * 0.01 + 55.0 / 2)


class TestOracleCommand:
    def test_exact_value(self, bridged_triangles_file, capsys):
        assert main(["oracle", "--q", "2", "--beta", "1.5",
                     bridged_triangles_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        g = generate_graph("clique-chain(2,3,1)")
        assert payload["logZ"] == exact_log_z(g, 2, 1.5)
        assert payload["epsBound"] == 0.0
        assert payload["mode"] == "oracle"
        assert payload["schemaVersion"] == 1

    def test_budget_override_warns_and_exits_3(self, two_cliques_file, capsys):
        assert main(["oracle", "--q", "2", "--beta", "1", "--budget-states", "10",
                     two_cliques_file]) == 3
        err = capsys.readouterr().err
        assert "warning:" in err and "overridden to 10" in err
        assert "over budget 10" in err


# eps = 0.01 <= e^(-6/2) sends the 6-vertex instance to the exact oracle
_BUDGET_FLAG_ARGS = {
    "--budget-states": [*GOOD_PARTS_ARGS[:4], "--eps", "0.01", *GOOD_PARTS_ARGS[6:]],
    "--budget-ground-states": GOOD_PARTS_ARGS,
    "--budget-polymers": GOOD_PARTS_ARGS,
    "--budget-clusters": GOOD_PARTS_ARGS,
}


class TestBudgetFlags:
    @pytest.mark.parametrize("flag", sorted(_BUDGET_FLAG_ARGS))
    def test_budget_of_one_exits_3_for_that_call_only(
        self, flag, bridged_triangles_file, capsys
    ):
        argv = ["potts", *_BUDGET_FLAG_ARGS[flag], bridged_triangles_file]
        assert main(argv) == 0
        unbudgeted = capsys.readouterr().out
        assert main([*argv, flag, "1"]) == 3
        assert "overridden to 1" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == unbudgeted

    def test_cluster_budget_counts_the_clusters_reported(
        self, bridged_triangles_file, capsys
    ):
        argv = ["potts", *GOOD_PARTS_ARGS, bridged_triangles_file]
        assert main(argv) == 0
        unbudgeted = capsys.readouterr().out
        clusters = json.loads(unbudgeted)["clustersEvaluated"]
        assert clusters > 0
        assert main([*argv, "--budget-clusters", str(clusters)]) == 0
        assert capsys.readouterr().out == unbudgeted
        assert main([*argv, "--budget-clusters", str(clusters - 1)]) == 3
        assert f"budget {clusters - 1}" in capsys.readouterr().err

    def test_budget_below_one_exits_1(self, bridged_triangles_file, capsys):
        argv = ["potts", *GOOD_PARTS_ARGS, bridged_triangles_file]
        assert main([*argv, "--budget-clusters", "0"]) == 1
        assert "budget must be an integer >= 1" in capsys.readouterr().err

    def test_oracle_takes_only_the_state_budget(self, bridged_triangles_file):
        for flag in ("--budget-ground-states", "--budget-polymers", "--budget-clusters"):
            with pytest.raises(SystemExit) as exc:
                main(["oracle", "--q", "2", "--beta", "1", flag, "5",
                      bridged_triangles_file])
            assert exc.value.code == 1


class TestVerifyCommand:
    def test_pass_exits_0(self, bridged_triangles_file, capsys):
        assert main(["verify", *GOOD_PARTS_ARGS, bridged_triangles_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["difference"] <= payload["epsBound"]
        assert payload["logZApprox"] == pytest.approx(payload["logZExact"])

    def test_text_verdict(self, bridged_triangles_file, capsys):
        assert main(["verify", *GOOD_PARTS_ARGS, "--format", "text",
                     bridged_triangles_file]) == 0
        assert capsys.readouterr().out.startswith("PASS:")

    def test_disagreement_exits_2(
        self, bridged_triangles_file, capsys, monkeypatch
    ):
        real = cli_mod.exact_log_z
        monkeypatch.setattr(
            cli_mod, "exact_log_z", lambda g, q, b, **kw: real(g, q, b, **kw) + 1.0
        )
        assert main(["verify", *GOOD_PARTS_ARGS, bridged_triangles_file]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is False

    def test_fail_text_verdict(self, bridged_triangles_file, capsys, monkeypatch):
        real = cli_mod.exact_log_z
        monkeypatch.setattr(
            cli_mod, "exact_log_z", lambda g, q, b, **kw: real(g, q, b, **kw) + 1.0
        )
        assert main(["verify", *GOOD_PARTS_ARGS, "--format", "text",
                     bridged_triangles_file]) == 2
        assert capsys.readouterr().out.startswith("FAIL:")


class TestUsageErrors:
    def test_missing_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--frobnicate", "g.el"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self, bridged_triangles_file):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", bridged_triangles_file])
        assert exc.value.code == 1

    def test_threads_flag_exits_1(self, bridged_triangles_file):
        with pytest.raises(SystemExit) as exc:
            main(["potts", *GOOD_PARTS_ARGS, "--threads", "2", bridged_triangles_file])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["partition", "--k", "2"],
            ["potts", "--q", "2", "--beta", "40", "--eps", "0.1", "--k", "2"],
        ],
        ids=["partition", "potts"],
    )
    def test_partitioner_constant_flag_exits_1(self, command, bridged_triangles_file):
        # the partitioner's constants are fixed; there is no --C to set
        with pytest.raises(SystemExit) as exc:
            main([*command, "--C", "1", bridged_triangles_file])
        assert exc.value.code == 1


class TestEndToEnd:
    def _run(self, argv, stdin_text=None):
        return subprocess.run(
            [sys.executable, "-m", "pottspart.cli", *argv],
            capture_output=True,
            text=True,
            input=stdin_text,
            timeout=300,
        )

    def test_stdin_input(self):
        edge_text = serialize_graph(generate_graph("clique-chain(2,3,1)"))
        proc = self._run(
            ["oracle", "--q", "2", "--beta", "1.5", "-"], stdin_text=edge_text
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["mode"] == "oracle"

    def test_repeated_runs_byte_identical(self, bridged_triangles_file):
        argv = ["potts", *GOOD_PARTS_ARGS, bridged_triangles_file]
        first = self._run(argv)
        second = self._run(argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestExitCodeTable:
    """main's exit code is the exit_code of the error class raised."""

    @pytest.mark.parametrize(
        "error, code",
        [
            (PreconditionError, 1),
            (ParseError, 1),
            (VerificationError, 2),
            (BudgetError, 3),
            (PottspartError, 1),
        ],
    )
    def test_each_class_gives_its_exit_code(
        self, error, code, bridged_triangles_file, capsys, monkeypatch
    ):
        def failing(args):
            raise error("stubbed failure")

        monkeypatch.setitem(cli_mod._COMMANDS, "oracle", failing)
        rc = main(["oracle", "--q", "2", "--beta", "1", bridged_triangles_file])
        assert rc == error.exit_code == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: stubbed failure"]


class TestParserBuiltOnce:
    def test_main_serves_without_building_a_parser(
        self, bridged_triangles_file, capsys, monkeypatch
    ):
        def no_rebuild():
            raise AssertionError("main rebuilt the argument parser")

        monkeypatch.setattr(cli_mod, "_build_parser", no_rebuild)
        base = ["potts", *GOOD_PARTS_ARGS, bridged_triangles_file]
        # the json request comes last too: an override must not outlive its call
        for argv in (
            base,
            [*base, "--format", "text"],
            [*base, "--budget-clusters", "100000"],
            base,
        ):
            rc = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "pottspart.cli", *argv],
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert (rc, captured.out, captured.err) == (
                fresh.returncode,
                fresh.stdout,
                fresh.stderr,
            )
            assert rc == 0
            assert ("warning:" in captured.err) == ("--budget-clusters" in argv)
