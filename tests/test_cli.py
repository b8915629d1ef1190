import csv
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delaycent import DYNAMICS, NoiseStructure, build_matrices, parse_edge_list, performance
from delaycent.cli import remap_node_ids, run
from delaycent.graph import tokenize_edge_lines

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def invoke(*argv):
    """Run the CLI in a subprocess; returns (exit_code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "delaycent.cli", *argv],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_stability_example():
    code, out, _ = invoke("stability", "--graph", str(FIXTURES / "k2.edges"), "--tau", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["stable"] is True
    assert payload["tau_max"] == pytest.approx(math.pi / 4, rel=1e-11)


def test_centrality_example_values():
    code, out, _ = invoke(
        "centrality", "--graph", str(FIXTURES / "p3.edges"), "--structure", "dynamics", "--tau", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"] == pytest.approx([5 / 18, 1 / 9, 5 / 18], rel=1e-10)
    assert payload["ranking"] == [0, 2, 1]
    assert payload["tie_groups"] == [[0, 2]]


def test_rank_matches_centrality_ranking():
    args = ["--graph", str(FIXTURES / "ex1_8n20e.edges"), "--structure", "dynamics", "--tau", "0.1"]
    _, cent_out, _ = invoke("centrality", *args)
    _, rank_out, _ = invoke("rank", *args)
    assert json.loads(rank_out)["ranking"] == json.loads(cent_out)["ranking"]


def test_csv_and_json_encode_identical_content(tmp_path):
    args = [
        "--graph", str(FIXTURES / "c4.edges"), "--structure", "sensor", "--tau", "0.3",
    ]
    _, json_out, _ = invoke("centrality", *args, "--format", "json")
    _, csv_out, _ = invoke("centrality", *args, "--format", "csv")
    payload = json.loads(json_out)
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == len(payload["indices"])
    for row in rows:
        k = int(row["id"])
        assert float(row["index"]) == payload["indices"][k]
        assert payload["ranking"][int(row["rank"])] == k


def test_sweep_tau_csv_cross_parse():
    args = [
        "--graph", str(FIXTURES / "p3.edges"), "--structure", "dynamics",
        "--tau-grid", "0,0.2,0.4",
    ]
    _, json_out, _ = invoke("sweep-tau", *args, "--format", "json")
    _, csv_out, _ = invoke("sweep-tau", *args, "--format", "csv")
    payload = json.loads(json_out)
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(rows) == 3 * 3
    for row in rows:
        report = payload["reports"][payload["tau_grid"].index(float(row["tau"]))]
        assert float(row["index"]) == report["indices"][int(row["id"])]
    # The inversion on P3 shows up in the flip log.
    assert payload["rank_changes"], "expected at least one rank change"


def test_sweep_scale_matches_baseline_flag():
    code, out, _ = invoke(
        "sweep-scale", "--graph", str(FIXTURES / "c4.edges"), "--structure", "dynamics",
        "--tau", "0", "--alpha-grid", "0.5,1,2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_baseline"] == [True, True, True]


def test_perf_with_sigma_file(tmp_path):
    sigma = tmp_path / "sigma.json"
    sigma.write_text("[1.0, 0.0, 0.0]")
    code, out, _ = invoke(
        "perf", "--graph", str(FIXTURES / "p3.edges"), "--structure", "dynamics",
        "--tau", "0", "--sigma", str(sigma),
    )
    assert code == 0
    assert json.loads(out)["rho_ss"] == pytest.approx(5 / 18, rel=1e-10)


def test_second_order_subcommand():
    code, out, _ = invoke(
        "second-order", "--graph", str(FIXTURES / "k2.edges"), "--b", "1.0", "--tau", "0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"] == pytest.approx([0.0625, 0.0625], abs=1e-8)
    assert payload["structure"] == "second-order-dynamics"
    assert payload["tau_max"] is None


def test_simulate_subcommand_fast_budget():
    code, out, _ = invoke(
        "simulate", "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics",
        "--tau", "0", "--dt", "0.005", "--burn-in", "2", "--horizon", "20",
        "--traj", "4", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rho_hat"] > 0
    assert payload["config"]["seed"] == 5


def test_verify_subcommand_passes():
    code, out, err = invoke(
        "verify", "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics",
        "--tau", "0", "--dt", "0.002", "--burn-in", "10", "--horizon", "100",
        "--traj", "16", "--seed", "7",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "PASS" in err


def test_verify_scores_the_closed_form_at_the_snapped_delay():
    # 777.5 steps of dt = 1e-3 snap to 778: the run steps at tau = 0.778.
    code, out, err = invoke(
        "verify", "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics",
        "--tau", "0.7775", "--traj", "2", "--burn-in", "1", "--horizon", "1",
    )
    assert code in (0, 4), err
    payload = json.loads(out)
    k2 = build_matrices(parse_edge_list("0 1"))
    assert payload["rho_closed_form"] == float(f"{performance(k2, DYNAMICS, 0.778):.12g}")
    assert payload["tau"] == 0.7775 and payload["tau_snapped"] == 0.778
    assert "at tau_snapped = 0.778" in err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_unstable_snapped_delay_exits_3(command):
    # tau is inside the stability region, but it snaps to 200 dt, past tau_max.
    tau = math.pi / 4 * (1 - 1e-3)
    code, out, err = invoke(
        command, "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics",
        "--tau", repr(tau), "--dt", repr(tau / 199.6), "--burn-in", "1", "--horizon", "2000",
        "--traj", "2",
    )
    assert code == 3
    assert out == ""
    assert "delay tau=0.786185 " in err


class TestExitCodes:
    def test_usage_error_missing_flag(self):
        code, _, _ = invoke("centrality", "--graph", str(FIXTURES / "k2.edges"))
        assert code == 2

    def test_unknown_structure(self):
        for name in ("gremlins", "custom"):
            code, _, err = invoke(
                "centrality", "--graph", str(FIXTURES / "k2.edges"),
                "--structure", name, "--tau", "0",
            )
            assert code == 2
            assert "unknown noise structure" in err
            listed = err.strip().split("expected one of: ")[1].split(", ")
            assert listed == [s.value for s in NoiseStructure]

    def test_unreadable_graph(self):
        code, _, err = invoke(
            "centrality", "--graph", "/nonexistent.edges", "--structure", "dynamics", "--tau", "0"
        )
        assert code == 2
        assert "cannot read graph" in err

    def test_malformed_graph(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 0 1.0\n")
        code, _, err = invoke(
            "centrality", "--graph", str(bad), "--structure", "dynamics", "--tau", "0"
        )
        assert code == 2
        assert "self-loop" in err

    def test_unstable_tau_exit_3_names_bound(self):
        code, _, err = invoke(
            "centrality", "--graph", str(FIXTURES / "k2.edges"),
            "--structure", "dynamics", "--tau", "1.0",
        )
        assert code == 3
        assert "0.785398" in err

    @pytest.mark.parametrize("tau", ["0.8", "1.2"])
    def test_second_order_past_tau_c_exit_3_names_bound(self, tau, capsys):
        # K2 (lambda = 2) at b = 1 crosses into instability at tau_c = 0.520494.
        argv = ["second-order", "--graph", str(FIXTURES / "k2.edges"), "--b", "1", "--tau", tau]
        assert run(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"delay tau={tau}" in err and "tau_max=0.520494" in err

    @pytest.mark.parametrize("traj", ["1", "0"])
    def test_verify_needs_two_trajectories_exit_2(self, traj, monkeypatch, capsys):
        def no_simulation(*args):
            raise AssertionError("verify simulated before refusing --traj")

        monkeypatch.setattr("delaycent.oracles.simulate", no_simulation)
        argv = ["verify", "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics", "--traj", traj]
        assert run(argv) == 2
        assert capsys.readouterr().err == "error: verify needs at least two trajectories (--traj >= 2)\n"

    def test_perf_and_simulate_check_variances_first(self, tmp_path, capsys):
        # Negative variances and an unstable delay: both commands name the variances.
        sigma = tmp_path / "sigma.json"
        sigma.write_text("[-1.0, 1.0]")
        outcomes = []
        for command in ("perf", "simulate"):
            code = run([
                command, "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics",
                "--tau", "5", "--sigma", str(sigma),
            ])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1] == (2, "error: variances must be finite and nonnegative\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["centrality", "--tau", "0.1"],
            ["rank", "--tau", "0.1"],
            ["sweep-tau", "--tau-grid", "0,0.1"],
            ["sweep-scale", "--tau", "0.1", "--alpha-grid", "1,2"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("structure", ["measurement", "comm-channel"])
    def test_link_report_without_edges_exit_2(self, argv, structure, tmp_path, capsys):
        # One node and no edge: nothing to rank, refused before any report is made.
        lone = tmp_path / "lone.edges"
        lone.write_text("n=1\n")
        assert run([*argv, "--graph", str(lone), "--structure", structure]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: graph has no edge to rank for {structure} noise\n"

    def test_edgeless_perf_and_sensitivity_keep_their_answers(self, tmp_path, capsys):
        lone = tmp_path / "lone.edges"
        lone.write_text("n=1\n")
        base = ["--graph", str(lone), "--tau", "0.1"]
        assert run(["perf", *base, "--structure", "measurement"]) == 0
        assert json.loads(capsys.readouterr().out)["rho_ss"] == 0.0
        assert run(["sensitivity", *base, "--structure", "dynamics"]) == 0
        assert json.loads(capsys.readouterr().out)["kappa"] == []

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n2 3\n", "graph is disconnected (4 nodes, 2 edges)"),  # too few edges
            ("0 1\n1 2\n0 2\n3 4\n3 5\n", "graph is disconnected (6 nodes, 5 edges)"),  # two components
        ],
        ids=["two-pairs", "triangle-and-path"],
    )
    def test_disconnected_exit_3(self, text, message, tmp_path):
        two = tmp_path / "two.edges"
        two.write_text(text)
        code, out, err = invoke(
            "centrality", "--graph", str(two), "--structure", "dynamics", "--tau", "0"
        )
        assert (code, out, err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("edge", ["0 1", "5 9"], ids=["dense", "sparse"])
    def test_header_its_edges_cannot_connect_exit_3(self, edge, tmp_path, capsys):
        # Once a traceback (exit 1): free ids were padded up to the header's
        # count with an 8 TiB array before the graph was built.
        graph = tmp_path / "huge.edges"
        graph.write_text(f"n={2**40}\n{edge}\n")
        assert run(["stability", "--graph", str(graph), "--tau", "0.1"]) == 3
        assert capsys.readouterr() == ("", "error: graph is disconnected (1099511627776 nodes, 1 edge)\n")

    def test_weakly_connected_exit_3_names_resolution(self, tmp_path):
        # Connected, but lambda_2 ~ 5e-11 falls under the zero-mode resolution.
        weak = tmp_path / "weak.edges"
        weak.write_text("0 1 1\n1 2 1e-10\n2 3 1\n")
        from delaycent import is_connected, parse_edge_list

        assert is_connected(parse_edge_list(weak.read_text()))
        code, _, err = invoke(
            "centrality", "--graph", str(weak), "--structure", "dynamics", "--tau", "0"
        )
        assert code == 3
        assert "graph is connected, but lambda_2 falls under the zero-mode resolution" in err
        assert "disconnected" not in err
        assert "raw lambda_2 = " in err and "lambda_max = " in err and "ZERO_REL_TOL" in err

    def test_numeric_failure_exit_4(self, tmp_path):
        # lam = 0.5 with tau = pi/3, b = sqrt(3) puts a zero of the
        # second-order denominator kernel on the frequency axis.
        quarter = tmp_path / "quarter.edges"
        quarter.write_text("0 1 0.25\n")
        code, _, err = invoke(
            "second-order", "--graph", str(quarter), "--b", f"{math.sqrt(3)}",
            "--tau", f"{math.pi / 3}",
        )
        assert code == 4
        assert "marginal" in err

    @pytest.mark.parametrize("edges, tau, lam", [("0 1 1e80\n", "0", 2e80), ("0 1 1e110\n", "0", 2e110), (None, "1e-120", 2.0)])
    def test_second_order_extreme_scales_give_the_closed_form(self, edges, tau, lam, tmp_path):
        # Once refused as out of range (h(w) ~ w^4 past the truncation
        # frequency): each node holds half the mode's 1 / (2 b lam^2).
        graph = FIXTURES / "k2.edges"
        if edges is not None:
            graph = tmp_path / "huge.edges"
            graph.write_text(edges)
        code, out, err = invoke("second-order", "--graph", str(graph), "--b", "1", "--tau", tau)
        assert (code, err) == (0, "")
        assert json.loads(out)["indices"] == [pytest.approx(0.25 / lam**2, rel=1e-12)] * 2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_output_exit_2(self, fmt, tmp_path, capsys):
        out = tmp_path / "missing" / "report.out"
        argv = ["--structure", "dynamics", "--tau", "0", "--format", fmt, "--output", str(out)]
        assert run(["centrality", "--graph", str(FIXTURES / "p3.edges"), *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["centrality", "--structure", "dynamics", "--tau", "0"], 0),
            (["stability", "--tau", "0.1"], 0),
            (["sweep-tau", "--structure", "dynamics", "--tau-grid", "0,9"], 3),  # past tau_max
        ],
        ids=["centrality", "stability", "refused"],
    )
    def test_sparse_ids_write_no_side_file(self, argv, code, tmp_path, capsys):
        # The id map once went beside --output, or beside the graph without one.
        graph = tmp_path / "sparse9w.edges"
        graph.write_text((FIXTURES / "sparse9w.edges").read_text())
        assert run([*argv, "--graph", str(graph)]) == code
        assert run([*argv, "--graph", str(graph), "--output", str(tmp_path / "report.json")]) == code
        names = ["report.json", "sparse9w.edges"] if code == 0 else ["sparse9w.edges"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert "note:" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["perf", "simulate"])
    @pytest.mark.parametrize(
        "content,message",
        [
            ("[1.0, NaN, 1.0]", "variances must be finite and nonnegative"),
            ("[1.0, Infinity, 1.0]", "variances must be finite and nonnegative"),
            ("[1.0, -0.5, 1.0]", "variances must be finite and nonnegative"),
            ('{"0": 1.0}', "variances must be numbers"),
            ('["1", 1.0, 1.0]', "variances must be numbers"),
            ("[true, 1.0, 1.0]", "variances must be numbers"),
            ("[1.0, 1.0]", "3 noise channels need shape (3,)"),
            ("[1.0,", "cannot read variance file"),
        ],
    )
    def test_bad_variance_file_exit_2(self, command, content, message, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(content)
        code = run([
            command, "--graph", str(FIXTURES / "p3.edges"), "--structure", "dynamics",
            "--tau", "0.1", "--sigma", str(sigma),
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--tau", "nan"],
            ["stability", "--tau=-inf"],
            ["second-order", "--b", "1.0", "--tau", "nan"],
            ["sweep-tau", "--structure", "dynamics", "--tau-grid", "0,nan"],
            ["sweep-tau", "--structure", "dynamics", "--tau-grid", "0,inf"],
            ["sweep-scale", "--structure", "dynamics", "--tau", "0", "--alpha-grid", "1,inf"],
            ["sweep-scale", "--structure", "dynamics", "--tau", "nan", "--alpha-grid", "1"],
            ["perf", "--structure", "dynamics", "--tau", "inf"],
            ["centrality", "--structure", "dynamics", "--tau", "nan"],
            ["simulate", "--structure", "dynamics", "--tau", "nan"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_non_finite_delay_exit_2(self, argv, capsys):
        code = run([*argv, "--graph", str(FIXTURES / "k2.edges")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["second-order", "--b", "inf"], "velocity gain b"),
            (["second-order", "--b", "nan"], "velocity gain b"),
            (["second-order", "--b", "1.0", "--quad-tol", "inf"], "quad_tol"),
            (["second-order", "--b", "1.0", "--quad-tol", "nan"], "quad_tol"),
            (["simulate", "--structure", "dynamics", "--tau", "0", "--dt", "inf"], "dt"),
            (["simulate", "--structure", "dynamics", "--tau", "0", "--horizon", "inf"], "horizon"),
            (["simulate", "--structure", "dynamics", "--tau", "0", "--burn-in", "inf"], "burn_in"),
            (["verify", "--structure", "dynamics", "--tau", "0", "--horizon", "nan"], "horizon"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else v,
    )
    def test_non_finite_parameter_exit_2(self, argv, name, capsys):
        code = run([*argv, "--graph", str(FIXTURES / "k2.edges")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name} must be finite and positive" in err

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_horizon_under_half_a_step_exit_2(self, command, capsys):
        # With the default dt = 1e-3, a 0.0004 horizon would measure no step.
        code = run([
            command, "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics",
            "--tau", "0", "--horizon", "0.0004",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: horizon=0.0004 ") and "dt=0.001" in err

    def test_negative_seed_exit_2(self, capsys):
        # Streams are keyed on the seed as an unsigned 64-bit word, where -1
        # would alias 2**64 - 1.
        code = run([
            "simulate", "--graph", str(FIXTURES / "k2.edges"), "--structure", "dynamics",
            "--tau", "0", "--horizon", "0.01", "--seed", "-1",
        ])
        assert code == 2
        assert "seed must lie in [0, 2**64), got -1" in capsys.readouterr().err


class TestOneDecomposition:
    @pytest.mark.parametrize(
        "argv",
        [
            ["perf", "--structure", "dynamics", "--tau", "0.1"],
            ["perf", "--structure", "comm-channel", "--tau", "0.1"],
            ["sensitivity", "--structure", "sensor", "--tau", "0.1"],
            ["sensitivity", "--structure", "dynamics", "--tau", "0.1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_one_eigh_per_op(self, argv, monkeypatch, tmp_path):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        graph = str(FIXTURES / "ex1_8n20e.edges")
        assert run([*argv, "--graph", graph, "--output", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1

    def test_error_precedence_kept(self, capsys):
        # The delay is checked before the structure, as with two decompositions.
        graph = str(FIXTURES / "k2.edges")
        assert run(["sensitivity", "--graph", graph, "--structure", "emitter", "--tau", "1.0"]) == 3
        assert run(["sensitivity", "--graph", graph, "--structure", "emitter", "--tau", "0.1"]) == 2
        assert "dynamics and sensor" in capsys.readouterr().err


class TestRemapping:
    def test_sparse_ids_remapped_without_side_file(self, tmp_path):
        graph = tmp_path / "sparse.edges"
        graph.write_text("5 9 2.0\n")
        out_path = tmp_path / "report.json"
        code = run([
            "centrality", "--graph", str(graph), "--structure", "dynamics",
            "--tau", "0", "--output", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["ids"] == [5, 9]
        assert payload["ranking"] == [5, 9]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "sparse.edges"]

    def test_gap_ids_remapped(self, tmp_path):
        graph = tmp_path / "gap.edges"
        graph.write_text("0 2\n2 3\n")
        out_path = tmp_path / "report.json"
        code = run([
            "centrality", "--graph", str(graph), "--structure", "dynamics",
            "--tau", "0", "--output", str(out_path),
        ])
        assert code == 0
        assert json.loads(out_path.read_text())["ids"] == [0, 2, 3]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gap.edges", "report.json"]

    @pytest.mark.parametrize("low", [2**63, 2**70])
    def test_huge_ids_stay_exact(self, tmp_path, low):
        # The path a - b - c: the ends a, c lead without delay (a tie), the
        # centre b leads near tau_max = pi/6, so each end flips with b.
        a, b, c = low + 5, 2 * low - 1, low
        graph = tmp_path / "huge.edges"
        graph.write_text(f"{a} {b}\n{b} {c}\n")
        out_path = tmp_path / "sweep.json"
        code = run([
            "sweep-tau", "--graph", str(graph), "--structure", "dynamics",
            "--tau-grid", "0,0.47", "--output", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        first, last = payload["reports"]
        assert first["ids"] == last["ids"] == [c, a, b]
        assert first["ranking"] == [c, a, b] and first["tie_groups"] == [[c, a]]
        assert last["ranking"] == [b, c, a] and last["tie_groups"] == [[c, a]]
        assert payload["rank_changes"] == [[0, c, b], [0, a, b]]
        code = run([
            "rank", "--graph", str(graph), "--structure", "dynamics",
            "--tau", "0.47", "--output", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["ranking"] == [b, c, a] and payload["tie_groups"] == [[c, a]]

    def test_simulate_names_nodes_by_raw_id(self, tmp_path):
        graph = tmp_path / "sparse.edges"
        graph.write_text("10 20\n20 35\n")
        argv = [
            "simulate", "--graph", str(graph), "--structure", "dynamics", "--tau", "0",
            "--dt", "0.005", "--burn-in", "1", "--horizon", "2", "--traj", "2",
        ]
        assert run([*argv, "--output", str(tmp_path / "sim.json")]) == 0
        payload = json.loads((tmp_path / "sim.json").read_text())
        assert payload["ids"] == [10, 20, 35]
        assert run([*argv, "--format", "csv", "--output", str(tmp_path / "sim.csv")]) == 0
        header, row = csv.reader(io.StringIO((tmp_path / "sim.csv").read_text()))
        assert header[4:] == ["var_10", "var_20", "var_35"]
        assert [float(v) for v in row[4:]] == pytest.approx(payload["per_node_var"], rel=1e-11)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=2\n0 1\n1 2\n", "line 3: node id 2 >= declared node count 2"),  # as parse_edge_list
            ("n=2\n5 9\n9 11\n", "line 3: node id 11 is one too many for n=2"),
            ("n=2\n5 9\n11 9\n", "line 3: node id 11 is one too many for n=2"),
            # The third id read is named, not the third largest or smallest.
            ("n=2\n5 9\n1 5\n", "line 3: node id 1 is one too many for n=2"),
        ],
        ids=["dense", "sparse", "sparse-first-endpoint", "sparse-reading-order"],
    )
    def test_more_ids_than_declared_exit_2(self, text, message, tmp_path, capsys):
        graph = tmp_path / "over.edges"
        graph.write_text(text)
        assert run(["stability", "--graph", str(graph), "--tau", "0.1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.idmap.json"))

    @pytest.mark.parametrize("text", ["n=3\n0 1\n1 2\n", "n=2\n5 9\n"], ids=["dense", "sparse"])
    def test_exactly_the_declared_ids_accepted(self, text, tmp_path, capsys):
        graph = tmp_path / "full.edges"
        graph.write_text(text)
        assert run(["stability", "--graph", str(graph), "--tau", "0.1"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == int(text[2])

    def test_larger_header_keeps_its_count_however_the_ids_are_spelled(self, tmp_path, capsys):
        # Under n=12 the ids 5, 9, 11 name three of twelve nodes, as 0, 1, 2 do.
        errors = []
        for name, text in [("dense", "n=12\n0 1\n1 2\n"), ("sparse", "n=12\n5 9\n9 11\n")]:
            graph = tmp_path / f"{name}.edges"
            graph.write_text(text)
            assert run(["stability", "--graph", str(graph), "--tau", "0.1"]) == 3
            errors.append(capsys.readouterr().err)
        assert errors == ["error: graph is disconnected (12 nodes, 2 edges)\n"] * 2
        assert not list(tmp_path.glob("*.idmap.json"))

    @pytest.mark.parametrize("low", [100, 2**63, 2**70])  # int64, uint64 and object raw ids
    def test_undeclared_nodes_take_the_smallest_free_ids(self, tmp_path, capsys, low):
        text = f"n=4\n{low} {low + 100}\n{low + 100} {low + 200}\n"
        graph = tmp_path / "big.edges"
        graph.write_text(text)
        assert run(["stability", "--graph", str(graph), "--tau", "0.1"]) == 3
        assert capsys.readouterr().err == "error: graph is disconnected (4 nodes, 2 edges)\n"
        declared_n, records = tokenize_edge_lines(text)
        remapped, id_map = remap_node_ids(records, declared_n)
        assert id_map.original == [0, low, low + 100, low + 200]
        assert remapped.n == 4 and remapped.edges == ((1, 2, 1.0), (2, 3, 1.0))

    def test_dense_ids_identity_no_side_file(self, tmp_path):
        out_path = tmp_path / "report.json"
        code = run([
            "centrality", "--graph", str(FIXTURES / "p3.edges"), "--structure", "dynamics",
            "--tau", "0", "--output", str(out_path),
        ])
        assert code == 0
        assert not (tmp_path / "report.json.idmap.json").exists()
        assert "ids" not in json.loads(out_path.read_text())


GOLDEN_CASES = [
    ("k2_stability.json", ["stability", "--graph", "k2.edges", "--tau", "0.5"]),
    (
        "p3_centrality_dynamics.json",
        ["centrality", "--graph", "p3.edges", "--structure", "dynamics", "--tau", "0"],
    ),
    (
        "c4_centrality_sensor.json",
        ["centrality", "--graph", "c4.edges", "--structure", "sensor", "--tau", "0.3"],
    ),
    (
        "s5_measurement.json",
        ["centrality", "--graph", "s5.edges", "--structure", "measurement", "--tau", "0"],
    ),
    (
        "ex1_dynamics.json",
        ["centrality", "--graph", "ex1_8n20e.edges", "--structure", "dynamics", "--tau", "0.1"],
    ),
    (
        "ex1_sweep.csv",
        [
            "sweep-tau", "--graph", "ex1_8n20e.edges", "--structure", "dynamics",
            "--tau-grid", "0,0.05,0.1", "--format", "csv",
        ],
    ),
    (
        "ex1_sweep_measurement.json",
        [
            "sweep-tau", "--graph", "ex1_8n20e.edges", "--structure", "measurement",
            "--tau-grid", "0,0.1,0.18,0.2",
        ],
    ),
    (
        "ex1_sweep_scale.json",
        [
            "sweep-scale", "--graph", "ex1_8n20e.edges", "--structure", "dynamics",
            "--tau", "0.1", "--alpha-grid", "0.25,0.5,1,2",
        ],
    ),
    (
        "sparse9w_sensitivity_sensor.json",
        ["sensitivity", "--graph", "sparse9w.edges", "--structure", "sensor", "--tau", "0.1"],
    ),
    (
        "sparse9w_sweep_dynamics.json",
        [
            "sweep-tau", "--graph", "sparse9w.edges", "--structure", "dynamics",
            "--tau-grid", "0,0.1,0.15,0.2,0.23",
        ],
    ),
    (
        "sparse9w_sweep_comm.json",
        [
            "sweep-tau", "--graph", "sparse9w.edges", "--structure", "comm-channel",
            "--tau-grid", "0,0.1,0.2,0.23",
        ],
    ),
    (
        "p3_second_order.json",
        ["second-order", "--graph", "p3.edges", "--b", "1.0", "--tau", "0"],
    ),
    (
        "k2_simulate.json",
        [
            "simulate", "--graph", "k2.edges", "--structure", "dynamics", "--tau", "0",
            "--dt", "0.005", "--burn-in", "2", "--horizon", "20", "--traj", "4",
            "--seed", "13",
        ],
    ),
    # CSV of every subcommand, on dense, remapped and link ids.
    (
        "s5_measurement.csv",
        [
            "centrality", "--graph", "s5.edges", "--structure", "measurement", "--tau", "0",
            "--format", "csv",
        ],
    ),
    (
        "sparse9w_centrality_dynamics.csv",
        [
            "centrality", "--graph", "sparse9w.edges", "--structure", "dynamics", "--tau", "0.1",
            "--format", "csv",
        ],
    ),
    (
        "sparse9w_rank_sensor.csv",
        [
            "rank", "--graph", "sparse9w.edges", "--structure", "sensor", "--tau", "0.1",
            "--format", "csv",
        ],
    ),
    (
        "sparse9w_sensitivity_sensor.csv",
        [
            "sensitivity", "--graph", "sparse9w.edges", "--structure", "sensor", "--tau", "0.1",
            "--format", "csv",
        ],
    ),
    (
        "ex1_perf_comm.csv",
        [
            "perf", "--graph", "ex1_8n20e.edges", "--structure", "comm-channel", "--tau", "0.1",
            "--format", "csv",
        ],
    ),
    ("k2_stability.csv", ["stability", "--graph", "k2.edges", "--tau", "0.5", "--format", "csv"]),
    (
        "ex1_sweep_scale.csv",
        [
            "sweep-scale", "--graph", "ex1_8n20e.edges", "--structure", "dynamics",
            "--tau", "0.1", "--alpha-grid", "0.25,0.5,1,2", "--format", "csv",
        ],
    ),
    (
        "sparse9w_sweep_comm.csv",
        [
            "sweep-tau", "--graph", "sparse9w.edges", "--structure", "comm-channel",
            "--tau-grid", "0,0.1,0.2,0.23", "--format", "csv",
        ],
    ),
    (
        "sparse9w_sweep_dynamics.csv",
        [
            "sweep-tau", "--graph", "sparse9w.edges", "--structure", "dynamics",
            "--tau-grid", "0,0.1,0.15,0.2,0.23", "--format", "csv",
        ],
    ),
    (
        "p3_second_order.csv",
        ["second-order", "--graph", "p3.edges", "--b", "1.0", "--tau", "0", "--format", "csv"],
    ),
    (
        "k2_simulate.csv",
        [
            "simulate", "--graph", "k2.edges", "--structure", "dynamics", "--tau", "0",
            "--dt", "0.005", "--burn-in", "2", "--horizon", "20", "--traj", "4",
            "--seed", "13", "--format", "csv",
        ],
    ),
    (
        "k2_verify.csv",
        [
            "verify", "--graph", "k2.edges", "--structure", "dynamics", "--tau", "0",
            "--dt", "0.005", "--burn-in", "2", "--horizon", "20", "--traj", "4",
            "--seed", "13", "--format", "csv",
        ],
    ),
]


@pytest.mark.parametrize("golden_name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs_byte_identical(golden_name, argv, tmp_path):
    argv = list(argv)
    graph_flag = argv.index("--graph") + 1
    argv[graph_flag] = str(FIXTURES / argv[graph_flag])
    out_path = tmp_path / golden_name
    code, _, err = invoke(*argv, "--output", str(out_path))
    assert code == 0, err
    expected = (GOLDEN / golden_name).read_bytes()
    assert out_path.read_bytes() == expected
