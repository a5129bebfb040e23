import itertools
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from maxent_evalues import cli, diagnostics, evariables
from maxent_evalues.cli import build_parser, main
from maxent_evalues.evariables import (
    MAX_TRIALS,
    RIPR_GRID_SIZE,
    RIPR_MAX_ITER,
    RIPR_TOL,
    Statistic,
)
from maxent_evalues.models import Table
from maxent_evalues.priors import DEFAULT_DENSITY_GRID, DEFAULT_SCALE, PriorSpec, parse_prior
from maxent_evalues.table_io import NetworkInput, network_to_table, parse_table, parse_table_text
from oracles import log_binomial


class TestParseTable:
    def test_json(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":8,"ones":3},{"n":10,"ones":4}]}')
        t = parse_table(path)
        assert t == Table(((8, 3), (10, 4)))

    def test_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,8,3\nb,10,4\n")
        assert parse_table(path) == Table(((8, 3), (10, 4)))

    def test_csv_with_header(self):
        t = parse_table_text("group_id,n,ones\na,8,3\n", "csv")
        assert t == Table(((8, 3),))

    def test_invalid_row(self):
        with pytest.raises(ValueError, match="invalid table row"):
            parse_table_text('{"groups":[{"n":10,"ones":11}]}', "json")

    @pytest.mark.parametrize("text, format, message", [
        ('{"groups":[{"n":10.7,"ones":3},{"n":12,"ones":1}]}', "json",
         "table row 0: n must be an integer, got 10.7"),
        ('{"groups":[{"n":10,"ones":3},{"n":12,"ones":true}]}', "json",
         "table row 1: ones must be an integer, got True"),
        ('{"groups":[{"n":10,"ones":null}]}', "json",
         "table row 0: ones must be an integer, got None"),
        ("a,10.9,3\n", "csv", "table row 0: n must be an integer, got '10.9'"),
        ("group_id,n,ones\na,10,3\nb,12,x\n", "csv",
         "table row 1: ones must be an integer, got 'x'"),
    ])
    def test_non_integer_counts_refused(self, tmp_path, capsys, text, format, message):
        with pytest.raises(ValueError) as info:
            parse_table_text(text, format)
        assert str(info.value) == message
        path = tmp_path / f"t.{format}"
        path.write_text(text)
        code, out, err = run_cli("test", "--table", str(path), capsys=capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == message

    def test_integral_counts_accepted(self):
        t = parse_table_text('{"groups":[{"n":10.0,"ones":"3"}]}', "json")
        assert t == Table(((10, 3),))
        assert parse_table_text("a, 10 ,3\n", "csv") == Table(((10, 3),))

    def test_empty(self):
        with pytest.raises(ValueError, match="no groups"):
            parse_table_text('{"groups":[]}', "json")
        with pytest.raises(ValueError, match="no groups"):
            parse_table_text("", "csv")

    def test_zero_size_group(self, tmp_path, capsys):
        text = '{"groups":[{"n":0,"ones":0},{"n":4,"ones":1}]}'
        with pytest.raises(ValueError, match="group size must be at least 1"):
            parse_table_text(text, "json")
        path = tmp_path / "t.json"
        path.write_text(text)
        code, out, err = run_cli("test", "--table", str(path), capsys=capsys)
        assert code == 1
        assert out == ""
        assert "at least 1" in json.loads(err)["error"]


class TestNetworkToTable:
    def test_triangle_example(self):
        net = NetworkInput(
            edges=(("1", "2"), ("2", "3"), ("1", "3")),
            partition={"1": "A", "2": "A", "3": "B"},
            mode="sbm_vs_er_undirected",
        )
        with pytest.warns(UserWarning, match="zero-size"):
            t = network_to_table(net)
        # within-A: one dyad, one edge; between: two dyads, two edges;
        # within-B has no dyads and is dropped.
        assert t == Table(((1, 1), (2, 2)))

    def test_empty_graph(self):
        net = NetworkInput(
            edges=(),
            partition={"1": "A", "2": "A", "3": "B", "4": "B"},
            mode="sbm_vs_er_undirected",
        )
        t = network_to_table(net)
        assert t.ones == (0, 0, 0)
        assert t.sizes == (1, 4, 1)

    def test_directed_sizes(self):
        net = NetworkInput(
            edges=(("1", "2"), ("2", "1"), ("1", "3")),
            partition={"1": "A", "2": "A", "3": "B"},
            mode="sbm_vs_er_directed",
        )
        t = network_to_table(net)
        # ordered pairs: (A,A) size 2, (A,B) size 2, (B,A) size 2; (B,B) dropped
        assert t == Table(((2, 2), (2, 1), (2, 0)))

    def test_self_loop_rejected(self):
        net = NetworkInput(
            edges=(("1", "1"),),
            partition={"1": "A", "2": "B"},
            mode="sbm_vs_er_undirected",
        )
        with pytest.raises(ValueError, match="self-loop"):
            network_to_table(net)

    def test_multigraph_rejected(self):
        net = NetworkInput(
            edges=(("1", "2"), ("2", "1")),
            partition={"1": "A", "2": "B"},
            mode="sbm_vs_er_undirected",
        )
        with pytest.raises(ValueError, match="multigraph"):
            network_to_table(net)

    def test_bipartite_full(self):
        rows = [f"r{i}" for i in range(3)]
        cols = [f"c{j}" for j in range(4)]
        edges = tuple((r, c) for r in rows for c in cols)
        partition = {**{r: "L" for r in rows}, **{c: "R" for c in cols}}
        net = NetworkInput(edges, partition, "pcm_vs_er_bipartite")
        t = network_to_table(net)
        assert t == Table(((4, 4), (4, 4), (4, 4)))

    def test_bipartite_constrained_side(self):
        edges = (("r0", "c0"),)
        partition = {"r0": "L", "c0": "R", "c1": "R"}
        t = network_to_table(
            NetworkInput(edges, partition, "pcm_vs_er_bipartite", constrained_block="R")
        )
        assert t == Table(((1, 1), (1, 0)))

    def test_bipartite_needs_two_layers(self):
        with pytest.raises(ValueError, match="two block"):
            network_to_table(
                NetworkInput((), {"a": "L", "b": "L"}, "pcm_vs_er_bipartite")
            )

    def test_edge_outside_partition(self):
        with pytest.raises(ValueError, match="partition"):
            NetworkInput((("1", "9"),), {"1": "A"}, "sbm_vs_er_undirected")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            NetworkInput((), {}, "nonsense")

    @pytest.mark.parametrize("payload, message", [
        ({"edges": [], "partition": []},
         "'partition' must be a JSON object mapping nodes to blocks"),
        ({"edges": 5, "partition": {"a": "A"}},
         "'edges' must be a list of two-element [a, b] lists"),
        # A two-character string unpacks like a pair; it must not be read as
        # the edge (a, b).
        ({"edges": ["ab"], "partition": {"a": "A", "b": "B"}},
         "'edges' must be a list of two-element [a, b] lists"),
    ], ids=["partition-list", "edges-number", "edge-string"])
    def test_malformed_network_refused(self, tmp_path, capsys, payload, message):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli("net-test", "--network", str(path), "--mode",
                                 "sbm_vs_er_undirected", capsys=capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == message

    def test_er_null_unit_expectation(self):
        # Over the exact edge-configuration distribution of a 2-dyad /
        # 1-dyad block structure, the mic e-value averages to one under the
        # null for every c0, hence under any ER edge probability.
        sizes = (1, 2)
        priors = [PriorSpec.uniform()] * 2
        for p in (0.2, 0.5, 0.9):
            total = 0.0
            for ones in itertools.product(range(2), range(3)):
                t = Table(tuple(zip(sizes, ones)))
                log_p = sum(
                    log_binomial(n, o) + o * math.log(p) + (n - o) * math.log(1 - p)
                    for n, o in t.groups
                )
                total += math.exp(log_p + Statistic.mic(t.sizes, priors).log_e(t.ones))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestPriorParsing:
    def test_named(self):
        assert parse_prior("uniform").kind == "uniform"
        assert parse_prior("nml").kind == "nml"

    def test_beta(self):
        spec = parse_prior("beta:1.5,2")
        assert (spec.alpha, spec.beta) == (1.5, 2.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_prior("beta:1")
        with pytest.raises(ValueError):
            parse_prior("cauchy")


def strict(text):
    return json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))


def run_cli(*argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestCli:
    def test_test_command(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":2,"ones":2},{"n":2,"ones":0}]}')
        code, out, _ = run_cli(
            "test", "--table", str(path), "--prior", "beta:1,1", capsys=capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["e"] == pytest.approx(2.0, rel=1e-12)
        assert payload["decision"] == "continue"
        assert payload["post_hoc_level"] == pytest.approx(math.exp(-1))

    def test_continue_command(self, capsys):
        code, out, _ = run_cli("continue", "2.0", "3.0", "--alpha", "0.2", capsys=capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["e"] == pytest.approx(6.0, rel=1e-12)
        assert payload["decision"] == "reject"

    def test_overflowing_e_is_strict_json(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5000,"ones":100},{"n":5000,"ones":4900}]}')

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli("test", "--table", str(path), capsys=capsys)
            assert code == 0
            payload = strict(out)
            assert payload["log_e"] == pytest.approx(5944.1568, rel=1e-8)
            assert payload["e"] is None
            assert payload["decision"] == "reject"
            code, out, _ = run_cli("continue", "1e300", "1e300", capsys=capsys)
            assert code == 0
            payload = strict(out)
            assert payload["log_e"] == pytest.approx(600 * math.log(10))
            assert payload["e"] is None

    def test_continue_refuses_non_evariables(self, tmp_path, capsys):
        table = tmp_path / "t.json"
        table.write_text('{"groups":[{"n":6,"ones":0},{"n":6,"ones":6}]}')
        reports = {}
        for statistic, flags in (("mic", []), ("pseudo", ["--scale", "100"])):
            code, out, _ = run_cli(
                "test", "--table", str(table), "--statistic", statistic, *flags,
                capsys=capsys,
            )
            assert code == 0
            reports[statistic] = tmp_path / f"{statistic}.json"
            reports[statistic].write_text(out)
        code, out, _ = run_cli("continue", *[str(reports["mic"])] * 3, capsys=capsys)
        assert code == 0
        assert json.loads(out)["components"] == 3
        code, out, err = run_cli(
            "continue", "2.0", *[str(reports["pseudo"])] * 3, capsys=capsys
        )
        assert code == 1
        assert out == ""
        assert "not an e-variable" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv, shown", [
        (["test", "--prior", "beta:nan,1"], "(nan, 1.0)"),
        (["test", "--prior", "beta:inf,inf"], "(inf, inf)"),
        (["gap", "--prior", "beta:nan,nan"], "(nan, nan)"),
        (["epower", "--prior", "beta:2,inf"], "(2.0, inf)"),
    ])
    def test_non_finite_prior_fails_first(self, tmp_path, capsys, argv, shown):
        # Refused where the prior is read, with the value named: before any
        # NumPy warning, and before a NaN reaches a log-space reduction.
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":1},{"n":5,"ones":4}]}')
        if argv[0] == "test":
            argv = [*argv, "--table", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        error = strict(err)["error"]
        assert "finite" in error and shown in error

    @pytest.mark.parametrize("argv", [
        # Printed a log_e from a pmf with 0.167 of its mass at n, not 1.
        ["test", "--table", "{path}", "--prior", "beta:1e300,2"],
        # Failed with "NaN in log-space reduction".
        ["theorem1", "--m", "3", "--bins", "2", "--prior", "beta:1e308,1e308"],
    ])
    def test_huge_beta_prior_refused(self, tmp_path, capsys, argv):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":2},{"n":5,"ones":3}]}')
        code, out, err = run_cli(*[a.replace("{path}", str(path)) for a in argv],
                                 capsys=capsys)
        assert code == 1
        assert out == ""
        assert "above 1e6" in strict(err)["error"]

    @pytest.mark.parametrize("item", ["inf", "1e400", "nan", "0"])
    def test_continue_refuses_non_finite_evalues(self, capsys, item):
        code, out, err = run_cli("continue", "2.0", item, capsys=capsys)
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == f"e-value must be positive and finite: {item}"

    @pytest.mark.parametrize("text, shown", [
        ('{"log_e": Infinity}', "inf"), ('{"log_e": -Infinity}', "-inf"),
        ('{"log_e": NaN}', "nan"), ('{"log_e": 1e400}', "inf"),
        pytest.param('{"log_e": 1%s}' % ("0" * 400), "inf", id="400-digit-int"),
        pytest.param('{"log_e": -1%s}' % ("0" * 400), "-inf", id="400-digit-negative-int"),
    ])
    def test_continue_refuses_non_finite_report_log_e(self, tmp_path, capsys, text, shown):
        path = tmp_path / "report.json"
        path.write_text(text)
        code, out, err = run_cli("continue", "2.0", str(path), capsys=capsys)
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == f"{path}: report needs a finite numeric log_e, got {shown}"

    @pytest.mark.parametrize("text", [
        "[1, 2]", '{"log_e": null}', '{"log_e": true}', '{"log_e": "3"}', "{}", '"2.0"',
    ])
    def test_continue_refuses_malformed_reports(self, tmp_path, capsys, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        code, out, err = run_cli("continue", "2.0", str(path), capsys=capsys)
        assert code == 1
        assert out == ""
        assert str(path) in strict(err)["error"]

    def test_pseudo_too_large_fails_fast(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":1000000,"ones":1},{"n":1000000,"ones":2}]}')
        code, out, err = run_cli(
            "test", "--table", str(path), "--statistic", "pseudo", capsys=capsys
        )
        assert code == 1
        assert out == ""
        assert "points" in json.loads(err)["error"]

    @pytest.mark.parametrize("argv, trials", [
        (("test", "--table", "{dir}/t.json"), 10**9),
        (("test", "--table", "{dir}/t.json", "--statistic", "can"), 10**9),
        (("test", "--table", "{dir}/t.json", "--statistic", "point", "--palt", "0.5"), 10**9),
        (("net-test", "--network", "{dir}/net.json", "--mode", "sbm_vs_er_undirected"),
         4473 * 4472 // 2),
        (("epower", "--sizes", "6000000,6000000"), 12_000_000),
        # regret refuses its largest cell first.
        (("regret", "--palt", "0.4,0.6", "--m-list", "6000000,7000000,8000000"), 16_000_000),
        (("theorem1", "--m", "1000000000"), 10**9),
    ], ids=["test-mic", "test-can", "test-point", "net-test", "epower", "regret", "theorem1"])
    def test_oversized_design_refused_before_building(self, tmp_path, capsys, argv, trials):
        # One group of 1e9 trials ended in a raw numpy _ArrayMemoryError
        # traceback, and two of 6e7 inside scipy.fft. A design past
        # MAX_TRIALS is refused by name before any array of its size exists.
        (tmp_path / "t.json").write_text('{"groups":[{"n":1000000000,"ones":1}]}')
        # One block of 4473 nodes: 10,001,628 dyads.
        partition = {str(i): "A" for i in range(4473)}
        (tmp_path / "net.json").write_text(json.dumps({"edges": [], "partition": partition}))
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        tracemalloc.start()
        try:
            code, out, err = run_cli(*argv, capsys=capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == (
            f"a design of {trials} trials exceeds the limit of {MAX_TRIALS}; "
            "lower the group sizes"
        )
        assert peak < 16 * 2**20

    def test_point_contradiction_fails_fast(self, tmp_path, capsys):
        # A mean of 0 or 1 gives probability 0 to a table that contradicts
        # it, whose log_e would be -inf; the CLI refuses it before solving.
        path = tmp_path / "t.json"
        for ones, palt in (((2, 3), "0,0.5"), ((5, 4), "0.5,1")):
            path.write_text(json.dumps({"groups": [{"n": 5, "ones": o} for o in ones]}))
            code, out, err = run_cli(
                "test", "--table", str(path), "--statistic", "point", "--palt", palt,
                capsys=capsys,
            )
            assert code == 1, ones
            assert out == ""
            assert "cannot produce" in strict(err)["error"]
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "edges": [["1", "2"], ["2", "3"], ["1", "3"]],
            "partition": {"1": "A", "2": "A", "3": "B"},
        }))
        code, out, err = run_cli(
            "net-test", "--network", str(net), "--mode", "sbm_vs_er_undirected",
            "--statistic", "point", "--palt", "0,0.5", capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert "cannot produce" in strict(err)["error"]
        path.write_text('{"groups":[{"n":5,"ones":0},{"n":5,"ones":3}]}')
        code, out, _ = run_cli(
            "test", "--table", str(path), "--statistic", "point", "--palt", "0,0.5",
            capsys=capsys,
        )
        assert code == 0
        assert math.isfinite(strict(out)["log_e"])

    def test_non_finite_report_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_theorem1", lambda args: {"tv": float("nan")})
        code, out, err = run_cli("theorem1", "--m", "5", capsys=capsys)
        assert code == 1
        assert out == ""
        assert "JSON" in json.loads(err)["error"]

    def test_non_finite_log_e_names_its_statistic_and_count(self, tmp_path, capsys):
        # 50 uniform groups of 100, one one each: mic's W0 underflows at the
        # total count (ROADMAP finding 3), so its log_e is +inf. The pseudo
        # report of the same table stays finite.
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"groups": [{"n": 100, "ones": 1}] * 50}))
        code, out, err = run_cli("test", "--table", str(path), "--statistic", "mic",
                                 capsys=capsys)
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == (
            "--statistic mic gives log_e = inf at total count 50; a report needs a finite log_e"
        )
        code, out, _ = run_cli("test", "--table", str(path), "--statistic", "pseudo",
                               "--scale", "100", capsys=capsys)
        assert code == 0
        assert strict(out)["log_e"] == -143.48778532063687

    @pytest.mark.parametrize("argv, iterations", [
        (("test", "--statistic", "can", "--ripr-max-iter", "3"), 3),
        (("epower", "--sizes", "3,3", "--prior", "beta:3,3", "--ripr-max-iter", "5"), 5),
    ])
    def test_unconverged_projection_names_its_knobs(self, tmp_path, capsys, argv, iterations):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":3},{"n":5,"ones":1}]}')
        if argv[0] == "test":
            argv += ("--table", str(path))
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert f"did not converge in {iterations} iterations" in error
        assert "refine solver" in error
        assert "--ripr-max-iter" in error and "--ripr-tol" in error

    @pytest.mark.parametrize("argv, error", [
        (("gap", "--sizes", "10,10", "--density-grid", "1"),
         "density_grid (--density-grid) must be at least 2, got 1"),
        (("gap", "--sizes", "10,10", "--density-grid", "2"),
         "quadrature underflow at total count 1; raise density_grid (--density-grid)"),
        (("epower", "--sizes", "3,3", "--ripr-grid", "50"),
         "grid_size (--ripr-grid) must be at least 51, got 50"),
        (("test", "--statistic", "can", "--ripr-grid", "50"),
         "grid_size (--ripr-grid) must be at least 51, got 50"),
        (("test", "--statistic", "pseudo", "--density-grid", "2"),
         "quadrature underflow at total count 1; raise density_grid (--density-grid)"),
    ])
    def test_grid_refusals_name_their_flag(self, tmp_path, capsys, argv, error):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":3},{"n":5,"ones":1}]}')
        if argv[0] == "test":
            argv += ("--table", str(path))
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == error

    def test_gap_matches_library(self, capsys):
        from maxent_evalues.diagnostics import gap_r

        code, out, _ = run_cli(
            "gap", "--prior", "beta:1,1", "--k", "2", "--m", "20", "--scale", "2000",
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        priors = [PriorSpec.from_beta(1, 1)] * 2
        assert payload["r"] == gap_r(priors, (20, 20), 2000, 20001)

    @pytest.mark.parametrize("argv", [
        ("--k", "80", "--m", "1"),
        ("--k", "100", "--m", "1", "--prior", "beta:2,2"),
    ])
    def test_gap_with_many_groups(self, capsys, argv):
        # Past about 77 groups the pseudo density's unscaled spectrum
        # overflowed, and gap failed with "NaN log density".
        code, out, _ = run_cli("gap", *argv, capsys=capsys)
        assert code == 0
        assert math.isfinite(json.loads(out)["r"])

    def test_unread_flags_rejected(self, capsys):
        # gap and rprime take no RIPR flags; regret takes no density flags.
        # No command takes --gamma: --prior beta:g,g is the one spelling of a
        # symmetric beta prior. The rest of each command line is complete.
        for argv in (["gap", "--ripr-grid", "5"], ["rprime", "--ripr-tol", "1e-8"],
                     ["regret", "--palt", "0.5", "--m-list", "1,2,3", "--scale", "100"],
                     ["test", "--table", "t.json", "--gamma", "2"],
                     ["net-test", "--network", "n.json", "--mode", "sbm_vs_er_undirected",
                      "--gamma", "2"],
                     ["epower", "--gamma", "2"], ["gap", "--gamma", "2"],
                     ["rprime", "--worst-case", "--gamma", "2"],
                     ["regret", "--palt", "0.5", "--m-list", "1,2,3", "--gamma", "2"],
                     ["theorem1", "--m", "10", "--gamma", "2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_ripr_tol_refused_before_solving(
        self, monkeypatch, tmp_path, capsys, tol
    ):
        # NaN passed a `tol <= 0` check and ran every iteration; inf stopped
        # after one and reported the unsolved projection as an e-variable.
        def built(*args):
            raise AssertionError("projection matrix built")

        monkeypatch.setattr(evariables, "_likelihood_bands", built)
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":10,"ones":3},{"n":12,"ones":9}]}')
        code, out, err = run_cli(
            "test", "--table", str(path), "--statistic", "can", "--ripr-tol", tol,
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert "(--ripr-tol) must be finite and positive" in strict(err)["error"]

    def test_ripr_matrix_refused_past_its_limit(self, monkeypatch, tmp_path, capsys):
        def built(*args):
            raise AssertionError("projection matrix built")

        # The largest benchmark design, 8,265 kept counts at the default grid,
        # fits three times over.
        assert evariables._MAX_RIPR_CELLS >= 3 * 8265 * evariables.RIPR_GRID_SIZE
        monkeypatch.setattr(evariables, "_likelihood_bands", built)
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":10,"ones":3},{"n":12,"ones":9}]}')
        argv = ["test", "--table", str(path), "--statistic", "can", "--ripr-grid"]
        # Uniform groups keep all 23 total counts.
        largest = evariables._MAX_RIPR_CELLS // 23
        for grid in (largest + 1, 20_000_000):
            code, out, err = run_cli(*argv, str(grid), capsys=capsys)
            assert code == 1
            assert out == ""
            assert "--ripr-grid" in strict(err)["error"]
        with pytest.raises(AssertionError, match="built"):
            main([*argv, str(largest)])
        capsys.readouterr()

    def test_palt_refused_unless_read(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":3},{"n":5,"ones":1}]}')
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "edges": [["1", "2"], ["2", "3"]],
            "partition": {"1": "A", "2": "A", "3": "B"},
        }))
        for argv, message in (
            (["test", "--table", str(path), "--statistic", "mic", "--palt", "0.5"],
             "--palt is read only by --statistic point"),
            (["net-test", "--network", str(net), "--mode", "sbm_vs_er_undirected",
              "--statistic", "can", "--palt", "0.5"],
             "--palt is read only by --statistic point"),
            (["rprime", "--k", "2", "--m", "5", "--worst-case", "--palt", "0.5"],
             "--palt cannot be combined with --worst-case"),
        ):
            code, out, err = run_cli(*argv, capsys=capsys)
            assert code == 1, argv
            assert out == ""
            assert message in strict(err)["error"]

    @pytest.mark.parametrize("mode", ["sbm_vs_er_undirected", "sbm_vs_er_directed"])
    def test_constrained_block_refused_outside_bipartite(self, tmp_path, capsys, mode):
        # Only the bipartite reduction has a constrained layer to choose.
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "edges": [["1", "2"], ["2", "3"]],
            "partition": {"1": "A", "2": "A", "3": "B"},
        }))
        code, out, err = run_cli(
            "net-test", "--network", str(net), "--mode", mode,
            "--constrained-block", "NOPE", capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == (
            f"--constrained-block is read only by --mode pcm_vs_er_bipartite, not {mode}"
        )

    @pytest.mark.parametrize("flag, value", [
        ("--grid-step", "0.1"), ("--lo", "0.9"), ("--hi", "0.1"),
    ])
    def test_worst_case_flags_refused_without_worst_case(self, capsys, flag, value):
        code, out, err = run_cli(
            "rprime", "--k", "2", "--m", "10", "--palt", "0.3,0.7", flag, value,
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == f"{flag} is read only with --worst-case"

    def test_rprime_needs_palt_or_worst_case_before_building(self, monkeypatch, capsys):
        # Refused before the pseudo density is built, which at m = 400 costs
        # about a second.
        def built(*args, **kwargs):
            raise AssertionError("pseudo density built")

        monkeypatch.setattr(evariables, "pseudo_null_density", built)
        code, out, err = run_cli("rprime", "--k", "2", "--m", "400", capsys=capsys)
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == "rprime needs --palt or --worst-case"

    @pytest.mark.parametrize("flags, error", [
        (["--k", "2", "--m", "400", "--palt", "0.3,0.4,0.5"],
         "expected 1 or 2 alternative parameters"),
        (["--palt", "1.5"], "mean parameters must lie in [0, 1]"),
        (["--palt", "nan"], "mean parameters must lie in [0, 1]"),
    ])
    def test_rprime_refuses_a_bad_palt_before_building(self, monkeypatch, capsys, flags, error):
        builds = []
        monkeypatch.setattr(evariables, "pseudo_null_density",
                            lambda *a, **kw: builds.append(a))
        code, out, err = run_cli("rprime", *flags, capsys=capsys)
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == error
        assert builds == []

    def test_rprime_refuses_bad_bounds_before_building(self, monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(evariables, "pseudo_null_density",
                            lambda *a, **kw: builds.append(a))
        code, out, err = run_cli(
            "rprime", "--k", "2", "--m", "1000", "--prior", "nml", "--worst-case",
            "--lo", "0.9", "--hi", "0.1", capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == "bounds must satisfy 0 < lo < hi < 1"
        assert builds == []

    @pytest.mark.parametrize("command", ["test", "net-test"])
    @pytest.mark.parametrize("alpha", ["0", "-0.5", "1.5", "nan"])
    def test_alpha_refused_before_building(self, tmp_path, monkeypatch, capsys,
                                           command, alpha):
        # Three groups of 500 trials, whose projection takes most of a second.
        path = tmp_path / "t.json"
        path.write_text(json.dumps(
            {"groups": [{"n": 500, "ones": o} for o in (180, 240, 260)]}))
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "edges": [["1", "2"], ["2", "3"]],
            "partition": {"1": "A", "2": "A", "3": "B"},
        }))
        source = (["test", "--table", str(path)] if command == "test" else
                  ["net-test", "--network", str(net), "--mode", "sbm_vs_er_undirected"])
        built = []

        def spy(*args, **kwargs):
            built.append(args)
            raise ValueError("built")

        monkeypatch.setattr(evariables, "ripr_solve", spy)
        monkeypatch.setattr(evariables, "pseudo_null_density", spy)
        for flags in (["--statistic", "can", "--prior", "beta:2,2"],
                      ["--statistic", "point", "--palt", "0.4"],
                      ["--statistic", "pseudo"]):
            code, out, err = run_cli(*source, *flags, "--alpha", alpha, capsys=capsys)
            assert code == 1, flags
            assert out == ""
            assert strict(err)["error"] == "alpha must lie in (0, 1]"
            assert built == []
            # The spies do see the build that a valid level reaches.
            assert run_cli(*source, *flags, capsys=capsys)[2] == '{"error": "built"}\n'
            built.clear()

    def test_one_parser_serves_every_call(self, tmp_path):
        # Run in fresh processes: the flags of one call must not leak into
        # the next, which reuses the parser.
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":3},{"n":6,"ones":1}]}')
        calls = [["test", "--table", str(path), "--statistic", "can", "--ripr-grid", "101"],
                 ["test", "--table", str(path), "--statistic", "mic"]]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        script = (
            "import contextlib, io, json, sys\n"
            "from maxent_evalues import cli\n"
            "outs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    buf = io.StringIO()\n"
            "    with contextlib.redirect_stdout(buf):\n"
            "        assert cli.main(argv) == 0\n"
            "    outs.append(buf.getvalue())\n"
            "assert cli._parser.cache_info().misses == 1\n"
            "print(json.dumps(outs))\n"
        )
        together = subprocess.run(
            [sys.executable, "-c", script, json.dumps(calls)],
            capture_output=True, text=True, check=True, env=env,
        )
        alone = [subprocess.run([sys.executable, "-m", "maxent_evalues.cli", *argv],
                                capture_output=True, text=True, check=True, env=env).stdout
                 for argv in calls]
        assert json.loads(together.stdout) == alone
        assert "log_e" in strict(alone[0]) and "log_e" in strict(alone[1])

    def test_regret_refuses_no_groups(self, capsys):
        # The empty design is refused where the alternative is read, not deep
        # inside the convolution of its group laws.
        code, out, err = run_cli(
            "regret", "--k", "0", "--palt", "0.3", "--m-list", "1,2,3", capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == "no groups"

    @pytest.mark.parametrize("statistic, flags", [
        ("mic", []),
        ("can", ["--ripr-grid", "101"]),
        ("point", ["--palt", "0.5,0.3", "--ripr-grid", "101"]),
        ("pseudo", ["--scale", "200"]),
    ])
    def test_report_shape(self, tmp_path, capsys, statistic, flags):
        # The report of one table: the statistic's kind and whether it is an
        # e-variable, the table's counts, the e-value and the decisions on it,
        # and the projection's KL where there is a projection.
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":3},{"n":6,"ones":1}]}')
        code, out, _ = run_cli(
            "test", "--table", str(path), "--statistic", statistic, *flags, capsys=capsys,
        )
        assert code == 0
        payload = strict(out)
        keys = {"statistic_kind", "is_evariable", "c1", "c0", "log_e", "e", "alpha",
                "decision", "post_hoc_level", "post_hoc_decision", "inputs"}
        if statistic in ("can", "point"):
            keys.add("achieved_kl")
            assert isinstance(payload["achieved_kl"], float)
        assert set(payload) == keys
        kind = "pseudo" if statistic == "pseudo" else f"gro_{statistic}"
        assert payload["statistic_kind"] == kind
        assert payload["is_evariable"] is (statistic != "pseudo")
        assert payload["c1"] == [3, 1]
        assert payload["c0"] == sum(payload["c1"])
        assert payload["e"] == pytest.approx(math.exp(payload["log_e"]), rel=1e-12)

    @pytest.mark.parametrize("command", ["test", "net-test"])
    def test_statistic_flags_refused_unless_read(self, tmp_path, capsys, command):
        # Each flag is refused where the statistic would ignore it, and
        # accepted, with its default applied otherwise, where it reads it.
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":3},{"n":5,"ones":1}]}')
        net = tmp_path / "net.json"
        net.write_text(json.dumps({
            "edges": [["1", "2"], ["2", "3"]],
            "partition": {"1": "A", "2": "A", "3": "B"},
        }))
        source = (["test", "--table", str(path)] if command == "test" else
                  ["net-test", "--network", str(net), "--mode", "sbm_vs_er_undirected"])
        for flags, message in (
            (["--statistic", "mic", "--ripr-grid", "5", "--scale", "3"],
             "--ripr-grid is read only by --statistic can, point, not mic"),
            (["--statistic", "mic", "--scale", "100"],
             "--scale is read only by --statistic pseudo, not mic"),
            (["--statistic", "mic", "--density-grid", "101"],
             "--density-grid is read only by --statistic pseudo, not mic"),
            (["--statistic", "point", "--palt", "0.5", "--prior", "nml"],
             "--prior is read only by --statistic mic, can, pseudo, not point"),
            (["--statistic", "point", "--palt", "0.5", "--scale", "100"],
             "--scale is read only by --statistic pseudo, not point"),
            (["--statistic", "can", "--density-grid", "101"],
             "--density-grid is read only by --statistic pseudo, not can"),
            (["--statistic", "pseudo", "--ripr-tol", "1e-6"],
             "--ripr-tol is read only by --statistic can, point, not pseudo"),
            (["--statistic", "pseudo", "--ripr-max-iter", "10"],
             "--ripr-max-iter is read only by --statistic can, point, not pseudo"),
        ):
            code, out, err = run_cli(*source, *flags, capsys=capsys)
            assert code == 1, flags
            assert out == ""
            assert strict(err)["error"] == message
        for flags in (["--statistic", "mic", "--prior", "nml"],
                      ["--statistic", "can", "--ripr-grid", "101", "--ripr-max-iter", "50000"],
                      ["--statistic", "point", "--palt", "0.5", "--ripr-tol", "1e-6"],
                      ["--statistic", "pseudo", "--scale", "100", "--density-grid", "101"]):
            code, out, _ = run_cli(*source, *flags, capsys=capsys)
            assert code == 0, flags
            assert "log_e" in strict(out)

    def test_statistic_flag_defaults_apply_where_read(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":3},{"n":5,"ones":1}]}')
        for statistic, defaults in (
            ("mic", ["--prior", "uniform"]),
            ("can", ["--prior", "uniform", "--ripr-grid", str(RIPR_GRID_SIZE),
                     "--ripr-tol", str(RIPR_TOL), "--ripr-max-iter", str(RIPR_MAX_ITER)]),
            ("pseudo", ["--prior", "uniform", "--scale", str(DEFAULT_SCALE),
                        "--density-grid", str(DEFAULT_DENSITY_GRID)]),
        ):
            argv = ["test", "--table", str(path), "--statistic", statistic]
            _, implicit, _ = run_cli(*argv, capsys=capsys)
            _, explicit, _ = run_cli(*argv, *defaults, capsys=capsys)
            assert implicit == explicit and "log_e" in strict(implicit), statistic

    @pytest.mark.parametrize("argv", [
        ("gap", "--k", "3", "--m", "10", "--sizes", "5,5"),
        ("epower", "--m", "4", "--sizes", "5,5"),
        ("rprime", "--k", "2", "--sizes", "3,3", "--worst-case"),
    ])
    def test_sizes_refused_with_k_or_m(self, capsys, argv):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == "--sizes cannot be combined with --k or --m"

    @pytest.mark.parametrize("argv, error", [
        (("gap", "--sizes", ""), "--sizes must be comma-separated integers, got ''"),
        (("gap", "--sizes", "10,x"), "--sizes must be comma-separated integers, got '10,x'"),
        (("epower", "--sizes", "10,1.5"), "--sizes must be comma-separated integers, got '10,1.5'"),
        (("regret", "--palt", "0.4", "--m-list", "10,x"),
         "--m-list must be comma-separated integers, got '10,x'"),
        (("regret", "--palt", "0.4", "--m-list", ""),
         "--m-list must be comma-separated integers, got ''"),
        (("regret", "--palt", "0.4,x", "--m-list", "10"),
         "--palt must be comma-separated numbers, got '0.4,x'"),
        (("rprime", "--palt", "x"), "--palt must be comma-separated numbers, got 'x'"),
        # The group size is checked before the bins it bounds.
        (("theorem1", "--m", "0"), "group size must be at least 1"),
        (("theorem1", "--m", "-1", "--bins", "0"), "group size must be at least 1"),
    ])
    def test_malformed_values_refused_by_name(self, capsys, argv, error):
        # These printed Python's own int() and float() errors, or, for
        # theorem1, "bins must not exceed m+1".
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == error

    def test_size_defaults(self, capsys):
        for argv, sizes in (
            (["epower", "--m", "4"], [4, 4]),
            (["epower", "--k", "3", "--m", "2"], [2, 2, 2]),
            (["gap", "--k", "3", "--scale", "100"], [50, 50, 50]),
            (["rprime", "--scale", "100", "--palt", "0.5"], [50, 50]),
        ):
            code, out, _ = run_cli(*argv, capsys=capsys)
            assert code == 0
            assert strict(out)["sizes"] == sizes
        for command, m in (("epower", 10), ("gap", 50), ("rprime", 50)):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())
            assert f"(default {m})" in text and "(default 2)" in text

    def test_point_report_lists_no_priors(self, tmp_path, capsys):
        # The point statistic reads its alternative means, not the priors.
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":5,"ones":3},{"n":5,"ones":1}]}')
        code, out, _ = run_cli(
            "test", "--table", str(path), "--statistic", "point", "--palt", "0.5",
            capsys=capsys,
        )
        assert code == 0
        inputs = strict(out)["inputs"]
        assert "priors" not in inputs and inputs["p_alt"] == [0.5, 0.5]
        code, out, _ = run_cli("test", "--table", str(path), capsys=capsys)
        assert strict(out)["inputs"]["priors"] == ["uniform", "uniform"]

    def test_epower_sandwich(self, capsys):
        code, out, _ = run_cli(
            "epower", "--k", "2", "--m", "5", "--prior", "uniform", capsys=capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sandwich_ok"]

    def test_rprime_worst_case(self, capsys):
        code, out, _ = run_cli(
            "rprime", "--k", "2", "--m", "6", "--scale", "500", "--worst-case",
            "--grid-step", "0.24", "--lo", "0.1", "--hi", "0.9", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["worst_case_r_prime"] >= 0
        assert len(payload["argmax"]) == 2

    @pytest.mark.parametrize("lo, hi, step, axis", [
        ("0.1", "0.9", "0.3", (0.1, 0.4, 0.7)),
        ("0.3", "0.99", "0.4", (0.3, 0.7)),
    ])
    def test_rprime_worst_case_stays_within_hi(self, capsys, lo, hi, step, axis):
        # Unless the points past hi are dropped, these grids reach
        # p = 1.0000000000000002 and 1.1, and the command exits 1.
        code, out, _ = run_cli(
            "rprime", "--k", "2", "--m", "5", "--scale", "500", "--worst-case",
            "--lo", lo, "--hi", hi, "--grid-step", step, capsys=capsys,
        )
        assert code == 0
        argmax = json.loads(out)["argmax"]
        assert len(argmax) == 2
        assert all(any(p == pytest.approx(a) for a in axis) for p in argmax)

    # An infinite step used to leak numpy's "arange: cannot compute length".
    @pytest.mark.parametrize("step", ["0", "-0.1", "inf"])
    def test_rprime_bad_grid_step(self, capsys, step):
        code, out, err = run_cli(
            "rprime", "--k", "2", "--m", "6", "--scale", "500", "--worst-case",
            "--grid-step", step, capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert "grid_step must be positive" in strict(err)["error"]

    def test_rprime_refuses_a_huge_worst_case_grid(self, capsys):
        # 960,001 points a group, 9.2e11 in all: the parent built 960,001
        # pmfs a group and printed nothing for minutes.
        started = time.monotonic()
        code, out, err = run_cli(
            "rprime", "--k", "2", "--m", "5", "--worst-case", "--grid-step", "1e-6",
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        assert "worst-case grid" in strict(err)["error"]
        assert time.monotonic() - started < 10

    def test_rprime_refuses_a_worst_case_search_past_its_weights(self, monkeypatch, capsys):
        # 9,601^2 points pass the point limit, but one group of 100,000 needs
        # 9,601 x 100,001 binomial weights: 7.2 GiB, built after the density.
        def built(*args):
            raise AssertionError("built before the weights were checked")

        monkeypatch.setattr(diagnostics, "_count_term_gap", built)
        monkeypatch.setattr(diagnostics, "binomial_log_pmfs", built)
        code, out, err = run_cli(
            "rprime", "--k", "1", "--m", "100000", "--scale", "10", "--worst-case",
            "--grid-step", "1e-4", capsys=capsys,
        )
        assert code == 1
        assert out == ""
        error = strict(err)["error"]
        assert "960109601 binomial weights" in error and "--grid-step" in error

    def test_rprime_refuses_a_worst_case_contraction_past_the_limit(self, monkeypatch, capsys):
        # Four groups of 600,000: the weights pass, but the first contraction
        # needs 49 x 1,800,001 cells, 706 MB, after a 2.4e7-point density.
        def built(*args):
            raise AssertionError("built before the contraction was checked")

        monkeypatch.setattr(diagnostics, "_count_term_gap", built)
        monkeypatch.setattr(diagnostics, "binomial_log_pmfs", built)
        code, out, err = run_cli(
            "rprime", "--k", "4", "--m", "600000", "--scale", "10", "--worst-case",
            capsys=capsys,
        )
        assert code == 1
        assert out == ""
        error = strict(err)["error"]
        assert "88200049 cells to contract" in error and "--grid-step" in error

    @pytest.mark.parametrize("argv", [
        ("theorem1", "--m", "30"),
        ("regret", "--palt", "0.4,0.6", "--m-list", "10,20,40"),
    ])
    def test_single_prior_commands_refuse_more(self, capsys, argv):
        code, out, err = run_cli(*argv, "--prior", "nml", "beta:2,2", capsys=capsys)
        assert code == 1
        assert out == ""
        assert strict(err)["error"] == "expected 1 prior, got 2"

    def test_theorem1(self, capsys):
        code, out, _ = run_cli(
            "theorem1", "--prior", "beta:2,2", "--m", "50", "--bins", "10", capsys=capsys
        )
        assert code == 0
        assert json.loads(out)["tv"] > 0

    def test_error_json_on_stderr(self, capsys):
        code, out, err = run_cli(
            "test", "--table", "/nonexistent/t.json", capsys=capsys
        )
        assert code == 1
        assert out == ""
        assert "error" in json.loads(err)

    def test_net_test(self, tmp_path, capsys):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({
            "edges": [["1", "2"], ["2", "3"], ["1", "3"]],
            "partition": {"1": "A", "2": "A", "3": "B"},
        }))
        code, out, _ = run_cli(
            "net-test", "--network", str(path), "--mode", "sbm_vs_er_undirected",
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["inputs"]["groups"] == [
            {"n": 1, "ones": 1}, {"n": 2, "ones": 2}
        ]

    def test_regret_tsv(self, tmp_path, capsys):
        tsv = tmp_path / "out.tsv"
        code, out, _ = run_cli(
            "regret", "--k", "2", "--palt", "0.4,0.6", "--m-list", "10,20,40",
            "--prior", "beta:1,1", "--tsv", str(tsv), capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 3
        lines = tsv.read_text().strip().splitlines()
        assert lines[0] == "p_alt\tm\tregret"
        assert len(lines) == 4

    def test_regret_pseudo_candidate(self, capsys):
        from maxent_evalues.diagnostics import regret

        code, out, _ = run_cli(
            "regret", "--candidate", "pseudo", "--palt", "0.3,0.6",
            "--m-list", "10,20,40", capsys=capsys,
        )
        assert code == 0
        points = json.loads(out)["points"]
        assert [p["m"] for p in points] == [10, 20, 40]
        specs = [PriorSpec.uniform()] * 2
        for point in points:
            sizes = (point["m"],) * 2
            expect = regret((0.3, 0.6), specs, sizes, "pseudo")
            assert point["regret"] == pytest.approx(expect, abs=1e-12)

    def test_regret_pseudo_refuses_its_largest_m_first(self, monkeypatch, capsys):
        # regret has no --scale: a pseudo cell past the point limit at the
        # default scale is refused by naming --m-list, before the smaller
        # cells solve anything.
        solved = []

        def spy(*args, **kwargs):
            solved.append(args)
            raise AssertionError("a cell was solved")

        monkeypatch.setattr(evariables, "ripr_solve", spy)
        monkeypatch.setattr(evariables, "pseudo_null_density", spy)
        code, out, err = run_cli(
            "regret", "--candidate", "pseudo", "--palt", "0.4,0.6",
            "--m-list", "20,1300,1400", capsys=capsys,
        )
        assert code == 1
        assert out == ""
        message = strict(err)["error"]
        assert "28000001 points" in message and "--m-list" in message
        assert "scale" not in message.split(";")[1]
        assert solved == []

    def test_reproducible_output(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text('{"groups":[{"n":4,"ones":1},{"n":4,"ones":3}]}')
        outputs = set()
        for _ in range(2):
            code, out, _ = run_cli("test", "--table", str(path), capsys=capsys)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_cold_import_leaves_out_the_heavy_scipy_modules(self):
        # A command pays for what the CLI imports on every call: scipy.signal
        # alone pulled in these and about 1 s of start-up.
        import maxent_evalues

        src = str(Path(maxent_evalues.__file__).resolve().parents[1])
        heavy = ("scipy.signal", "scipy.stats", "scipy.optimize",
                 "scipy.interpolate", "scipy.spatial")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json, sys; import maxent_evalues.cli; "
             f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({heavy!r}))))"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert json.loads(proc.stdout) == []

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maxent_evalues.cli", "continue", "4.0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["e"] == pytest.approx(4.0)
