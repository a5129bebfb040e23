"""Smoke tests of the experiment scripts, and a guard on the public surface."""

import ast
import dataclasses
import importlib.util
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

import maxent_evalues
from maxent_evalues.cli import main
from maxent_evalues.diagnostics import fit_log_slope, gap_r, regret
from maxent_evalues.evariables import Statistic
from maxent_evalues.numerics import binomial_pmf
from maxent_evalues.priors import PriorSpec, null_optimal_prior

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    """A fresh module object of scripts/<name>.py, so that it binds the
    library names as they are when it is loaded."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, argv, tmp_path):
    """Run scripts/<name>.py with these arguments; returns its TSV header and rows."""
    out = tmp_path / f"{name}.tsv"
    assert load_script(name).main([*argv, "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    return header.split("\t"), [row.split("\t") for row in rows]


def gap_rows(rows):
    """The (regime, k, m, r) values of run_gap_sweep's TSV rows."""
    return [(regime, int(k), int(m), float(r)) for regime, k, m, r in rows]


def test_gap_sweep_script(tmp_path):
    header, rows = run_script("run_gap_sweep", [
        "--m-values", "4,6", "--n-fixed", "8", "--k-values", "2,4", "--scale", "200",
        "--density-grid", "2001",
    ], tmp_path)
    assert header == ["regime", "k", "m", "r"]
    values = gap_rows(rows)
    assert [v[:3] for v in values] == [
        ("m_growing", 2, 4), ("m_growing", 2, 6), ("n_fixed", 2, 4),
        ("n_fixed", 4, 2), ("power_law", 2, 20), ("power_law", 4, 80),
    ]
    for _, k, m, r in values:
        assert r == pytest.approx(gap_r([PriorSpec.uniform()] * k, [m] * k, 200, 2001),
                                  rel=1e-9)


def test_gap_sweep_script_runs_at_its_defaults(tmp_path):
    # Every default cell fits under the pseudo density's point limit; the
    # power-law cell k = 8 (m = 320) would need 25,600,001 points at scale 1e4.
    _, rows = run_script("run_gap_sweep", [], tmp_path)
    assert [v[:3] for v in gap_rows(rows)] == [
        *(("m_growing", 2, m) for m in (10, 20, 40, 80, 160, 320)),
        ("n_fixed", 2, 512), ("n_fixed", 4, 256), ("power_law", 2, 20), ("power_law", 4, 80),
    ]


REGRET_ARGS = ["--m-values", "10,20,40", "--grid-lo", "0.3", "--grid-hi", "0.3",
               "--grid-step", "0.2"]


def test_regret_slopes_script(tmp_path):
    header, rows = run_script("run_regret_slopes", ["--gammas", "1", *REGRET_ARGS], tmp_path)
    assert header == ["gamma", "p_a", "p_b", "slope", "intercept", "residual"]
    assert [row[:3] for row in rows] == [["1.0", "0.30", "0.30"]]
    specs = [PriorSpec.from_beta(1.0, 1.0)] * 2
    a, b, _ = fit_log_slope(
        [(m, regret((0.3, 0.3), specs, (m, m), "gro_mic")) for m in (10, 20, 40)]
    )
    assert rows[0][3:5] == [f"{a:.4f}", f"{b:.4f}"]


def test_regret_slopes_script_solves_each_point_projection_once(solves, tmp_path):
    # The point projection depends on m and the alternative, not on gamma:
    # the second gamma finds all three in the design memo.
    _, rows = run_script("run_regret_slopes", ["--gammas", "0.5,1", *REGRET_ARGS], tmp_path)
    assert len(rows) == 2
    want = [null_optimal_prior([binomial_pmf(m, 0.3)] * 2).log_weights for m in (10, 20, 40)]
    assert len(solves) == len(want)
    assert all(np.array_equal(s.log_weights, w) for s, w in zip(solves, want))


EPOWER_ARGS = ["--priors", "beta:3,3", "--k", "2", "--m-values", "5", "--scale", "200",
               "--density-grid", "2001"]


def test_epower_script_matches_cli(capsys, tmp_path):
    _, rows = run_script("run_epower_comparison", EPOWER_ARGS, tmp_path)
    assert len(rows) == 1
    assert main(["epower", "--k", "2", "--m", "5", "--prior", "beta:3,3",
                 "--scale", "200", "--density-grid", "2001"]) == 0
    payload = json.loads(capsys.readouterr().out)
    powers = payload["e_power"]
    assert rows[0][:6] == [
        "beta(3,3)", "2", "5", *(f"{powers[s]:.8f}" for s in ("mic", "can", "pseudo"))
    ]
    assert rows[0][8] == f"{payload['achieved_kl']:.3e}"


def test_epower_script_shares_the_projection_route(solves, tmp_path):
    # The script and Statistic.can project the same design's Bayes marginal
    # through one memoized route: one solve between them.
    run_script("run_epower_comparison", EPOWER_ARGS, tmp_path)
    Statistic.can((5, 5), [PriorSpec.from_beta(3, 3)] * 2).log_e((2, 4))
    assert len(solves) == 1


def test_scripts_define_no_config_classes():
    # A script's options live in its parser alone, with their defaults.
    for path in sorted((ROOT / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text())
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)], path.name


def test_scripts_import_only_public_names():
    # A script is a thin layer over the library: it imports nothing private,
    # and not the CLI module, which is another layer over it.
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if parts[0] == "maxent_evalues":
                    assert not any(p.startswith("_") for p in parts), (path.name, name)
                    assert parts[1:2] != ["cli"], (path.name, name)


def test_every_public_name_is_used_outside_the_tests():
    # A name in __all__ that only tests use is surface to cut, not to keep.
    sources = [p for p in (ROOT / "src" / "maxent_evalues").glob("*.py")
               if p.name != "__init__.py"]
    lines = [line for p in sources + sorted((ROOT / "scripts").glob("*.py"))
             for line in p.read_text().splitlines()]
    unused = []
    for name in maxent_evalues.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []
    assert len(set(maxent_evalues.__all__)) == len(maxent_evalues.__all__)


def test_every_public_attribute_is_read_outside_the_tests():
    # The same rule for the methods, properties, static builders and fields
    # of the public classes: each is read as an attribute in src/ or scripts/.
    paths = sorted((ROOT / "src" / "maxent_evalues").glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    read = {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}
    unread = []
    for name in maxent_evalues.__all__:
        cls = getattr(maxent_evalues, name)
        if not inspect.isclass(cls):
            continue
        members = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
        members |= {member for member, value in vars(cls).items()
                    if inspect.isfunction(value)
                    or isinstance(value, (property, staticmethod, classmethod))}
        unread += [f"{name}.{m}" for m in sorted(members - read) if not m.startswith("_")]
    assert unread == []
