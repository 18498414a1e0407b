"""Command-line interface: subcommands, overrides, exit codes."""
import json

import pytest

from hetcache import cli
from hetcache.cli import main


def test_run_analytic_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["run", "--engine", "analytic", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert "efficiency" in lines[0]
    assert json.loads((tmp_path / "run.csv.meta.json").read_text())


def test_run_mc_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("protocol: {region_radius: 4000.0}\n")
    out = tmp_path / "mc.csv"
    code = main(["run", "--config", str(cfg), "--engine", "mc",
                 "--seed", "5", "--snapshots", "50", "--out", str(out)])
    assert code == 0
    header, row = out.read_text().splitlines()
    assert row.split(",")[header.split(",").index("engine")] == "mc"


def test_run_both_writes_schema_2_header(tmp_path, capsys):
    out = tmp_path / "both.csv"
    assert main(["run", "--engine", "both", "--snapshots", "64", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert len(header) == len(set(header)) == 23
    assert not {"coverage", "bound_value", "se_coverage", "err_coverage",
                "provenance"} & set(header)
    assert json.loads((tmp_path / "both.csv.meta.json").read_text())["schema_version"] == 2


def test_sweep_with_values(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--param", "tiers[2].density", "--values", "5,10",
                 "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_search_prints_best(tmp_path, capsys):
    out = tmp_path / "search.csv"
    code = main(["search", "--var", "tiers[2].cache.cache_size=1,5,10",
                 "--out", str(out)])
    assert code == 0
    assert "best:" in capsys.readouterr().out


def test_search_of_one_path_twice_exits_one_naming_it(tmp_path, capsys):
    path = "tiers[2].cache.cache_size"
    code = main(["search", "--var", f"{path}=1,2", "--var", f"{path}=3",
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: search: ") and path in err


def test_empty_grid_token_is_skipped_by_sweep_and_search(tmp_path, capsys):
    path = "tiers[2].cache.cache_size"
    for command, grid in (["sweep", "--param", path, "--values"], "1,,2"), (
            ["search", "--var"], f"{path}=1,,2"):
        out = tmp_path / f"{command[0]}.csv"
        assert main([*command, grid, "--out", str(out)]) == 0, command[0]
        cells = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert cells == ["1", "2"], command[0]


def test_invalid_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("tiers:\n  - radio: {pathloss_exp_los: 9.0}\n")
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("text, flags, path", [
    ("tiers:\n  - {}\n  - density: .nan\n", [], "tiers[2].density"),
    ("tiers:\n  - density: .inf\n", [], "tiers[1].density"),
    ("tiers:\n  - density: true\n", [], "tiers[1].density"),
    ("costs: {cache_unit_cost: .nan}\n", [], "costs.cache_unit_cost"),
    ("protocol: {master_seed: -1}\n", [], "protocol.master_seed"),
    ("", ["--seed", "-1"], "protocol.master_seed"),
    ("", ["--snapshots", "0"], "protocol.num_snapshots"),
    ("costs: {backhaul_unit_cost: .inf}\n", [], "costs.backhaul_unit_cost"),
    ("rate_log_base: .inf\n", [], "rate_log_base"),
    ("integration: {rel_tol: .inf}\n", [], "integration.rel_tol"),
    ("protocol: {region_radius: .inf}\n", [], "protocol.region_radius"),
    ("tiers:\n  - radio: {tx_power: .inf}\n", [], "tiers[1].radio.tx_power"),
    ("tiers:\n  - {}\n  - radio: {near_field_dist: .inf}\n", [],
     "tiers[2].radio.near_field_dist"),
    ("tiers:\n  - radio: {sir_threshold: .inf}\n", [], "tiers[1].radio.sir_threshold"),
    ("tiers:\n  - rho: 1.5\n", [], "tiers[1].rho"),
    ("tiers:\n  - radio: {pathloss_exp_los: 9.0}\n", [], "tiers[1].radio"),
    ("tiers:\n  - radio: {nakagami_nlos: 3}\n", [], "tiers[1].radio"),
    ("protocol: {content_evaluation: sampled}\n", [], "protocol.content_evaluation"),
    ("", ["--engine", "mc", "--workers", "-3"], "workers"),
    ("", ["search", "--var", "tiers[2].cache.cache_size=,"], "tiers[2].cache.cache_size"),
    ("", ["sweep", "--param", "tiers[2].density", "--values", ","], "tiers[2].density"),
    ("", ["search", "--var", "tiers[1].rho=0.5", "--var", "tiers[2].rho=0.5",
          "--var", "content.popularity_exponent=1", "--var", "costs.cache_unit_cost=0.01"],
     "search"),
])
def test_bad_value_exits_one_with_its_path(tmp_path, capsys, text, flags, path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    # a case that names its subcommand first is not a run
    argv = flags if flags[:1] in (["sweep"], ["search"]) else ["run", *flags]
    code = main([*argv, "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, name", [
    ("--config", "missing.yaml"), ("--config", "."), ("--config", "latin1.yaml"),
    ("--out", "missing/x.csv"),
])
def test_file_error_exits_one_naming_the_file(tmp_path, capsys, flag, name):
    # a missing file, a directory, a file not in UTF-8, an output in a missing directory
    (tmp_path / "latin1.yaml").write_bytes(b"tiers: [{density: 5}]  # \xb5\n")
    path = str(tmp_path / name)
    args = {"--out": str(tmp_path / "x.csv"), flag: path}
    code = main(["run", *(a for item in args.items() for a in item)])
    err = capsys.readouterr().err
    assert code == 1
    assert path in err.splitlines()[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("out, named, reason", [
    ("missing/x.csv", "missing/x.csv", "No such file or directory"),
    ("sub", "sub", "Is a directory"),
    ("x.csv", "x.csv.meta.json", "Is a directory"),
    ("afile/x.csv", "afile/x.csv", "Not a directory"),
    ("afile/missing/x.csv", "afile/missing/x.csv", "Not a directory"),
    ("sub/missing/x.csv", "sub/missing/x.csv", "No such file or directory"),
])
def test_unwritable_out_exits_one_before_any_run(tmp_path, capsys, monkeypatch,
                                                 out, named, reason):
    # a missing directory, a directory as the CSV, a directory as its
    # sidecar, a file where a directory should be: each exits before the
    # run, creating and truncating nothing, with the error its write would
    # raise
    (tmp_path / "sub").mkdir()
    (tmp_path / "afile").write_text("")
    if reason != "Is a directory":
        with pytest.raises(OSError) as opened:
            open(tmp_path / out, "w")
        assert opened.value.strerror == reason
    (tmp_path / "x.csv").write_text("kept\n")
    (tmp_path / "x.csv.meta.json").mkdir()
    before = sorted(tmp_path.rglob("*"))

    def no_run(*args, **kwargs):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    code = main(["run", "--engine", "mc", "--snapshots", "3000",
                 "--out", str(tmp_path / out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[0] == f"output error: {tmp_path / named}: {reason}"
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "x.csv").read_text() == "kept\n"


def test_library_below_a_cache_exits_one_naming_both(tmp_path, capsys):
    # either field may be the one the file set, so the error names the
    # scenario and its reason names both paths
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("content: {library_size: 10}\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == ("config error: must be ordered tiers[1].cache.cache_size "
                   "<= content.library_size (20 > 10)\n")


@pytest.mark.parametrize("param, values", [
    ("tiers[2].density", "nan"), ("tiers[*].rho", "1.5"),
    ("tiers[1].cache.cache_size", "2.5"), ("tiers[1].cache.mpc_fraction", "2"),
    ("content.library_size", "0"), ("tiers[2].radio.pathloss_exp_los", "5"),
    ("tiers[2].cache.cache_size", "200"), ("tiers[2].rho", "0"), ("tiers[2].rho", "-0.5"),
    ("tiers[2].density", "bogus"),
])
def test_bad_sweep_value_exits_one_with_its_path(tmp_path, capsys, param, values):
    code = main(["sweep", "--param", param, "--values", values,
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: {param}: ")


@pytest.mark.parametrize("grid, token", [
    (["--logspace", "1", "2", "abc"], "'abc'"), (["--logspace", "x", "2", "3"], "'x'"),
    (["--linspace", "1", "y", "3"], "'y'"), (["--linspace", "1", "2", "3.5"], "'3.5'"),
    (["--logspace", "0", "2", "3"], "must be positive"),
])
def test_bad_grid_token_exits_one_naming_flag_and_token(tmp_path, capsys, grid, token):
    code = main(["sweep", "--param", "tiers[2].density", *grid,
                 "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"config error: sweep: {grid[0]}: ")
    assert token in err and "Traceback" not in err


def test_sweep_of_a_string_value(tmp_path, capsys):
    out = tmp_path / "auto.csv"
    code = main(["sweep", "--param", "protocol.region_radius", "--values", "auto",
                 "--engine", "mc", "--snapshots", "64", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[1].startswith("auto,mc,ok,")


def test_unknown_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("frequency: 2.4\n")
    assert main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "x.csv")]) == 1


def test_numerical_failure_exits_two(tmp_path, capsys):
    cfg = tmp_path / "empty_net.yaml"
    cfg.write_text("tiers:\n  - density: 0.0\n  - density: 0.0\n")
    code = main(["run", "--config", str(cfg), "--engine", "analytic",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_bad_usage_exits_one(tmp_path, capsys):
    assert main(["sweep", "--param", "tiers[2].density"]) == 1  # no grid given
    assert main(["run", "--format", "csv"]) == 1  # no such flag


def test_search_of_four_variables_exits_one(tmp_path, capsys):
    variables = ["tiers[1].rho=0.5", "tiers[2].rho=0.5",
                 "content.popularity_exponent=1", "costs.cache_unit_cost=0.01"]
    code = main(["search", *(a for v in variables for a in ("--var", v)),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "1 to 3 variables" in capsys.readouterr().err
