import contextlib
import csv
import io
import math
import pathlib
import random
import re
import signal
import time

import pytest

from repliq.cli import main
from repliq.config import parse_config
from repliq.engine import event_trace
from repliq.errors import ConfigError
from repliq.policies import NoRep, parse_policy

EXAMPLE1 = """
servers = det(2), finite([(1,0.9),(20,0.1)])
delta = 0
policies = norep; fullrep
"""


def run_cli(tmp_path, args, config_text, name="exp.cfg"):
    cfg = tmp_path / name
    cfg.write_text(config_text)
    out = tmp_path / "out.csv"
    code = main(args + ["--config", str(cfg), "--out", str(out)])
    rows = []
    if out.exists():
        with open(out) as fh:
            body = [line for line in fh if not line.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("".join(body))))
    return code, rows, out


class TestConfigParsing:
    def test_full_round_trip(self):
        cfg = parse_config(
            """
            servers = det(2), finite([(1,1-$p),(20,$p)])
            delta = 0.1
            policies = norep; adarep:{2->1:1}
            mode = poisson
            lambdas = 0.5, 1.0
            jobs = 500
            runs = 3
            seed = 9
            sweep = p: 0.1, 0.2
            """
        )
        assert cfg.mode == "poisson"
        assert cfg.sweep_points() == [0.1, 0.2]
        system, policies = cfg.materialize(0.1)
        assert system.delta == 0.1
        assert len(system.servers) == 2 and len(policies) == 2
        assert system.servers[1].mean() == pytest.approx(0.9 + 2.0, rel=1e-12)

    def test_range_sweep(self):
        cfg = parse_config("servers = exp(1)\nsweep = a: 0.1:0.5:0.1\n")
        assert cfg.sweep_points() == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])

    def test_servers_line_respects_brackets(self):
        cfg = parse_config("servers = det(2), finite([(1,0.9),(20,0.1)]), exp(1)\n")
        assert cfg.materialize_system(None).k == 3

    @pytest.mark.parametrize(
        "text",
        [
            "delta = 0\n",  # no servers
            "servers = det(2)\nmode = warp\n",
            "servers = det(2)\nwhatever = 1\n",
            "servers = det(2)\nmode = poisson\n",  # poisson without lambdas
            "servers = det(2)\nlambdas = 0.5\n",  # lambdas without poisson
            "servers = det(2)\nmode = saturated\nlambdas = 0.5, 1\n",
            "servers = nosuch(1)\n",
            "servers = det(2)\njobs = 0\n",
            "servers = det(2)\nruns = 0\n",
            "servers = det(1/0)\n",
            "servers = det(10**400)\n",
            "servers = det(2)\ndelta = 10**400\n",
            "servers = det(2)\ndelta = 1/0\n",
            "servers = det(inf)\n",
            "servers = det(1e308*10)\n",  # overflows to inf without an error
            "servers = det(2)\ndelta = inf\n",
            "servers = det(2)\ndelta = inf-inf\n",  # nan
            "servers = det(0)\n",  # zero mean
            "servers = finite([(0,1)])\n",
            "servers = det(2)\npaths = 1\n",  # every bound is exact: no path count
            "servers = det(2)\npaths = 0\n",
            "servers = det(2)\nseed = -1\n",  # numpy seeds are non-negative
        ],
    )
    def test_rejects_bad_configs(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_nan_sweep_value_is_rejected(self):
        # it substitutes as nan, which no literal parses, and equals no point
        with pytest.raises(ConfigError, match="nan"):
            parse_config("servers = det(2)\nsweep = p: 0*1e400, 1\n")


class TestAnalyticCommand:
    def test_example_values(self, tmp_path):
        code, rows, _ = run_cli(tmp_path, ["analytic"], EXAMPLE1)
        assert code == 0
        by_policy = {r["policy"]: float(r["throughput"]) for r in rows}
        assert by_policy["norep"] == pytest.approx(0.8448275862, abs=1e-6)
        assert by_policy["fullrep"] == pytest.approx(0.9090909091, abs=1e-6)

    def test_sweep_rows(self, tmp_path):
        text = """
        servers = det(2), finite([(1,1-$p),(20,$p)])
        policies = norep; fullrep
        sweep = p: 0.1, 0.3
        """
        code, rows, _ = run_cli(tmp_path, ["analytic"], text)
        assert code == 0
        assert len(rows) == 4
        assert {r["p"] for r in rows} == {"0.1", "0.3"}

    def test_best_r_row(self, tmp_path):
        text = "servers = " + ", ".join(["hyperexp(0.6,0.2,0.4)"] * 10) + "\npolicies = best-r\n"
        code, rows, _ = run_cli(tmp_path, ["analytic"], text)
        assert code == 0
        assert rows[0]["params"].startswith("r*=10")

    def test_best_r_of_mixed_servers_is_an_error_row(self, tmp_path):
        # it answered r*=1 at the rate of two det(2) servers
        code, rows, _ = run_cli(tmp_path, ["analytic"], EXAMPLE1.replace("norep; fullrep", "best-r"))
        assert code == 0
        assert (rows[0]["throughput"], rows[0]["error"]) == ("", "best-r needs identical servers")

    @pytest.mark.parametrize("spec", ["norep:5", "fullrep:x", "best-partition:zz", "best-r:2"])
    def test_policy_with_an_unknown_argument_is_an_error_row(self, tmp_path, spec):
        code, rows, _ = run_cli(tmp_path, ["analytic"], EXAMPLE1.replace("norep; fullrep", spec))
        assert code == 0
        arg = spec.split(":")[1]
        assert rows[0]["throughput"] == ""
        assert rows[0]["error"] == f"unknown argument {arg!r} in policy literal {spec!r}"

    def test_policy_heads_are_case_insensitive(self, tmp_path):
        # as in simulate, which reads the same literals with parse_policy
        tables = []
        for line in ("NoRep; FULLREP; Best-Partition", "norep; fullrep; best-partition"):
            code, rows, _ = run_cli(tmp_path, ["analytic"], EXAMPLE1.replace("norep; fullrep", line))
            assert code == 0
            tables.append([{k: v for k, v in r.items() if k != "config"} for r in rows])
        assert tables[0] == tables[1]
        assert [r["error"] for r in tables[0]] == ["", "", ""]

    def test_a_sweep_may_share_a_name_with_a_column_of_another_table(self, tmp_path):
        # simulate has a seed column, analytic has none
        code, rows, _ = run_cli(tmp_path, ["analytic"], EXAMPLE1 + "sweep = seed: 1, 2\n")
        assert code == 0
        assert [r["seed"] for r in rows] == ["1.0", "1.0", "2.0", "2.0"]

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("sweep = : 0.1, 0.2\n", "sweep ': 0.1, 0.2' has no name"),
            ("Delta = 0.5\n", "line 5: key 'delta' repeats line 3"),
            ("servers = det(1)\n", "line 5: key 'servers' repeats line 2"),
        ],
        ids=["unnamed-sweep", "repeated-key", "repeated-servers"],
    )
    def test_config_that_says_two_things_exits_two(self, tmp_path, capsys, extra, message):
        code, rows, out = run_cli(tmp_path, ["analytic"], EXAMPLE1 + extra)
        assert code == 2 and rows == [] and not out.exists()
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "servers",
        ["det(0), det(2)", "finite([(0,1)]), det(2)", "det(2), finite([(0,1-$p),($p,$p)])"],
    )
    def test_zero_mean_law_exits_two(self, tmp_path, capsys, servers):
        text = f"servers = {servers}\nsweep = p: 0, 0.5\n"
        code, rows, _ = run_cli(tmp_path, ["analytic"], text)
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("policy", ["upfront:[1,2]", "upfront:[[1,2]", "upfront:[[1],[3]]"])
    def test_malformed_policy_literal_is_an_error_row(self, tmp_path, policy):
        code, rows, _ = run_cli(tmp_path, ["analytic"], EXAMPLE1.replace("norep; fullrep", policy))
        assert code == 0
        assert rows[0]["throughput"] == "" and rows[0]["error"]

    def test_row_level_numeric_error(self, tmp_path):
        text = "servers = pareto(0.5,0.9)\npolicies = norep\n"
        code, rows, _ = run_cli(tmp_path, ["analytic"], text)
        assert code == 0
        assert rows[0]["throughput"] == "" and "mean" in rows[0]["error"]

    def test_deterministic_output_modulo_timestamp(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(EXAMPLE1)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            assert lines[0].startswith("# generated ")
            outs.append("\n".join(lines[1:]))
        assert outs[0] == outs[1]


class TestSimulateCommand:
    def test_saturated_run(self, tmp_path):
        text = """
        servers = det(2), finite([(1,0.9),(20,0.1)])
        policies = norep
        mode = saturated
        jobs = 20000
        seed = 4
        """
        code, rows, _ = run_cli(tmp_path, ["simulate"], text)
        assert code == 0
        row = rows[0]
        assert row["lambda"] == "sat"
        assert float(row["throughput"]) == pytest.approx(0.8448, rel=0.02)
        assert float(row["mean_C"]) > 0

    def test_poisson_rows(self, tmp_path):
        text = """
        servers = det(2), finite([(1,0.9),(20,0.1)])
        policies = fullrep
        mode = poisson
        lambdas = 0.05, 1.2
        jobs = 400
        runs = 5
        seed = 4
        """
        code, rows, _ = run_cli(tmp_path, ["simulate"], text)
        assert code == 0
        assert len(rows) == 2
        low, high = rows
        assert float(low["mean_response"]) == pytest.approx(1.1, rel=0.1)
        assert low["unstable"] == "0" and high["unstable"] == "1"

    def test_exit_three_on_numeric_error(self, tmp_path):
        text = """
        servers = pareto(0.5,0.9), pareto(0.5,0.9)
        policies = maxrate
        mode = saturated
        jobs = 100
        """
        code, _, _ = run_cli(tmp_path, ["simulate"], text)
        assert code == 3

    def test_cli_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "servers = exp(1), exp(1)\npolicies = norep\nmode = saturated\njobs = 50000\n"
        )
        out = tmp_path / "out.csv"
        code = main(
            ["simulate", "--config", str(cfg), "--out", str(out), "--jobs", "500", "--seed", "3"]
        )
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        row = next(csv.DictReader(io.StringIO("\n".join(body))))
        assert row["n_jobs"] == "500" and row["seed"] == "3"

    @pytest.mark.parametrize("lam", ["0", "-0.5", "nan", "inf"])
    def test_bad_poisson_rate_exits_two(self, tmp_path, capsys, lam):
        text = EXAMPLE1 + f"mode = poisson\nlambdas = 0.5, {lam}\njobs = 50\nruns = 2\n"
        code, rows, _ = run_cli(tmp_path, ["simulate"], text)
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "key", ["sweep = p:", "mode = poisson\nlambdas ="], ids=["sweep", "lambdas"]
    )
    @pytest.mark.parametrize(
        "numbers",
        [
            "0.1:x:0.1",
            "nan:1:0.1",
            "0:nan:0.1",
            "0:inf:0.5",
            "0:1:inf",
            "1:0:0.1",
            ",",
            "0:1e-11:1e-13",  # 101 points, which repeat at 12 decimals
            "-1e308:1e308:1",  # the point count overflows a float
        ],
    )
    def test_bad_number_range_exits_two(self, tmp_path, capsys, key, numbers):
        text = EXAMPLE1 + f"{key} {numbers}\njobs = 50\nruns = 2\n"
        code, rows, _ = run_cli(tmp_path, ["simulate"], text)
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "servers,policy",
        [
            ("det(2), det(3)", "upfront:[[1,2]"),  # unclosed bracket
            ("det(2), det(3)", "upfront:[[1,2],[2]]"),  # overlapping groups
            ("det(2), det(3)", "upfront:[[1],[3]]"),  # skips server 2
            ("det(2), det(3), det(4)", "upfront:[[1.5,2],[3]]"),
            ("det(2), det(3), det(4)", "upfront:[[1,2]]"),  # leaves server 3 out
            ("det(2), det(3)", "adarep:{0->1:1}"),
            ("det(2), det(3)", "adarep:{1->5:1}"),
            ("det(2), , det(3)", "norep"),
        ],
    )
    def test_malformed_literal_exits_two(self, tmp_path, capsys, servers, policy):
        text = f"servers = {servers}\npolicies = {policy}\n"
        code, rows, _ = run_cli(tmp_path, ["simulate", "--jobs", "50"], text)
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize(
        "policy,message",
        [
            ("upfront:[[1],[3]]", "groups must cover servers 1..2, got [1, 3]"),
            ("upfront:[[1,2],[2]]", "overlapping groups: [2]"),
        ],
    )
    def test_partition_errors_name_servers_as_written(self, tmp_path, capsys, policy, message):
        text = f"servers = det(2), det(3)\npolicies = {policy}\n"
        code, _, _ = run_cli(tmp_path, ["simulate", "--jobs", "50"], text)
        assert code == 2
        assert message in capsys.readouterr().err

    def test_arithmetic_lambdas_write_the_decimal_rows(self, tmp_path):
        text = EXAMPLE1 + "mode = poisson\njobs = 200\nruns = 2\nlambdas = "
        outs = [run_cli(tmp_path, ["simulate"], text + lams)[1] for lams in ("1/2, 3/4", "0.5, 0.75")]
        for rows in outs:
            for row in rows:
                del row["config"]  # the digest of the config text
        assert len(outs[0]) == 4 and outs[0] == outs[1]

    def test_arithmetic_thresholds_write_the_decimal_rows(self, tmp_path):
        text = "servers = " + ", ".join(["finite([(1,0.9),(20,0.1)])"] * 3) + "\njobs = 2000\n"
        code, swept, _ = run_cli(
            tmp_path, ["simulate"], text + "policies = adarep-hom:[$t, 2*$t]\nsweep = t: 0.25, 1.5\n"
        )
        assert code == 0 and len(swept) == 2
        for row, taus in zip(swept, ("0.25, 0.5", "1.5, 3")):
            code, (plain,), _ = run_cli(tmp_path, ["simulate"], text + f"policies = adarep-hom:[{taus}]\n")
            assert code == 0
            del row["config"], row["t"], plain["config"]
            assert row == plain

    @pytest.mark.parametrize("policy", ["adarep-hom:[nan]", "adarep-hom:[0.5,nan]"])
    def test_nan_threshold_exits_two(self, tmp_path, capsys, policy):
        text = EXAMPLE1.replace("norep; fullrep", policy)
        code, rows, _ = run_cli(tmp_path, ["simulate", "--jobs", "50"], text)
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error:")

    def test_empty_threshold_list_exits_two(self, tmp_path, capsys):
        # it ran as adarep with params {}
        text = EXAMPLE1.replace("norep; fullrep", "adarep-hom:[]") + "jobs = 200\n"
        code, rows, _ = run_cli(tmp_path, ["simulate"], text)
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error:")

    def test_lambdas_without_poisson_mode_exits_two(self, tmp_path, capsys):
        # it ran saturated and wrote lambda=sat rows
        code, rows, _ = run_cli(tmp_path, ["simulate"], EXAMPLE1 + "lambdas = 0.5\njobs = 200\n")
        assert code == 2 and rows == []
        assert capsys.readouterr().err == "config error: lambdas need poisson mode\n"

    @pytest.mark.parametrize("spec", ["norep:3", "fullrep:xyz", "maxrate:nodelta2"])
    def test_policy_with_an_unknown_argument_exits_two(self, tmp_path, capsys, spec):
        text = EXAMPLE1.replace("norep; fullrep", spec) + "jobs = 200\n"
        code, rows, _ = run_cli(tmp_path, ["simulate"], text)
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("horizon", ["inf", "nan", "-1", "1e400"])
    def test_trace_horizon_out_of_range_exits_two(self, tmp_path, horizon):
        # inf and nan would run toward 10**9 departures, -1 would write an empty trace
        trace = tmp_path / "trace.csv"
        args = ["simulate", "--trace", str(trace), "--horizon", horizon]
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, args, EXAMPLE1 + "jobs = 200\n")
        assert exc.value.code == 2 and not trace.exists()


class TestBoundCommand:
    def test_pause_bound_recovers_threshold(self, tmp_path):
        text = "servers = det(2), finite([(1,0.9),(20,0.1)])\n"
        code, rows, _ = run_cli(tmp_path, ["bound"], text)
        assert code == 0 and [r["kind"] for r in rows] == ["pause"]
        assert float(rows[0]["bound"]) == pytest.approx(1.25, rel=1e-6)
        assert "t21=1.0" in rows[0]["optimizer"]

    def test_homogeneous_bound_exponential_pair(self, tmp_path):
        # two identical servers: both bounds apply, and both say never replicate
        text = "servers = exp(1), exp(1)\ndelta = 0.5\n"
        code, rows, _ = run_cli(tmp_path, ["bound"], text)
        assert code == 0 and [r["kind"] for r in rows] == ["pause", "homogeneous"]
        assert [r["optimizer"] for r in rows] == ["t12=inf;t21=inf", "inf"]
        for row in rows:
            assert float(row["bound"]) == pytest.approx(2.0, abs=1e-3)

    def test_deterministic_bound(self, tmp_path):
        text = "servers = det(2), det(2), det(2)\n"
        code, rows, _ = run_cli(tmp_path, ["bound"], text)
        assert code == 0 and [r["kind"] for r in rows] == ["homogeneous"]
        assert float(rows[0]["bound"]) == pytest.approx(1.5, rel=1e-9)

    def test_config_error_exit_two(self, tmp_path, capsys):
        # three servers with different laws: neither bound applies
        text = "servers = det(2), det(3), det(4)\n"
        code, rows, out = run_cli(tmp_path, ["bound"], text)
        assert code == 2 and rows == [] and not out.exists()
        assert capsys.readouterr().err == "config error: no applicable bound for this server mix\n"

    @pytest.mark.parametrize("flag", ["--jobs", "--runs"])
    def test_count_override_below_one_exits_two(self, tmp_path, capsys, flag):
        code, rows, out = run_cli(tmp_path, ["simulate", flag, "0"], EXAMPLE1)
        assert code == 2 and rows == [] and not out.exists()
        assert capsys.readouterr().err == f"config error: {flag[2:]} must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "command,text",
        [("simulate", EXAMPLE1 + "jobs = 200\n"), ("bound", "servers = exp(1), exp(1)\n")],
    )
    def test_negative_seed_exits_two(self, tmp_path, capsys, command, text):
        # the file's seed is checked for every command; only simulate reads
        # it, so bound takes no --seed and refuses the flag as a usage error
        code, rows, _ = run_cli(tmp_path, [command], text + "seed = -1\n")
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error:")
        if command == "bound":
            with pytest.raises(SystemExit) as exc:
                run_cli(tmp_path, [command, "--seed", "-1"], text)
            assert exc.value.code == 2
            assert "unrecognized arguments: --seed -1" in capsys.readouterr().err
            return
        code, rows, out = run_cli(tmp_path, [command, "--seed", "-1"], text)
        assert code == 2 and rows == [] and not out.exists()
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"

    def test_paths_override_below_two_exits_two(self, tmp_path, capsys):
        # every bound is exact: neither a flag nor the file sets a path count
        text = "servers = exp(1), exp(1)\n"
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, ["bound", "--paths", "1"], text)
        assert exc.value.code == 2
        assert "unrecognized arguments: --paths 1" in capsys.readouterr().err
        code, rows, out = run_cli(tmp_path, ["bound"], text + "paths = 1\n")
        assert code == 2 and rows == [] and not out.exists()
        assert capsys.readouterr().err == "config error: line 2: unknown key 'paths'\n"


class TestOverrides:
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("analytic", "--seed"),
            ("analytic", "--jobs"),
            ("mdp", "--jobs"),
            ("mdp", "--paths"),
            ("bound", "--runs"),
            ("simulate", "--paths"),
        ],
    )
    def test_override_a_command_does_not_read_exits_two(self, tmp_path, capsys, command, flag):
        # the command took the flag and ignored it
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, [command, flag, "5"], EXAMPLE1)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_override_replaces_the_file_value_and_keeps_its_digest(self, tmp_path):
        text = EXAMPLE1 + "jobs = 200\n"
        code, rows, _ = run_cli(tmp_path, ["simulate", "--jobs", "100"], text)
        plain_code, plain_rows, _ = run_cli(tmp_path, ["simulate"], text)
        assert code == plain_code == 0
        assert [r["n_jobs"] for r in rows] == ["100", "100"]
        assert [r["n_jobs"] for r in plain_rows] == ["200", "200"]
        assert [r["config"] for r in rows] == [r["config"] for r in plain_rows]
        assert rows[0]["config"] == parse_config(text).digest

    def test_non_integer_override_is_a_config_error(self, tmp_path, capsys):
        code, rows, out = run_cli(tmp_path, ["simulate", "--jobs", "2.5"], EXAMPLE1)
        assert code == 2 and rows == [] and not out.exists()
        assert capsys.readouterr().err.startswith("config error: jobs must be an integer")

    def test_trace_of_a_sweep_is_the_first_points_once(self, tmp_path):
        # the trace is written at the first sweep point only, not
        # overwritten by the later ones
        text = EXAMPLE1.replace("det(2)", "det($d)") + "sweep = d: 2, 3\n"
        trace = tmp_path / "trace.csv"
        args = ["simulate", "--jobs", "50", "--seed", "4", "--trace", str(trace), "--horizon", "30"]
        code, rows, _ = run_cli(tmp_path, args, text)
        assert code == 0 and [r["d"] for r in rows] == ["2.0", "2.0", "3.0", "3.0"]
        cfg = parse_config(text)
        first, last = (
            event_trace(cfg.materialize_system(d), NoRep(), 30.0, 4) for d in (2.0, 3.0)
        )
        assert first != last
        lines = trace.read_text().splitlines()
        assert lines[0] == "time,event,job_id,server,detail"
        assert lines[1:] == [f"{t!r},{ev},{job},{s},{detail}" for t, ev, job, s, detail in first]


class TestSweepNames:
    @pytest.mark.parametrize(
        "command,name",
        [
            ("simulate", "seed"),
            ("simulate", "lambda"),
            ("analytic", "policy"),
            ("bound", "kind"),
            ("mdp", "state"),
            ("analytic", "config"),
            ("mdp", "version"),
        ],
    )
    def test_sweep_named_after_a_column_exits_two(self, tmp_path, capsys, command, name):
        # the sweep value and the column would share one cell of every row
        trace = tmp_path / "trace.csv"
        args = [command, "--trace", str(trace)] if command == "simulate" else [command]
        text = EXAMPLE1 + f"sweep = {name}: 1, 2\njobs = 50\n"
        code, rows, out = run_cli(tmp_path, args, text)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("config error:") and repr(name) in err
        assert not out.exists() and not trace.exists()


class TestMdpCommand:
    def test_gain_and_policy_rows(self, tmp_path):
        text = "servers = det(2), finite([(1,0.9),(20,0.1)])\ndelta = 0\n"
        code, rows, _ = run_cli(tmp_path, ["mdp"], text)
        assert code == 0
        gain_rows = [r for r in rows if r["item"] == "gain"]
        assert len(gain_rows) == 1
        value = gain_rows[0]["value"]
        throughput = float(value.split("throughput=")[1].split(";")[0])
        assert throughput == pytest.approx(1.2184873949579833, rel=1e-6)
        policy_rows = [r for r in rows if r["item"] == "policy"]
        assert len(policy_rows) >= 20
        assert any(r["action"].startswith("rep[") for r in policy_rows)

    def test_single_server(self, tmp_path):
        text = "servers = finite([(2,1)])\n"
        code, rows, _ = run_cli(tmp_path, ["mdp"], text)
        assert code == 0
        value = [r for r in rows if r["item"] == "gain"][0]["value"]
        assert "throughput=0.5" in value

    def test_deterministic_pair(self, tmp_path):
        text = "servers = det(1), det(1)\n"
        code, rows, _ = run_cli(tmp_path, ["mdp"], text)
        assert code == 0
        value = [r for r in rows if r["item"] == "gain"][0]["value"]
        throughput = float(value.split("throughput=")[1].split(";")[0])
        assert throughput == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize(
        "servers", ["exp(1), exp(2)", "finite([(0,0.5),(2,0.5)]), finite([(0,0.5),(2,0.5)])"]
    )
    def test_laws_it_cannot_take_exit_two(self, tmp_path, capsys, servers):
        code, rows, _ = run_cli(tmp_path, ["mdp"], f"servers = {servers}\n")
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error: decision process needs")

    def test_sweep_rows_carry_the_sweep_column(self, tmp_path):
        text = "servers = det(2), finite([(1,1-$p),(20,$p)])\nsweep = p: 0.1, 0.2\n"
        code, rows, out = run_cli(tmp_path, ["mdp"], text)
        assert code == 0
        assert out.read_text().splitlines()[1] == "config,version,p,item,state,action,value"
        assert [r["p"] for r in rows if r["item"] == "gain"] == ["0.1", "0.2"]
        assert {r["p"] for r in rows if r["item"] == "policy"} == {"0.1", "0.2"}

    def test_lattice_states_print_times(self, tmp_path):
        # the kernel counts ticks of 0.1; its state strings print times
        rows = _run_experiment(tmp_path, "mdp", "mdp_lattice.cfg")
        (gain,) = [r["value"] for r in rows if r["item"] == "gain"]
        assert "throughput=5.668088136520742;states=20" in gain
        states = [r["state"] for r in rows if r["item"] == "policy"]
        assert "jobs=[[2]]|t=0,0.3|c=0,0|dr=0" in states
        elapsed = [float(t) for st in states for t in st.split("|t=")[1].split("|")[0].split(",")]
        assert max(elapsed) == 1.6


def _run_experiment(tmp_path, command, name):
    import pathlib

    cfg = pathlib.Path(__file__).parent.parent / "experiments" / name
    out = tmp_path / "out.csv"
    code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


# the number of laws each shipped config's servers line writes
SHIPPED_K = {
    "bound_atomic_k7.cfg": 7,
    "bound_exponential_pair.cfg": 2,
    "bound_mixed_pair.cfg": 2,
    "bound_hyperexp_k3.cfg": 3,
    "bound_hyperexp_k6.cfg": 6,
    "bound_p_sweep.cfg": 2,
    "example1_analytic.cfg": 2,
    "example1_simulate.cfg": 2,
    "homog_best_r.cfg": 10,
    "homog_k6_simulate.cfg": 6,
    "hyperexp_vs_p2.cfg": 2,
    "maxrate_p_sweep.cfg": 2,
    "mdp_example1.cfg": 2,
    "mdp_k5_delay.cfg": 5,
    "mdp_k5_identical.cfg": 5,
    "mdp_k6_delay.cfg": 6,
    "mdp_k6_identical.cfg": 6,
    "mdp_lattice.cfg": 2,
    "pareto_vs_alpha.cfg": 2,
    "response_time.cfg": 2,
}


class TestShippedExperiments:
    @pytest.mark.parametrize(
        "path",
        sorted((pathlib.Path(__file__).parent.parent / "experiments").glob("*.cfg")),
        ids=lambda p: p.name,
    )
    def test_every_sweep_point_materializes(self, path):
        # best-partition and best-r name closed-form optima of the analytic
        # command, not simulator policies
        cfg = parse_config(path.read_text())
        for point in cfg.sweep_points():
            system = cfg.materialize_system(point)
            assert system.k == SHIPPED_K[path.name]
            for spec in cfg.policy_specs(point):
                if spec not in ("best-partition", "best-r"):
                    policy = parse_policy(spec)
                    assert parse_policy(policy.spec()).spec() == policy.spec()

    def test_example1_analytic_config(self, tmp_path):
        rows = _run_experiment(tmp_path, "analytic", "example1_analytic.cfg")
        ps = sorted({float(r["p"]) for r in rows})
        assert len(ps) == 10 and math.isclose(ps[0], 0.05)

    def test_monte_carlo_bound_config(self, tmp_path, capsys):
        # minimising over common sample paths fits the paths and can read
        # below the bound, so the CLI offers no Monte-Carlo estimator
        path = pathlib.Path(__file__).parent.parent / "experiments" / "bound_hyperexp_k6.cfg"
        text = path.read_text() + "estimator = monte-carlo\npaths = 5000\n"
        n = len(text.splitlines()) - 1
        code, rows, out = run_cli(tmp_path, ["bound"], text)
        assert code == 2 and rows == [] and not out.exists()
        assert capsys.readouterr().err == f"config error: line {n}: unknown key 'estimator'\n"

    def test_hyperexp_six_server_bound_config(self, tmp_path):
        # the exact homogeneous bound on the homog_wide benchmark law, pinned
        # like TestHomogeneousBoundPins.test_exact
        (row,) = _run_experiment(tmp_path, "bound", "bound_hyperexp_k6.cfg")
        assert (row["kind"], row["error"]) == ("homogeneous", "")
        assert float(row["bound"]) == 2.2581058275278525
        assert row["optimizer"] == (
            "1.4752582642136465;1.9006838296070614;2.6086741763829613;"
            "3.277310253803528;3.914456770897774"
        )

    def test_atomic_seven_server_bound_config(self, tmp_path):
        # seven copies of an eight-atom law: 8^7 outcomes, too many to enumerate
        (row,) = _run_experiment(tmp_path, "bound", "bound_atomic_k7.cfg")
        assert (row["kind"], row["error"]) == ("homogeneous", "")
        assert math.isfinite(float(row["bound"]))
        assert len(row["optimizer"].split(";")) == 6

    def test_pareto_sweep_crossing(self, tmp_path):
        # heavy tails reward replication: full replication wins at small
        # shape, loses at large shape, with a crossing in between
        rows = _run_experiment(tmp_path, "analytic", "pareto_vs_alpha.cfg")
        gap = {}
        for r in rows:
            gap.setdefault(float(r["a"]), {})[r["policy"]] = float(r["throughput"])
        diffs = [v["fullrep"] - v["norep"] for _, v in sorted(gap.items())]
        assert diffs[0] > 0 and diffs[-1] < 0
        assert any(a > 0 > b for a, b in zip(diffs, diffs[1:]))

    def test_hyperexp_sweep_interior_window(self, tmp_path):
        # replication wins only on an interior band of mixing probabilities
        rows = _run_experiment(tmp_path, "analytic", "hyperexp_vs_p2.cfg")
        gap = {}
        for r in rows:
            gap.setdefault(float(r["p2"]), {})[r["policy"]] = float(r["throughput"])
        diffs = [v["fullrep"] - v["norep"] for _, v in sorted(gap.items())]
        assert diffs[0] < 0 and diffs[-1] < 0
        assert max(diffs) > 0

    def test_trace_emission(self, tmp_path):
        import pathlib

        cfg = pathlib.Path(__file__).parent.parent / "experiments" / "example1_simulate.cfg"
        out = tmp_path / "out.csv"
        trace = tmp_path / "trace.csv"
        code = main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--jobs",
                "200",
                "--trace",
                str(trace),
                "--horizon",
                "25",
            ]
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "time,event,job_id,server,detail"
        assert any(",start," in l for l in lines[1:])
        assert any(",depart," in l for l in lines[1:])

    def test_gnuplot_emission(self, tmp_path):
        # an analytic sweep: one line per policy through every sweep point
        cfg = tmp_path / "exp.cfg"
        swept = EXAMPLE1.replace("(1,0.9),(20,0.1)", "(1,1-$p),(20,$p)")
        cfg.write_text(swept + "sweep = p: 0.1:0.3:0.1\n")
        out = tmp_path / "out.csv"
        plot = tmp_path / "plot.gp"
        code = main(
            ["analytic", "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)]
        )
        assert code == 0
        lines = self._plotted(plot.read_text(), out.read_text())
        assert [title for _, _, title, _ in lines] == ["norep", "fullrep"]
        for x, y, title, rows in lines:
            assert (x, y) == ("p", "throughput")
            assert [float(r["p"]) for r in rows] == pytest.approx([0.1, 0.2, 0.3])
            assert {r["policy"] for r in rows} == {title}

    @pytest.mark.parametrize(
        "command,name", [("analytic", "example1_analytic.cfg"), ("bound", "bound_p_sweep.cfg")]
    )
    def test_gnuplot_plots_columns_of_the_csv(self, tmp_path, command, name):
        # one line per policy (analytic: as the config names it) or bound kind
        titles = {"analytic": ["norep", "fullrep", "best-partition"], "bound": ["pause"]}[command]
        cfg = pathlib.Path(__file__).parent.parent / "experiments" / name
        out, plot = tmp_path / "out.csv", tmp_path / "plot.gp"
        code = main([command, "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)])
        assert code == 0
        header = out.read_text().splitlines()[1].split(",")
        data = list(csv.DictReader(io.StringIO(out.read_text().split("\n", 1)[1])))
        lines = self._plotted(plot.read_text(), out.read_text())
        assert [title for _, _, title, _ in lines] == titles
        points = [r["p"] for r in data][:: len(titles)]
        for x, y, title, rows in lines:
            assert x == "p" and y in header
            assert [r["p"] for r in rows] == points
        # the lines together draw every row once
        drawn = [tuple(r.values()) for *_, rows in lines for r in rows]
        assert sorted(drawn) == sorted(tuple(r.values()) for r in data)

    @pytest.mark.parametrize(
        "command,name", [("analytic", "homog_best_r.cfg"), ("bound", "bound_mixed_pair.cfg")]
    )
    def test_gnuplot_of_a_table_without_a_sweep_exits_two(self, tmp_path, capsys, command, name):
        # rows labelled by policy or bound kind have no numeric x to plot against
        cfg = pathlib.Path(__file__).parent.parent / "experiments" / name
        out, plot = tmp_path / "t.csv", tmp_path / "t.gp"
        code = main([command, "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith("config error:")
        assert "numeric x" in captured.err
        assert not plot.exists() and not out.exists()

    def test_gnuplot_of_bound_kinds_that_change_along_the_sweep_exits_two(self, tmp_path, capsys):
        # two exponential servers are identical at x = 1 only, where the
        # homogeneous bound joins the pause bound: no kind has a row per point
        text = "servers = exp(1), exp($x)\ndelta = 0\nsweep = x: 1, 2\n"
        cfg, out, plot = tmp_path / "b.cfg", tmp_path / "b.csv", tmp_path / "b.gp"
        cfg.write_text(text)
        code = main(["bound", "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)])
        captured = capsys.readouterr()
        assert code == 2 and "same bound kinds at every sweep point" in captured.err
        assert not plot.exists() and not out.exists()

    def test_gnuplot_is_not_offered_on_the_policy_table(self, tmp_path, capsys):
        # the mdp CSV has no y column to plot
        cfg = pathlib.Path(__file__).parent.parent / "experiments" / "mdp_example1.cfg"
        out, plot = tmp_path / "m.csv", tmp_path / "m.gp"
        with pytest.raises(SystemExit) as exc:
            main(["mdp", "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --gnuplot" in capsys.readouterr().err
        assert not plot.exists() and not out.exists()

    @staticmethod
    def _plotted(script, csv_text):
        """(x, y, title, rows) of each plot element: the CSV rows its every
        clause selects, as dicts."""
        data = list(csv.DictReader(io.StringIO(csv_text.split("\n", 1)[1])))
        body = script.split("\nplot ", 1)[1].replace(", \\\n", "\n")
        out = []
        for element in body.split("\n"):
            if not element.strip():
                continue
            m = re.match(
                r"\s*'[^']+' every (\d+)::(\d+)::(\d+) using '(\w+)':'(\w+)'"
                r" with linespoints title '(.*)'$",
                element,
            )
            assert m, element
            stride, first, last = map(int, m.group(1, 2, 3))
            out.append((m[4], m[5], m[6], data[first : last + 1 : stride]))
        return out

    def test_gnuplot_plots_poisson_response_against_lambda_per_policy(self, tmp_path):
        text = "\n".join(
            [
                "servers = det(2), finite([(1,0.9),(20,0.1)])",
                "policies = norep; fullrep; adarep:{1->2:inf, 2->1:1}",
                "mode = poisson",
                "lambdas = 0.1, 0.3, 0.5",
                "jobs = 50",
                "runs = 2",
            ]
        )
        cfg, out, plot = tmp_path / "p.cfg", tmp_path / "p.csv", tmp_path / "p.gp"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)]) == 0
        lines = self._plotted(plot.read_text(), out.read_text())
        titles = [title for _, _, title, _ in lines]
        assert titles == ["norep", "fullrep", "adarep:{1->2:inf,2->1:1}"]
        for x, y, title, rows in lines:
            assert (x, y) == ("lambda", "mean_response")
            assert [r["lambda"] for r in rows] == ["0.1", "0.3", "0.5"]
            assert {r["policy"] for r in rows} == {title.split(":")[0]}

    def test_gnuplot_plots_a_poisson_sweep_per_policy_and_lambda(self, tmp_path):
        text = "\n".join(
            [
                "servers = det(2), finite([(1,1-$p),(20,$p)])",
                "policies = norep; fullrep",
                "mode = poisson",
                "lambdas = 0.1, 0.3",
                "jobs = 50",
                "runs = 2",
                "sweep = p: 0.1, 0.2",
            ]
        )
        cfg, out, plot = tmp_path / "p.cfg", tmp_path / "p.csv", tmp_path / "p.gp"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)]) == 0
        lines = self._plotted(plot.read_text(), out.read_text())
        assert [title for _, _, title, _ in lines] == [
            f"{policy} lambda={lam}" for policy in ("norep", "fullrep") for lam in ("0.1", "0.3")
        ]
        for x, y, title, rows in lines:
            policy, lam = title.split(" lambda=")
            assert (x, y) == ("p", "mean_response")
            assert [r["p"] for r in rows] == ["0.1", "0.2"]
            assert {(r["policy"], r["lambda"]) for r in rows} == {(policy, lam)}

    @pytest.mark.parametrize(
        "command,name,plots",
        [
            (
                "analytic",
                "example1_analytic.cfg",
                "plot 'OUT' every 3::0::27 using 'p':'throughput' with linespoints title 'norep', \\\n"
                "     'OUT' every 3::1::28 using 'p':'throughput' with linespoints title 'fullrep', \\\n"
                "     'OUT' every 3::2::29 using 'p':'throughput' with linespoints"
                " title 'best-partition'\n",
            ),
            (
                "bound",
                "bound_p_sweep.cfg",
                "plot 'OUT' every 1::0::9 using 'p':'bound' with linespoints title 'pause'\n",
            ),
        ],
        ids=["analytic", "bound"],
    )
    def test_gnuplot_script_text(self, tmp_path, command, name, plots):
        cfg = pathlib.Path(__file__).parent.parent / "experiments" / name
        out, plot = tmp_path / "out.csv", tmp_path / "plot.gp"
        code = main([command, "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)])
        assert code == 0
        y = "bound" if command == "bound" else "throughput"
        assert plot.read_text().replace(str(out), "OUT") == (
            "set datafile separator ','\n"
            f"set xlabel 'p'\nset ylabel '{y}'\nset key outside\n" + plots
        )

    def test_gnuplot_plots_a_simulated_sweep_per_policy(self, tmp_path):
        cfg = pathlib.Path(__file__).parent.parent / "experiments" / "maxrate_p_sweep.cfg"
        out, plot = tmp_path / "s.csv", tmp_path / "s.gp"
        args = ["--config", str(cfg), "--jobs", "100", "--out", str(out), "--gnuplot", str(plot)]
        assert main(["simulate", *args]) == 0
        lines = self._plotted(plot.read_text(), out.read_text())
        assert [title for _, _, title, _ in lines] == ["norep", "fullrep", "maxrate"]
        for x, y, title, rows in lines:
            assert (x, y) == ("p", "throughput")
            assert [float(r["p"]) for r in rows] == pytest.approx([0.05 * i for i in range(1, 11)])
            assert {r["policy"] for r in rows} == {title}

    def test_gnuplot_without_a_numeric_x_exits_two(self, tmp_path, capsys):
        # a saturated table with no sweep has one row per policy and nothing to plot against
        cfg = pathlib.Path(__file__).parent.parent / "experiments" / "example1_simulate.cfg"
        out, plot = tmp_path / "s.csv", tmp_path / "s.gp"
        code = main(["simulate", "--config", str(cfg), "--out", str(out), "--gnuplot", str(plot)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith("config error:")
        assert "numeric x" in captured.err
        assert not plot.exists() and not out.exists()

    def test_gnuplot_without_a_csv_file_exits_two(self, tmp_path, capsys):
        # with the CSV on stdout there is no file for the script to plot
        cfg = pathlib.Path(__file__).parent.parent / "experiments" / "example1_analytic.cfg"
        plot = tmp_path / "a.gp"
        code = main(["analytic", "--config", str(cfg), "--gnuplot", str(plot)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("config error:")
        assert not plot.exists()


class TestNonFiniteLawParameters:
    @pytest.mark.parametrize(
        "command,servers",
        [
            ("analytic", "exp(inf), det(1)"),
            ("simulate", "exp(inf), det(1)"),
            ("simulate", "finite([(1,0.5),(inf,0.5)]), det(1)"),
            ("bound", "finite([(1,0.5),(inf,0.5)]), det(1)"),
            ("simulate", "pareto(inf,2), det(1)"),
            ("bound", "pareto(inf,2), det(1)"),
            ("simulate", "shiftexp(inf,1), det(1)"),
            ("bound", "shiftexp(inf,1), det(1)"),
            ("analytic", "finite([(inf-inf,1)]), det(1)"),
            ("analytic", "pareto(1,inf), det(1)"),
            ("analytic", "hyperexp(1,inf,0.5), det(1)"),
            ("analytic", "finite([(1,inf-inf),(2,1)]), det(1)"),
        ],
    )
    def test_exits_two(self, tmp_path, capsys, command, servers):
        text = f"servers = {servers}\ndelta = 0\npolicies = norep; maxrate\njobs = 200\n"
        code, rows, _ = run_cli(tmp_path, [command], text)
        assert code == 2 and rows == []
        assert capsys.readouterr().err.startswith("config error:")

    def test_infinite_thresholds_are_still_accepted(self, tmp_path):
        text = EXAMPLE1.replace("norep; fullrep", "adarep:{1->2:inf}") + "jobs = 200\n"
        code, rows, _ = run_cli(tmp_path, ["simulate"], text)
        assert code == 0 and len(rows) == 1


# inputs that once ended in a traceback or ran without end, listed before
# their first run: (id, command, config text)
TINY, HUGE = "finite([(1e-300,1)])", "finite([(1e300,1)])"
P_SWEEP = "servers = det(2), finite([(1,1-$p),(20,$p)])\npolicies = norep\njobs = 300\n"
DEGENERATE_INPUTS = [
    ("zero-tick-atom", "mdp", "servers = det(1e-17), finite([(1,0.9),(20,0.1)])\ndelta = 0\n"),
    ("tiny-atom", "mdp", f"servers = {TINY}\ndelta = 0\n"),
    ("tiny-atom", "bound", f"servers = {TINY}\ndelta = 0.1\n"),
    ("tiny-atom-pair", "bound", f"servers = {TINY}, {TINY}\ndelta = 0.1\n"),
    ("huge-atom", "bound", f"servers = {HUGE}, {HUGE}, {HUGE}\ndelta = 0\n"),
    ("huge-atom-mix", "mdp", "servers = det(2), finite([(1,0.8),(1e300,0.2)])\ndelta = 0\n"),
    ("tiny-rate", "bound", "servers = det(2), hyperexp(0.6,1e-300,0.4)\ndelta = 0.1\n"),
    ("fine-sweep", "analytic", P_SWEEP + "sweep = p: 0.05:0.5:1e-17\n"),
    ("fine-sweep", "simulate", P_SWEEP + "sweep = p: 0.05:0.5:1e-17\n"),
    ("fine-lambdas", "analytic", EXAMPLE1 + "jobs = 300\nmode = poisson\nlambdas = 0.1:1:1e-17\n"),
    ("fine-lambdas", "simulate", EXAMPLE1 + "jobs = 300\nmode = poisson\nlambdas = 0.1:1:1e-17\n"),
]


class RanPastTenSeconds(Exception):
    """Not an OSError, which main would report as a config error."""


def _time_out(signum, frame):
    raise RanPastTenSeconds


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "command,text",
        [case[1:] for case in DEGENERATE_INPUTS],
        ids=[f"{command}-{name}" for name, command, _ in DEGENERATE_INPUTS],
    )
    def test_ends_in_rows_or_one_typed_error(self, tmp_path, capsys, command, text):
        # the alarm stops an input that would run on, or allocate without end
        previous = signal.signal(signal.SIGALRM, _time_out)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        start = time.perf_counter()
        try:
            code, rows, out = run_cli(tmp_path, [command], text)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 10.0
        err = capsys.readouterr().err
        if code == 0:  # a bound row may carry an error cell
            assert rows and err == ""
        else:
            assert code in (2, 3) and rows == [] and not out.exists()
            (line,) = err.splitlines()
            assert line.startswith(("config error:", "numeric error:"))


# A seeded mutation sweep over the shipped configs: each case takes one
# config, drops its comments and its jobs and runs lines, changes one or two
# of its other lines, and runs one command on it with jobs = 300 and runs = 2.
# A change replaces one number inside a line's value by one of
# SWEEP_NUMBERS, or the whole value by one of SWEEP_LITERALS.  The seed and
# the lists are fixed; a case that fails is a finding, not one to re-draw.
SWEEP_SEED = 20261022
SWEEP_CASES = 200
SWEEP_NUMBERS = ("0", "-0", "1e-300", "1e300", "nan", "inf", "-1", "0.1", "1e-17", "3")
SWEEP_LITERALS = (
    "", "0", "-1", "nan", "inf", "1/0", "10**400", "1e300", "1e-300", "foo", "((", "1,2",
    "det(0)", "det(-1)", "exp(0)", "finite([])", "finite([(1,0.5)])",
    "finite([(1e300,0.5),(1,0.5)])", "finite([(1e-300,0.5),(1,0.5)])", "pareto(0.5,0.5)",
    "pareto(1,1)", "hyperexp(1,1,2)", "hyperexp(1e-300,1,0.5)", "shift(1, det(1))",
    "shiftexp(-1,1)", "det(2), det(2), det(2)", "norep", "maxrate:nodelta", "adarep:{1->9:1}",
    "adarep-hom:[]", "upfront:[[1],[1]]", "best-r", "poisson", "saturated", "p: 1",
    "0:1:0.5", "0:1:0", "1:0:0.1", "x: 1, 2", "0.5, 1e300",
)
SWEEP_COMMANDS = ("analytic", "bound", "mdp", "simulate")
# exact optima of five to seven servers take seconds to minutes unmutated
SWEEP_SLOW = {
    ("mdp", "bound_atomic_k7.cfg"),
    ("mdp", "mdp_k5_delay.cfg"),
    ("mdp", "mdp_k5_identical.cfg"),
    ("mdp", "mdp_k6_delay.cfg"),
    ("mdp", "mdp_k6_identical.cfg"),
}
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:e[-+]?\d+)?")


def _mutation_cases():
    rng = random.Random(SWEEP_SEED)
    paths = sorted((pathlib.Path(__file__).parent.parent / "experiments").glob("*.cfg"))
    cases = []
    while len(cases) < SWEEP_CASES:
        path, command = rng.choice(paths), rng.choice(SWEEP_COMMANDS)
        if (command, path.name) in SWEEP_SLOW:
            continue
        lines = [raw.split("#", 1)[0].strip() for raw in path.read_text().splitlines()]
        lines = [ln for ln in lines if ln and ln.split("=")[0].strip() not in ("jobs", "runs")]
        for _ in range(rng.choice((1, 2))):
            i = rng.randrange(len(lines))
            key, _, value = lines[i].partition("=")
            numbers = list(_NUMBER.finditer(value))
            if numbers and rng.random() < 0.5:
                m = rng.choice(numbers)
                value = value[: m.start()] + rng.choice(SWEEP_NUMBERS) + value[m.end() :]
            else:
                value = " " + rng.choice(SWEEP_LITERALS)
            lines[i] = f"{key}={value}"
        cases.append((command, path.name, "\n".join(lines + ["jobs = 300", "runs = 2"]) + "\n"))
    return cases


class TestMutationSweep:
    def test_every_case_ends_in_rows_or_a_typed_error(self, tmp_path):
        # exit 0, 2 or 3 and no traceback, each case within a 5 s alarm
        failures = []
        cfg, out = tmp_path / "mutated.cfg", tmp_path / "out.csv"
        previous = signal.signal(signal.SIGALRM, _time_out)
        try:
            for command, name, text in _mutation_cases():
                cfg.write_text(text)
                err = io.StringIO()
                signal.setitimer(signal.ITIMER_REAL, 5.0)
                try:
                    with contextlib.redirect_stderr(err):
                        code = main([command, "--config", str(cfg), "--out", str(out)])
                except RanPastTenSeconds:
                    code = "past 5 s"
                except Exception as exc:  # every escape from main is a finding
                    code = repr(exc)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                if code not in (0, 2, 3) or "Traceback" in err.getvalue():
                    failures.append((command, name, text, code))
        finally:
            signal.signal(signal.SIGALRM, previous)
        assert failures == []
