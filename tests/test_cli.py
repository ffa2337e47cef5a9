"""Unified ``python -m repro`` CLI tests: subcommand smoke runs over
the app scenarios, ``--help`` snapshots, exit codes on bad arguments,
JSON output (the serve payload of the same spec), CLI/serve parity on
invalid requests, and the run-store management subcommand."""

import json

import pytest

from repro.cli import build_parser
from repro.cli import main as cli
from repro.search.store import RunStore
from repro.serve import JobRegistry, JobSpec
from repro.session import Session
from repro.util.errors import ConfigError
from tests.conftest import result_content

#: fast search arguments shared by the store-backed tests
_FAST = ["--budget", "3", "--strategies", "greedy"]


def _run_search_into(store, extra=()):
    code = cli(
        ["search", "--kernel", "kmeans", *_FAST, "--store", str(store),
         *extra]
    )
    assert code == 0
    return RunStore(store)


#: invalid requests as CLI arguments and as the same serve spec
_INVALID = {
    "threshold-negative": (
        ["tune", "--kernel", "kmeans", "--threshold", "-1"],
        {"kind": "tune", "kernel": "kmeans", "threshold": -1},
    ),
    "threshold-zero": (
        ["analyze", "kmeans", "--threshold", "0"],
        {"kind": "analyze", "kernel": "kmeans", "threshold": 0},
    ),
    "budget-zero": (
        ["search", "--kernel", "kmeans", "--budget", "0"],
        {"kind": "search", "kernel": "kmeans", "budget": 0},
    ),
    "point-out-of-range": (
        ["estimate", "--kernel", "kmeans", "--point", "99"],
        {"kind": "estimate", "kernel": "kmeans", "point": 99},
    ),
    "aggregate-unknown": (
        ["sweep", "--kernel", "blackscholes", "--aggregate", "p999"],
        {"kind": "sweep", "kernel": "blackscholes", "aggregate": "p999"},
    ),
    "robust-tune-without-sweep": (
        ["tune", "--kernel", "kmeans", "--robust"],
        {"kind": "tune", "kernel": "kmeans", "robust": True},
    ),
    "sweep-without-sweep": (
        ["sweep", "--kernel", "kmeans"],
        {"kind": "sweep", "kernel": "kmeans"},
    ),
    "unknown-kernel": (
        ["estimate", "--kernel", "nope"],
        {"kind": "estimate", "kernel": "nope"},
    ),
}


class TestServeParity:
    """The CLI and the job server reject an invalid request alike:
    same error class, same message, CLI exit 2."""

    @pytest.mark.parametrize("case", sorted(_INVALID))
    def test_invalid_request_rejected_alike(self, case, capsys):
        argv, raw = _INVALID[case]
        reg = JobRegistry(Session(), workers=1)
        try:
            with pytest.raises(ConfigError) as served:
                reg.submit(JobSpec.from_dict(raw))
        finally:
            reg.close()
        args = build_parser().parse_args(argv)
        with pytest.raises(ConfigError) as refused:
            args.func(args)
        assert type(refused.value) is type(served.value)
        assert str(refused.value) == str(served.value)
        assert cli(argv) == 2
        assert capsys.readouterr().err == f"error: {served.value}\n"


class TestHelp:
    def test_top_level_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in (
            "estimate", "sweep", "tune", "search", "plan", "runs", "serve",
        ):
            assert name in out

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            cli(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_no_subcommand_prints_help(self, capsys):
        assert cli([]) == 2
        assert "usage: python -m repro" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command,needle",
        [
            ("estimate", "--point"),
            ("sweep", "--aggregate"),
            ("tune", "--robust"),
            ("search", "--store"),
            ("plan", "--all"),
            ("runs", "--prune"),
            ("serve", "--max-queue"),
        ],
    )
    def test_subcommand_help(self, capsys, command, needle):
        with pytest.raises(SystemExit) as exc:
            cli([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert needle in out
        assert "--help" in out


class TestBadArgs:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_kernel_exits_2(self, capsys):
        assert cli(["estimate", "--kernel", "nope"]) == 2
        assert "unknown kernel" in capsys.readouterr().err

    def test_missing_kernel_lists_and_exits_2(self, capsys):
        assert cli(["tune"]) == 2
        assert "available scenarios" in capsys.readouterr().out

    def test_list_exits_0(self, capsys):
        assert cli(["search", "--list"]) == 0
        assert "kmeans" in capsys.readouterr().out

    def test_point_out_of_range_exits_2(self, capsys):
        assert cli(
            ["estimate", "--kernel", "kmeans", "--point", "99"]
        ) == 2
        assert "out of range" in capsys.readouterr().err

    def test_search_resume_requires_store(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["search", "--kernel", "kmeans", "--resume"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_plan_requires_plan_or_all(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["plan", "--store", str(tmp_path)])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_runs_requires_store(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["runs"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_runs_nonexistent_store_exits_2_without_mkdir(
        self, tmp_path, capsys
    ):
        missing = tmp_path / "typo-path"
        assert cli(["runs", "--store", str(missing)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()  # no side-effect mkdir

    def test_bad_flag_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["search", "--kernel", "kmeans", "--budget", "lots"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_sweep_without_samples_exits_2(self, capsys):
        # kmeans ships no input sweep
        assert cli(["sweep", "--kernel", "kmeans"]) == 2
        assert "no input sweep" in capsys.readouterr().err

    def test_robust_tune_without_samples_exits_2(self, capsys):
        assert cli(["tune", "--kernel", "kmeans", "--robust"]) == 2
        assert "no input sweep" in capsys.readouterr().err

    def test_bad_aggregate_is_usage_error(self, capsys):
        # ConfigError raised mid-command maps to exit 2, like argparse
        assert cli(
            ["sweep", "--kernel", "blackscholes", "--aggregate", "p999"]
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestEstimate:
    def test_smoke_and_json(self, tmp_path, capsys, serve_payload):
        out = tmp_path / "est.json"
        assert cli(
            ["estimate", "--kernel", "kmeans", "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "total error" in text
        payload = json.loads(out.read_text())
        assert payload["kind"] == "estimate"
        assert payload["kernel"] == "kmeans"
        assert payload["total_error"] > 0
        assert payload["per_variable"]
        assert result_content(payload) == serve_payload(
            {"kind": "estimate", "kernel": "kmeans"}
        )

    def test_adapt_model(self, capsys):
        assert cli(
            ["estimate", "--kernel", "kmeans", "--model", "adapt"]
        ) == 0
        assert "per-variable" in capsys.readouterr().out


class TestSweep:
    def test_smoke_and_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert cli(
            ["sweep", "--kernel", "blackscholes", "--model", "adapt",
             "--aggregate", "p95", "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "total error [p95]" in text
        payload = json.loads(out.read_text())
        assert payload["kind"] == "sweep"
        assert payload["kernel"] == "blackscholes"
        assert payload["n"] > 0
        assert payload["aggregate"] == "p95"


class TestTune:
    def test_point_mode(self, capsys):
        assert cli(
            ["tune", "--kernel", "kmeans", "--threshold", "1e-6"]
        ) == 0
        out = capsys.readouterr().out
        assert "configuration" in out
        assert "estimated error" in out

    def test_robust_mode_and_json(self, tmp_path, capsys, serve_payload):
        out = tmp_path / "tune.json"
        assert cli(
            ["tune", "--kernel", "blackscholes", "--robust",
             "--json", str(out)]
        ) == 0
        assert "robust [max]" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["kind"] == "tune"
        assert payload["kernel"] == "blackscholes"
        assert isinstance(payload["demoted"], list)
        assert result_content(payload) == serve_payload(
            {"kind": "tune", "kernel": "blackscholes", "robust": True}
        )


class TestSearch:
    def test_smoke_with_store_and_resume(self, tmp_path, capsys):
        store = tmp_path / "runs"
        _run_search_into(store)
        out1 = capsys.readouterr().out
        assert "run store: run=" in out1
        assert "Pareto" in out1 or "front size" in out1
        assert cli(
            ["search", "--kernel", "kmeans", *_FAST,
             "--store", str(store), "--resume"]
        ) == 0
        assert "computed=0" in capsys.readouterr().out

    def test_json_result(self, tmp_path, capsys):
        out = tmp_path / "search.json"
        assert cli(
            ["search", "--kernel", "kmeans", *_FAST, "--json", str(out)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["kind"] == "search"
        # the search result names the IR function, like the serve payload
        assert payload["kernel"] == "kmeans_cost"
        assert payload["front"]


class TestPlan:
    def test_plan_file_roundtrip(self, tmp_path, capsys):
        plan = {
            "entries": [
                {"scenario": "kmeans", "budget": 3,
                 "strategies": ["greedy"]}
            ]
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        store = tmp_path / "runs"
        out = tmp_path / "plan-result.json"
        assert cli(
            ["plan", "--plan", str(plan_path), "--store", str(store),
             "--json", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "kmeans" in text and "completed" in text
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        # resumed second run restores from the store
        assert cli(
            ["plan", "--plan", str(plan_path), "--store", str(store)]
        ) == 0
        assert "restored" in capsys.readouterr().out


class TestRuns:
    def test_list_compare_prune_diff(self, tmp_path, capsys):
        store = tmp_path / "runs"
        rs = _run_search_into(store)
        cli(
            ["search", "--kernel", "kmeans", "--budget", "4",
             "--strategies", "greedy", "--store", str(store)]
        )
        capsys.readouterr()

        assert cli(["runs", "--store", str(store)]) == 0
        listing = capsys.readouterr().out
        assert "2 stored run(s)" in listing
        assert "completed" in listing

        assert cli(["runs", "--store", str(store), "--compare"]) == 0
        compared = capsys.readouterr().out
        assert "comparing 2 run(s)" in compared
        assert "best@thr" in compared

        ids = [m["run_id"][:12] for m in rs.list_runs()]
        assert cli(
            ["runs", "--store", str(store), "--diff", ids[0], ids[1]]
        ) == 0
        assert "front diff" in capsys.readouterr().out

        assert cli(
            ["runs", "--store", str(store), "--prune", "--max-runs",
             "1", "--dry-run"]
        ) == 0
        assert "would prune 1 run(s)" in capsys.readouterr().out
        assert len(rs.list_runs()) == 2

        assert cli(
            ["runs", "--store", str(store), "--prune", "--max-runs", "1"]
        ) == 0
        assert "pruned 1 run(s)" in capsys.readouterr().out
        assert len(rs.list_runs()) == 1

    def test_prune_without_criteria_exits_2(self, tmp_path, capsys):
        store = tmp_path / "runs"
        store.mkdir()
        assert cli(["runs", "--store", str(store), "--prune"]) == 2
        assert "criterion" in capsys.readouterr().err

    def test_criteria_without_prune_exits_2(self, tmp_path, capsys):
        # --incomplete alone must not silently fall through to --list
        store = tmp_path / "runs"
        store.mkdir()
        with pytest.raises(SystemExit) as exc:
            cli(["runs", "--store", str(store), "--incomplete"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_plan_json_with_cache_flag(self, tmp_path, capsys):
        # regression: a live cache object must never leak into the
        # serialized plan defaults
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"entries": [{"scenario": "kmeans", "budget": 3,
                          "strategies": ["greedy"]}]}
        ))
        out = tmp_path / "plan.json.out"
        assert cli(
            ["plan", "--plan", str(plan_path),
             "--store", str(tmp_path / "runs"),
             "--cache", str(tmp_path / "cache"), "--json", str(out)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["ok"] is True

    def test_diff_unknown_run_exits_2(self, tmp_path, capsys):
        store = tmp_path / "runs"
        _run_search_into(store)
        capsys.readouterr()
        assert cli(
            ["runs", "--store", str(store), "--diff", "00000000",
             "11111111"]
        ) == 2
        assert "no stored run" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        store = tmp_path / "runs"
        _run_search_into(store)
        capsys.readouterr()
        out = tmp_path / "runs.json"
        assert cli(
            ["runs", "--store", str(store), "--json", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert len(payload["runs"]) == 1
