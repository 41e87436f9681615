"""CLI tests (argument parsing and command execution)."""

import argparse
import csv
import io
import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_requires_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "backp"])

    def test_run_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--platform", "GTX", "--workload", "backp"]
            )

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig20b"])
        assert args.name == "fig20b"

    def test_shard_size_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--platform", "Oracle", "--workload", "backp",
                 "--shard-size", "0"]
            )

    def test_mode_default(self):
        args = build_parser().parse_args(
            ["run", "--platform", "Oracle", "--workload", "backp"]
        )
        assert args.mode == "planar"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Ohm-BW" in out and "pagerank" in out

    def test_run_quick(self, capsys):
        assert main(
            ["run", "--platform", "Oracle", "--workload", "backp", "--quick"]
        ) == 0
        out = capsys.readouterr().out
        assert "exec time" in out

    def test_compare_quick(self, capsys):
        assert main(["compare", "--workload", "backp", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Ohm-base" in out and "Oracle" in out

    def test_experiment_fig20b(self, capsys):
        assert main(["experiment", "fig20b", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Ohm-base rd/wr" in out

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3", "--quick"]) == 0
        assert "Ohm-BW" in capsys.readouterr().out

    def test_run_profile_prints_hot_functions(self, capsys):
        assert main(
            [
                "run", "--platform", "Oracle", "--workload", "backp",
                "--quick", "--profile",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out  # cProfile table header
        assert "exec time" in out  # the normal report still prints

    def test_perf_smoke_writes_bench_json(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_perf.json"
        assert main(
            ["perf", "--smoke", "--repeats", "1", "-o", str(out_file)]
        ) == 0
        out = capsys.readouterr().out
        assert "events_per_sec" in out
        payload = json.loads(out_file.read_text())
        assert payload["unit"] == "events_per_sec"
        assert {m["case"] for m in payload["current"]} == {
            "headline_smoke", "two_level_smoke", "origin_smoke",
            "gemm_smoke", "mix_smoke",
        }
        for m in payload["current"]:
            assert m["events_per_sec"] > 0

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_perf_repeats_must_be_positive(self, repeats, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perf", "--smoke", "--repeats", repeats,
                  "-o", str(tmp_path / "BENCH_perf.json")])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_experiment_fig15(self, capsys):
        assert main(["experiment", "fig15", "--quick"]) == 0
        assert "planar" in capsys.readouterr().out


class TestBatchCommands:
    def test_batch_run_then_resume_and_status(self, tmp_path, capsys):
        root = str(tmp_path / "batches")
        args = [
            "--warps", "8", "--accesses", "8",
            "--shard-size", "8", "--batch-dir", root,
        ]
        assert main(["batch", "run", "--experiment", "fig8", *args]) == 0
        out = capsys.readouterr().out
        assert "done" in out and "fig8" in out
        # Re-running attaches to the finished batch: nothing re-executes.
        assert main(["batch", "run", "--experiment", "fig8", *args]) == 0
        capsys.readouterr()
        assert main(["batch", "status", "--batch-dir", root]) == 0
        assert "done" in capsys.readouterr().out
        assert main(["batch", "resume", "--batch-dir", root]) == 0
        assert "done" in capsys.readouterr().out

    def test_batch_run_rejects_analytic_only(self, tmp_path):
        with pytest.raises(SystemExit, match="analytic"):
            main([
                "batch", "run", "--experiment", "fig15", "fig20b",
                "--batch-dir", str(tmp_path), "--quick",
            ])

    def test_batch_resume_heals_pruned_cache(self, tmp_path, capsys):
        # Journal says done but the cache was emptied: resume must
        # recompute, not report "nothing to resume" and leave the
        # results unrecoverable.
        root = tmp_path / "batches"
        args = [
            "--warps", "8", "--accesses", "8",
            "--shard-size", "8", "--batch-dir", str(root),
        ]
        assert main(["batch", "run", "--experiment", "fig8", *args]) == 0
        capsys.readouterr()
        entries = list((root / "cache").glob("*.json"))
        assert entries
        for f in entries:
            f.unlink()
        assert main(["batch", "resume", "--batch-dir", str(root)]) == 0
        assert "done" in capsys.readouterr().out
        assert len(list((root / "cache").glob("*.json"))) == len(entries)

    def test_batch_status_empty_root(self, tmp_path, capsys):
        assert main(["batch", "status", "--batch-dir", str(tmp_path)]) == 0
        assert "no batches" in capsys.readouterr().out

    def test_unusable_batch_dir_is_clean_error(self, tmp_path):
        blocker = tmp_path / "a_file"
        blocker.write_text("not a directory")
        with pytest.raises(SystemExit, match="--batch-dir"):
            main([
                "run", "--platform", "Oracle", "--workload", "backp",
                "--quick", "--batch-dir", str(blocker),
            ])

    def test_batch_resume_unknown_id(self, tmp_path):
        with pytest.raises(SystemExit, match="no batch"):
            main([
                "batch", "resume", "--batch-dir", str(tmp_path),
                "--id", "feedface",
            ])

    def test_experiment_accepts_batch_dir(self, tmp_path, capsys):
        root = tmp_path / "b"
        assert main([
            "experiment", "fig8", "--warps", "8", "--accesses", "8",
            "--batch-dir", str(root),
        ]) == 0
        assert "fig8" in capsys.readouterr().out
        assert list(root.glob("b-*/journal.jsonl"))
        assert list((root / "cache").glob("*.json"))


class TestWorkloadsCommands:
    def test_run_accepts_new_families(self, capsys):
        for name in ("gemm_reuse", "pointer_chase", "stream_scan"):
            assert main(
                ["run", "--platform", "Ohm-BW", "--workload", name,
                 "--warps", "8", "--accesses", "8"]
            ) == 0
            assert "exec time" in capsys.readouterr().out

    def test_run_accepts_composed_multi_tenant(self, capsys):
        assert main(
            ["run", "--platform", "Ohm-base", "--workload", "mix_gemm_chase",
             "--warps", "8", "--accesses", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "tenant gemm" in out and "tenant chase" in out

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "--platform", "Ohm-BW", "--workload", "doom", "--quick"])

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--platform", "Ohm-BW"],
            ["workloads", "record", "--platform", "Ohm-BW", "-o", "unused.jsonl"],
            # --jobs 2: the error is raised in a pool worker.
            ["compare", "--jobs", "2"],
        ],
        ids=["run", "record", "compare"],
    )
    def test_too_few_warps_for_tenants_is_one_line(self, command, tmp_path):
        argv = [
            str(tmp_path / a) if a.endswith(".jsonl") else a for a in command
        ] + ["--workload", "mix_gemm_chase", "--warps", "1", "--accesses", "8"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == (
            "repro: mix_gemm_chase: need at least 2 warps for 2 tenants"
        )

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--platform", "Origin"],
            # --jobs 2: the error is raised in a pool worker.
            ["compare", "--jobs", "2"],
        ],
        ids=["run", "compare"],
    )
    def test_bad_stream_threshold_is_one_line(self, command, value, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STREAM_OPS_THRESHOLD", value)
        assert main(command + ["--workload", "backp", "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro: REPRO_STREAM_OPS_THRESHOLD must be a non-negative integer "
            f"(0 streams everything), got {value!r}\n"
        )

    def test_workloads_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        assert "gemm_reuse" in out and "pagerank" in out and "compose" in out

    def test_workloads_describe(self, capsys):
        assert main(["workloads", "describe", "stream_scan"]) == 0
        out = capsys.readouterr().out
        assert "family: stream" in out
        assert "read_fraction" in out  # parameters printed
        assert "STREAM" in out  # family docstring printed

    def test_workloads_describe_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["workloads", "describe", "doom"])

    def test_record_then_replay_is_bit_identical(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl.gz"
        assert main(
            ["workloads", "record", "--platform", "Ohm-BW",
             "--workload", "pagerank", "--warps", "8", "--accesses", "8",
             "-o", str(trace)]
        ) == 0
        recorded = capsys.readouterr().out
        assert main(
            ["workloads", "replay", "--trace", str(trace),
             "--platform", "Ohm-BW", "--warps", "8", "--accesses", "8"]
        ) == 0
        replayed = capsys.readouterr().out
        def fp(out):
            return [l for l in out.splitlines() if l.startswith("fingerprint")][0]
        assert fp(recorded) == fp(replayed)

    def test_run_record_trace_flag(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(
            ["run", "--platform", "Oracle", "--workload", "backp",
             "--warps", "8", "--accesses", "8", "--record-trace", str(trace)]
        ) == 0
        assert trace.exists()
        assert "fingerprint" in capsys.readouterr().out

    def test_remap_negative_wrap_is_one_line(self, tmp_path, capsys):
        # (a + offset) % wrap lies in (wrap, 0] for a negative wrap: the
        # stage would emit addresses `run --stdin-trace` rejects.
        trace = tmp_path / "t.jsonl"
        assert main(
            ["workloads", "record", "--platform", "Oracle",
             "--workload", "backp", "--warps", "4", "--accesses", "4",
             "-o", str(trace)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["trace", "remap", "--wrap", "-4096", str(trace)])
        assert exc.value.code == "repro: --wrap must be >= 0"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("gaps", ["nan", "inf", "-1"])
    def test_scale_bad_gaps_is_one_line(self, gaps, tmp_path, capsys):
        # int(nan * g) raises mid-stream; a negative factor clamps every
        # gap to 0 without a word.
        trace = tmp_path / "t.jsonl"
        assert main(
            ["workloads", "record", "--platform", "Oracle",
             "--workload", "backp", "--warps", "4", "--accesses", "4",
             "-o", str(trace)]
        ) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["trace", "scale", f"--gaps={gaps}", str(trace)])
        assert exc.value.code == "repro: --gaps must be a finite number >= 0"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("entry", ["workload", "stdin"])
    def test_corrupt_trace_mid_file_is_one_line(
        self, entry, tmp_path, capsys, monkeypatch
    ):
        # The header parses, so the bad record only surfaces mid-drain.
        trace = tmp_path / "t.jsonl"
        assert main(
            ["workloads", "record", "--platform", "Ohm-BW",
             "--workload", "pagerank", "--warps", "16", "--accesses", "64",
             "-o", str(trace)]
        ) == 0
        capsys.readouterr()
        data = trace.read_bytes()
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(data[: len(data) // 2])
        argv = ["run", "--platform", "Ohm-BW"]
        if entry == "workload":
            argv += ["--workload", f"trace:{cut}"]
            label = str(cut)
        else:
            argv += ["--stdin-trace"]
            label = "<stdin>"
        with cut.open() as stdin, pytest.raises(SystemExit) as exc:
            monkeypatch.setattr("sys.stdin", stdin)
            main(argv)
        assert exc.value.code.startswith(f"repro: {label}: corrupt warp record")
        assert capsys.readouterr().out == ""

    def test_replay_missing_trace_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["workloads", "replay", "--trace", str(tmp_path / "no.jsonl"),
                 "--platform", "Ohm-BW"]
            )

    def test_experiment_families_quick(self, capsys):
        assert main(["experiment", "families", "--warps", "8", "--accesses", "8"]) == 0
        out = capsys.readouterr().out
        assert "gemm_reuse" in out and "stream_scan_r25" in out


class TestServiceFlags:
    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["experiment", "fig15", "--jobs", "4"])
        assert args.jobs == 4

    #: Every ``--jobs`` flag, and its default: ``None`` means every
    #: available core; ``repro worker`` keeps one process per worker.
    JOBS_FLAGS = (
        (["experiment", "fig15"], None),
        (["batch", "resume"], None),
        (["audit"], None),
        (["worker"], 1),
    )

    @pytest.mark.parametrize("argv,default", JOBS_FLAGS)
    def test_jobs_defaults(self, argv, default):
        assert build_parser().parse_args(argv).jobs == default

    @pytest.mark.parametrize("argv", [argv for argv, _ in JOBS_FLAGS])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_must_be_positive(self, argv, jobs, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--jobs", jobs])
        assert "must be >= 1" in capsys.readouterr().err

    def test_cache_dir_flag_parses(self, tmp_path):
        args = build_parser().parse_args(
            ["experiment", "fig15", "--cache-dir", str(tmp_path)]
        )
        assert args.cache_dir == str(tmp_path)

    def test_second_invocation_hits_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "run", "--platform", "Oracle", "--workload", "backp",
            "--warps", "8", "--accesses", "8", "--cache-dir", cache,
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "0 hits, 1 misses" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "1 hits, 0 misses" in second.err
        # The cached replay reports the identical simulation.
        assert first.out == second.out


class TestExport:
    def test_export_json_stdout(self, capsys):
        assert main(["export", "fig15", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {r["layout"] for r in rows} == {
            "general", "ohm-base", "planar", "two-level"
        }

    def test_export_csv_stdout(self, capsys):
        assert main(["export", "table3", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 4
        assert {r["platform"] for r in rows} == {"Ohm-base", "Ohm-BW"}

    def test_export_to_file(self, tmp_path, capsys):
        out = tmp_path / "fig20b.json"
        assert main(["export", "fig20b", "-o", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 7
        assert "wrote 7 rows" in capsys.readouterr().err

    def test_export_simulated_figure_quick(self, capsys):
        assert main(
            ["export", "fig8", "--format", "csv", "--warps", "8", "--accesses", "8"]
        ) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert {r["mode"] for r in rows} == {"planar", "two_level"}
        assert {r["metric"] for r in rows} == {
            "migration_bw_frac", "latency_vs_oracle"
        }

    def test_export_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export", "fig99"])


#: One argv per command that takes the shared sizing group (without the
#: sizing flags); each would simulate, or contact a daemon, if parsing let
#: it through.
SIZED_COMMANDS = {
    "run": ["run", "--platform", "Ohm-BW", "--workload", "backp"],
    "compare": ["compare", "--workload", "backp"],
    "workloads record": [
        "workloads", "record", "--platform", "Ohm-BW", "--workload", "backp",
        "-o", "never-written.jsonl",
    ],
    "workloads replay": [
        "workloads", "replay", "--trace", "never-read.jsonl",
        "--platform", "Ohm-BW",
    ],
    "scenario run": ["scenario", "run", "steady_poisson"],
    "batch run": ["batch", "run", "--experiment", "fig16"],
    "experiment": ["experiment", "headline"],
    "export": ["export", "fig16"],
    "submit": ["submit", "--experiment", "fig16"],
}


def _command_paths(parser, prefix=()):
    """``(path, parser)`` for every leaf command of the argparse tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _command_paths(child, prefix + (name,))


class TestSizing:
    def test_sized_commands_cover_the_sizing_group(self):
        sized = {
            path for path, p in _command_paths(build_parser())
            if "--quick" in p._option_string_actions
        }
        assert sized == set(SIZED_COMMANDS)

    @pytest.mark.parametrize("command", sorted(SIZED_COMMANDS))
    @pytest.mark.parametrize(
        "flag,value", [("--warps", "0"), ("--accesses", "0"), ("--accesses", "-5")]
    )
    def test_sizing_must_be_positive(self, command, flag, value, monkeypatch, capsys):
        from repro.harness import executor, service

        def forbidden(*args, **kwargs):
            raise AssertionError("ran past argument parsing")

        monkeypatch.setattr(executor, "execute_job", forbidden)
        monkeypatch.setattr(service.ServiceClient, "__init__", forbidden)
        with pytest.raises(SystemExit) as exc:
            main(SIZED_COMMANDS[command] + [flag, value])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_defaults_resolve_to_presets(self):
        from repro.cli import _run_config
        from repro.harness import audit, perf
        from repro.harness.executor import SIZING_PRESETS

        def sizing(cfg):
            return (cfg.num_warps, cfg.accesses_per_warp)

        parse = build_parser().parse_args
        for argv in SIZED_COMMANDS.values():
            args = parse(argv)
            assert sizing(_run_config(args)) == sizing(SIZING_PRESETS["cli"])
            args = parse(argv + ["--quick"])
            assert sizing(_run_config(args)) == sizing(SIZING_PRESETS["quick"])
        assert {c.run_cfg for c in perf.PERF_CASES} == {SIZING_PRESETS["bench"]}
        assert {c.run_cfg for c in perf.SMOKE_CASES} == {SIZING_PRESETS["quick"]}
        assert audit.DEFAULT_SIZING == SIZING_PRESETS["quick"]

    def test_bench_fixture_uses_bench_preset(self):
        import importlib.util
        import pathlib

        from repro.harness.executor import SIZING_PRESETS

        path = pathlib.Path(__file__).parent.parent / "benchmarks" / "conftest.py"
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.BENCH_RUN_CONFIG == SIZING_PRESETS["bench"]


class TestReadmeTourFlags:
    """``tools/check_docs.py``'s gate on the flags the README tour uses."""

    @staticmethod
    def check(readme=None):
        import pathlib
        import sys

        repo = pathlib.Path(__file__).resolve().parent.parent
        if str(repo) not in sys.path:
            sys.path.insert(0, str(repo))
        from tools.check_docs import check_cli_flag_docs

        return check_cli_flag_docs(readme)

    def test_tour_uses_only_live_flags(self):
        assert self.check() == []

    def test_removed_flag_fails(self):
        assert self.check("$ repro audit --journal audit.jsonl  # resume\n") == [
            "README CLI tour passes --journal to `repro audit`, "
            "which has no such option"
        ]

    def test_each_pipeline_stage_is_checked(self):
        readme = (
            "$ repro trace head --ops 5 x.jsonl \\\n"
            "    | repro run --platform Oracle --stdin-trace --ops 5\n"
        )
        failures = self.check(readme)
        assert len(failures) == 1
        assert "--ops to `repro run`" in failures[0]
