from __future__ import annotations

import functools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hpcflow
from conftest import FIXTURES
from hpcflow.cli import _default_container_name, main

PROFILES = FIXTURES / "profiles"
SPECS = FIXTURES / "specs"
LOGS = FIXTURES / "logs"
LINT = FIXTURES / "lint_corpus"


def run_cli(argv: list[str], capsys) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _profile_with_error(tmp_path) -> Path:
    """The csic profile with a module name that ``profile validate`` rejects."""
    bad = tmp_path / "bad.profile"
    text = (PROFILES / "csic.profile").read_text()
    bad.write_text(text.replace("module_loads = openmpi/4.0.1", "module_loads = open mpi"))
    return bad


_MODULE_ERROR = "error: module_loads entry 'open mpi' must not contain whitespace\n"


class TestProfileValidate:
    def test_valid_profile_exits_zero(self, capsys):
        code, out, _ = run_cli(["profile", "validate", str(PROFILES / "csic.profile")], capsys)
        assert code == 0
        assert "OK" in out

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(["profile", "validate", "/nope/missing.profile"], capsys)
        assert code == 1
        assert "error:" in err

    def test_profile_with_error_issue_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.profile"
        text = (PROFILES / "csic.profile").read_text()
        bad.write_text(text.replace("module_loads = openmpi/4.0.1", "module_loads = open mpi"))
        code, out, _ = run_cli(["profile", "validate", str(bad)], capsys)
        assert code == 1
        assert "error:" in out

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[cluster]\n[cluster]\n", "line 2: only one section per file is allowed"),
            ("[cluster]\nName = x\n", "line 2: invalid key 'Name'"),
            ("name = x\n[cluster]\n", "line 1: key 'name' appears before any [section] header"),
            ("", "missing [cluster] section"),
            (
                "[cluster]\nname = x\nscheduler = slurm\ngpus_per_node = two\n",
                "line 4: gpus_per_node must be an integer",
            ),
        ],
    )
    def test_malformed_profile_exits_one(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.profile"
        path.write_text(text)
        code, out, err = run_cli(["profile", "validate", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    def test_machine_mode_emits_issue_lines_only(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["profile", "validate", "--machine", str(PROFILES / "csic.profile")], capsys
        )
        assert code == 0
        assert out == ""


class TestImageGen:
    def test_entrypoint_strategy_writes_two_files(self, tmp_path, capsys):
        out = tmp_path / "Dockerfile"
        code, stdout, _ = run_cli(
            ["image", "gen", "--spec", str(SPECS / "entrypoint.spec"), "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "entry.sh").exists()
        assert stdout.count("wrote ") == 2

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("[environment]\nbase_image = a/b:1\nstrategy = tags\n")
        code, _, err = run_cli(
            ["image", "gen", "--spec", str(bad), "--out", str(tmp_path / "Dockerfile")],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_unwritable_out_exits_one(self, capsys):
        code, _, err = run_cli(
            [
                "image",
                "gen",
                "--spec",
                str(SPECS / "entrypoint.spec"),
                "--out",
                "/nonexistent-dir/Dockerfile",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def test_out_with_the_entrypoint_script_name_exits_one(self, tmp_path, capsys):
        out = tmp_path / "entry.sh"
        code, stdout, err = run_cli(
            ["image", "gen", "--spec", str(SPECS / "entrypoint.spec"), "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err == (
            f"error: --out {out} is also the path of the entrypoint script; "
            "choose another name\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "spec_name, key, value, line",
        [
            ("entrypoint", "system_packages", "vim; sudo rm -rf /x, $(doas id)", 7),
            ("tags", "horovod_version", "0.21.3 && sudo id", 5),
            ("entrypoint", "code_copies", "a b:/c", 8),
            ("entrypoint", "entrypoint_path", "/opt/my entry.sh", 9),
        ],
    )
    def test_spec_value_that_is_not_one_word_exits_one(
        self, spec_name, key, value, line, tmp_path, capsys
    ):
        spec = tmp_path / "bad.spec"
        text = (SPECS / f"{spec_name}.spec").read_text()
        spec.write_text(re.sub(f"(?m)^{key} = .*$", lambda _: f"{key} = {value}", text))
        out = tmp_path / "Dockerfile"
        argv = ["image", "gen", "--spec", str(spec), "--out", str(out)]
        code, stdout, err = run_cli(argv, capsys)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: line {line}: {key} ")
        assert not out.exists()


class TestImageLint:
    def test_smelly_fixture_exits_three(self, capsys):
        code, out, _ = run_cli(
            ["image", "lint", str(LINT / "01_download_later_delete.dockerfile")], capsys
        )
        assert code == 3
        assert "TF1" in out

    def test_clean_generated_file_exits_zero(self, tmp_path, capsys):
        dockerfile = tmp_path / "Dockerfile"
        run_cli(
            ["image", "gen", "--spec", str(SPECS / "entrypoint.spec"), "--out", str(dockerfile)],
            capsys,
        )
        code, _, _ = run_cli(["image", "lint", str(dockerfile)], capsys)
        assert code == 0

    def test_warning_only_file_exits_zero(self, capsys):
        code, out, _ = run_cli(["image", "lint", str(LINT / "07_latest_tag.dockerfile")], capsys)
        assert code == 0
        assert "P1" in out

    def test_unparseable_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "Dockerfile"
        bad.write_text("RUN echo before-any-from\n")
        code, _, err = run_cli(["image", "lint", str(bad)], capsys)
        assert code == 1
        assert "error:" in err

    def test_machine_mode_format(self, capsys):
        code, out, _ = run_cli(
            ["image", "lint", "--machine", str(LINT / "12_multiple_smells.dockerfile")],
            capsys,
        )
        assert code == 3
        for line in out.splitlines():
            rule_id, severity, lineno, _ = line.split(":", 3)
            assert rule_id in {"TF1", "TF3", "P1"}
            assert severity in {"error", "warning"}
            assert lineno.isdigit()


class TestJobGen:
    def test_csic_2x2_script(self, tmp_path, capsys):
        out = tmp_path / "job.sh"
        code, _, _ = run_cli(
            [
                "job",
                "gen",
                "--profile",
                str(PROFILES / "csic.profile"),
                "--spec",
                str(SPECS / "entrypoint.spec"),
                "--nodes",
                "2",
                "--gpus-per-node",
                "2",
                "--out",
                str(out),
                "--",
                "python",
                "train.py",
            ],
            capsys,
        )
        assert code == 0
        text = out.read_text()
        assert "-np 4" in text
        setup = (tmp_path / "job_setup.sh").read_text()
        assert len(setup.splitlines()) == 4
        assert setup.splitlines()[0].startswith("udocker pull")

    def test_ngc_version_mismatch_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "job",
                "gen",
                "--profile",
                str(PROFILES / "forhlr2.profile"),
                "--spec",
                str(SPECS / "ngc.spec"),
                "--nodes",
                "1",
                "--gpus-per-node",
                "1",
                "--out",
                str(tmp_path / "job.sh"),
                "--",
                "python",
                "train.py",
            ],
            capsys,
        )
        assert code == 1
        assert "does not match" in err

    def test_over_capacity_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "job",
                "gen",
                "--profile",
                str(PROFILES / "csic.profile"),
                "--spec",
                str(SPECS / "entrypoint.spec"),
                "--nodes",
                "2",
                "--gpus-per-node",
                "3",
                "--out",
                str(tmp_path / "job.sh"),
                "--",
                "python",
                "train.py",
            ],
            capsys,
        )
        assert code == 1
        assert "error:" in err

    def _job_gen(self, tmp_path, extra: list[str]) -> list[str]:
        return [
            "job",
            "gen",
            "--profile",
            str(PROFILES / "csic.profile"),
            "--spec",
            str(SPECS / "entrypoint.spec"),
            "--nodes",
            "1",
            "--gpus-per-node",
            "1",
            "--out",
            str(tmp_path / "job.sh"),
            *extra,
        ]

    def test_env_value_and_command_are_quoted(self, tmp_path, capsys):
        argv = ["python", "-c", 'print("hi there")']
        code, _, _ = run_cli(
            self._job_gen(tmp_path, ["--env", "MSG=hello world", "--", *argv]), capsys
        )
        assert code == 0
        job = tmp_path / "job.sh"
        assert subprocess.run(["/usr/bin/sh", "-n", str(job)]).returncode == 0
        lines = job.read_text().splitlines()
        assert "export MSG='hello world'" in lines
        assert shlex.split(lines[-1])[-3:] == argv

    def test_env_key_not_identifier_exits_one(self, tmp_path, capsys):
        code, out, err = run_cli(
            self._job_gen(tmp_path, ["--env", "BAD-KEY=1", "--", "python", "train.py"]), capsys
        )
        assert code == 1
        assert out == ""
        assert "shell identifier" in err
        assert not (tmp_path / "job.sh").exists()

    def test_workdir_substitution_is_quoted(self, tmp_path, capsys):
        marker = tmp_path / "P"
        code, _, _ = run_cli(
            self._job_gen(tmp_path, ["--workdir", f"x$(touch {marker}):/w", "--", "true"]),
            capsys,
        )
        assert code == 0
        job = tmp_path / "job.sh"
        (launcher,) = [l for l in job.read_text().splitlines() if l.startswith("mpirun ")]
        assert f"'--volume=x$(touch {marker}):/w'" in launcher
        assert subprocess.run(["/usr/bin/sh", "-n", str(job)]).returncode == 0

    def test_job_name_with_line_break_exits_one(self, tmp_path, capsys):
        code, out, err = run_cli(
            self._job_gen(tmp_path, ["--job-name", "a\nsudo true", "--", "true"]), capsys
        )
        assert code == 1
        assert out == ""
        assert "job name" in err
        assert not (tmp_path / "job.sh").exists()

    def test_walltime_with_trailing_newline_exits_one(self, tmp_path, capsys):
        argv = self._job_gen(tmp_path, ["--walltime", "01:00:00\n", "--", "true"])
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", "error: walltime '01:00:00\\n' is not HH:MM:SS\n")
        assert not (tmp_path / "job.sh").exists()

    def test_profile_with_error_issue_exits_one(self, tmp_path, capsys):
        argv = self._job_gen(tmp_path, ["--", "python", "train.py"])
        argv[argv.index("--profile") + 1] = str(_profile_with_error(tmp_path))
        argv[argv.index("--spec") + 1] = str(SPECS / "ngc.spec")
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", _MODULE_ERROR)
        assert not (tmp_path / "job.sh").exists()



class TestRun:
    def test_dry_run_prints_setup_transcript(self, capsys):
        code, out, _ = run_cli(
            [
                "run",
                "dry",
                "--profile",
                str(PROFILES / "csic.profile"),
                "--spec",
                str(SPECS / "entrypoint.spec"),
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[3].startswith("udocker run ")

    def test_digest_pinned_image_names_container_after_repo(self, tmp_path, capsys):
        spec = tmp_path / "digest.spec"
        spec.write_text(
            "[environment]\nbase_image = org/img@sha256:abcd\nstrategy = ngc\n"
            "openmpi_version = 4.0.1\nhorovod_version = 0.21.0\n"
        )
        code, out, _ = run_cli(
            ["run", "dry", "--profile", str(PROFILES / "csic.profile"), "--spec", str(spec)],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[1] == "udocker create --name=img org/img@sha256:abcd"

    @pytest.mark.parametrize(
        "base_image, name", [("example/-img:1", "img"), ("example/\u00dcn\u00ef:1", "n-")]
    )
    def test_default_container_name_is_an_identifier(self, base_image, name, tmp_path, capsys):
        spec = tmp_path / "odd.spec"
        text = (SPECS / "ngc.spec").read_text()
        spec.write_text(text.replace("nvcr.io/nvidia/tensorflow:21.02-tf2-py3", base_image))
        code, out, err = run_cli(
            ["run", "dry", "--profile", str(PROFILES / "csic.profile"), "--spec", str(spec)],
            capsys,
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith(f"udocker create --name={name} ")

    def test_container_name_with_trailing_newline_exits_one(self, capsys):
        code, out, err = run_cli(
            [
                "run",
                "dry",
                "--profile",
                str(PROFILES / "csic.profile"),
                "--spec",
                str(SPECS / "entrypoint.spec"),
                "--container-name",
                "abc\n",
            ],
            capsys,
        )
        assert (code, out, err) == (1, "", "error: container name 'abc\\n' is not an identifier\n")

    def test_dry_run_profile_with_error_issue_exits_one(self, tmp_path, capsys):
        bad = _profile_with_error(tmp_path)
        code, out, err = run_cli(
            ["run", "dry", "--profile", str(bad), "--spec", str(SPECS / "ngc.spec")], capsys
        )
        assert (code, out, err) == (1, "", _MODULE_ERROR)

    def test_dry_run_prints_each_profile_error_as_validate_does(self, tmp_path, capsys):
        bad = tmp_path / "bad.profile"
        text = (PROFILES / "csic.profile").read_text()
        bad.write_text(
            text.replace("module_loads = openmpi/4.0.1", "module_loads = open mpi, big x")
        )
        _, issues, _ = run_cli(["profile", "validate", str(bad)], capsys)
        code, out, err = run_cli(
            ["run", "dry", "--profile", str(bad), "--spec", str(SPECS / "ngc.spec")], capsys
        )
        assert (code, out) == (1, "")
        assert err == issues
        assert len(err.splitlines()) == 2

    def test_dry_run_profile_warnings_stay_silent(self, tmp_path, capsys):
        profile = tmp_path / "extra.profile"
        profile.write_text((PROFILES / "csic.profile").read_text() + "site_note = x\n")
        argv = ["run", "dry", "--profile", str(profile), "--spec", str(SPECS / "ngc.spec")]
        code, out, err = run_cli(argv, capsys)
        argv[argv.index("--profile") + 1] = str(PROFILES / "csic.profile")
        assert (code, out, err) == run_cli(argv, capsys)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "tags, code, expected",
        [
            (
                ["--tags", " ompi3.1, ompi4.0-cuda10,ompi4.0 ,,latest"],
                0,
                "udocker pull example/multigpu-horovod:ompi4.0\n",
            ),
            ([], 1, "error: strategy 'tags' needs the list of available image tags\n"),
            (
                ["--tags", "ompi3.1"],
                1,
                "error: no tag for OpenMPI 4.0 (encoded versions available: 3.1)\n",
            ),
        ],
    )
    def test_dry_run_tags_list(self, tags, code, expected, capsys):
        argv = ["run", "dry", "--profile", str(PROFILES / "csic.profile"),
                "--spec", str(SPECS / "tags.spec"), *tags]
        got, out, err = run_cli(argv, capsys)
        assert got == code
        if code == 0:
            assert out.startswith(expected) and err == ""
        else:
            assert (out, err) == ("", expected)

    def test_dry_run_has_no_machine_flag(self, capsys):
        code, out, _ = run_cli(
            [
                "run",
                "dry",
                "--machine",
                "--profile",
                str(PROFILES / "csic.profile"),
                "--spec",
                str(SPECS / "entrypoint.spec"),
            ],
            capsys,
        )
        assert code == 2
        assert out == ""

    def test_mock_run_2x2_prints_rank_table(self, capsys):
        code, out, _ = run_cli(
            ["run", "mock", "--nodes", "2", "--gpus-per-node", "2"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rank node local exit"
        assert len(lines) == 5
        assert lines[1:] == ["0 0 0 0", "1 0 1 0", "2 1 0 0", "3 1 1 0"]

    def test_mock_run_failing_rank_exits_one(self, capsys):
        code, out, err = run_cli(
            ["run", "mock", "--nodes", "1", "--gpus-per-node", "2", "--", "sh", "-c", "exit 1"],
            capsys,
        )
        assert code == 1
        assert err == "error: rank 0: exit 1\nerror: rank 1: exit 1\n"

    def test_mock_run_explains_each_failed_rank(self, capsys):
        argv = ["run", "mock", "--nodes", "1", "--gpus-per-node", "3", "--", "sh", "-c"]
        code, out, err = run_cli([*argv, 'echo boom; [ "$RANK" = 1 ] || exit 3'], capsys)
        assert (code, out) == (1, "rank node local exit\n0 ? ? 3\n1 ? ? 0\n2 ? ? 3\n")
        assert err == "error: rank 0: exit 3\nerror: rank 2: exit 3\n"

    def test_mock_run_spawn_error_is_explained(self, capsys):
        argv = ["run", "mock", "--nodes", "1", "--gpus-per-node", "2", "--", "/nonexistent/cmd"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "rank node local exit\n0 ? ? 127\n1 ? ? 127\n")
        reason = "[Errno 2] No such file or directory: '/nonexistent/cmd'"
        assert err == f"error: rank 0: {reason}\nerror: rank 1: {reason}\n"

    def test_mock_run_timeout_is_explained(self, monkeypatch, capsys):
        from hpcflow import runner

        def hung(plan, command):
            env = {"NODE_INDEX": "0", "LOCAL_RANK": "0"}
            return [runner.RankResult(0, -9, env, error="timeout")]

        monkeypatch.setattr(runner, "mock_run_ranks", hung)
        code, out, err = run_cli(["run", "mock", "--nodes", "1", "--gpus-per-node", "1"], capsys)
        assert (code, out) == (1, "rank node local exit\n0 0 0 -9\n")
        assert err == "error: rank 0: timeout\n"

    def test_mock_run_success_writes_no_stderr(self, capsys):
        code, _, err = run_cli(["run", "mock", "--nodes", "2", "--gpus-per-node", "2"], capsys)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--nodes", "1000", "--gpus-per-node", "1000"], "at most 64"),
            (["--nodes", "1", "--gpus-per-node", "1", "--env", "=x"], "''"),
            (["--nodes", "1", "--gpus-per-node", "1", "--env", "1A=x"], "'1A'"),
        ],
        ids=["rank-limit", "empty-env-key", "digit-env-key"],
    )
    def test_mock_run_refused_before_any_spawn(self, extra, message, monkeypatch, capsys):
        def no_spawn(*args, **kwargs):
            raise AssertionError("a rank was spawned")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        code, out, err = run_cli(["run", "mock", *extra], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and message in err


_NON_UTF8_ARGS = {
    "profile validate": ["profile", "validate", "{bad}"],
    "image gen --spec": ["image", "gen", "--spec", "{bad}", "--out", "{tmp}/Dockerfile"],
    "image lint": ["image", "lint", "{bad}"],
    "job gen --profile": ["job", "gen", "--profile", "{bad}", "--spec", str(SPECS / "ngc.spec"),
                          "--nodes", "1", "--gpus-per-node", "1", "--out", "{tmp}/job.sh"],
    "job gen --spec": ["job", "gen", "--profile", str(PROFILES / "csic.profile"), "--spec",
                       "{bad}", "--nodes", "1", "--gpus-per-node", "1", "--out", "{tmp}/job.sh"],
    "run dry --profile": ["run", "dry", "--profile", "{bad}", "--spec", str(SPECS / "ngc.spec")],
    "run dry --spec": ["run", "dry", "--profile", str(PROFILES / "csic.profile"), "--spec",
                       "{bad}"],
    "bench report": ["bench", "report", f"1:{LOGS / 'bench_1gpu.log'}", "2:{bad}"],
}


@pytest.mark.parametrize("argv", list(_NON_UTF8_ARGS.values()), ids=list(_NON_UTF8_ARGS))
def test_non_utf8_input_is_an_error_naming_the_file(argv, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    argv = [a.replace("{bad}", str(bad)).replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [bad]


@given(st.text())
def test_default_container_name_passes_the_identifier_rule(image_ref):
    from hpcflow.profiles import ImageRef
    from hpcflow.recon import is_identifier

    name = _default_container_name(image_ref)
    assert is_identifier(name)
    # a name that already starts with a letter or digit keeps its text
    given_name = ImageRef.parse(image_ref).name
    if re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", given_name):
        assert name == given_name


_BOM_ARGS = {
    "profile": (PROFILES / "csic.profile", ["profile", "validate", "{path}"]),
    "spec": (
        SPECS / "entrypoint.spec",
        ["run", "dry", "--profile", str(PROFILES / "csic.profile"), "--spec", "{path}"],
    ),
    "dockerfile": (
        LINT / "12_multiple_smells.dockerfile", ["image", "lint", "--machine", "{path}"]
    ),
    "bench log": (
        LOGS / "bench_2gpu.log",
        ["bench", "report", "--warmup", "10", f"1:{LOGS / 'bench_1gpu.log'}", "2:{path}"],
    ),
}


@pytest.mark.parametrize("original, argv", list(_BOM_ARGS.values()), ids=list(_BOM_ARGS))
def test_leading_byte_order_mark_is_dropped(original, argv, tmp_path, capsys):
    bom = tmp_path / original.name
    bom.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
    code, out, err = run_cli([a.replace("{path}", str(original)) for a in argv], capsys)
    assert code in (0, 3) and err == ""
    assert run_cli([a.replace("{path}", str(bom)) for a in argv], capsys) == (code, out, err)


class TestPerfPredict:
    def _argv(self, extra: list[str]) -> list[str]:
        return [
            "perf",
            "predict",
            "--params",
            "25636712",
            "--batch-per-gpu",
            "256",
            "--single-gpu-ips",
            "380",
            *extra,
        ]

    def test_six_rows_with_unit_baseline(self, capsys):
        code, out, _ = run_cli(self._argv(["--p-max", "6"]), capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gpus,images_per_sec,speedup,comm_seconds,comp_seconds"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == 1.0

    def test_ideal_flags_give_speedup_p(self, capsys):
        code, out, _ = run_cli(self._argv(["--p-max", "6", "--ideal"]), capsys)
        assert code == 0
        for line in out.splitlines()[1:]:
            fields = line.split(",")
            assert float(fields[1]) == pytest.approx(380.0 * int(fields[0]))
            assert float(fields[2]) == float(fields[0])

    def test_zero_p_is_usage_error(self, capsys):
        code, _, err = run_cli(self._argv(["--p-max", "0"]), capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--single-gpu-ips", "--link-latency"])
    def test_nan_input_exits_one(self, flag, capsys):
        code, out, err = run_cli(self._argv([flag, "nan"]), capsys)
        assert code == 1
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--link-bandwidth", "1e-320"], "comm_seconds of the 2-GPU prediction"),
            (["--single-gpu-ips", "1e308", "--ideal"], "images_per_sec of the 2-GPU prediction"),
            (["--batch-per-gpu", "1" + "0" * 308], "images_per_sec of the 2-GPU prediction"),
        ],
    )
    def test_non_finite_prediction_exits_one(self, extra, message, capsys):
        argv = ["perf", "predict", "--params", "1", "--batch-per-gpu", "1",
                "--single-gpu-ips", "1", *extra, "--p-max", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {message} is not finite (inf)\n"

    @pytest.mark.parametrize(
        "extra",
        [
            ["--params", "1" + "0" * 400],
            ["--batch-per-gpu", "1" + "0" * 400],
            ["--bytes-per-param", "1" + "0" * 400],
            ["--params", "1" + "0" * 300, "--bytes-per-param", "10000000000"],
        ],
        ids=["params", "batch-per-gpu", "bytes-per-param", "payload"],
    )
    def test_integer_beyond_float_range_exits_one(self, extra, capsys):
        argv = ["perf", "predict", "--params", "1", "--batch-per-gpu", "1",
                "--single-gpu-ips", "1", *extra, "--p-max", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == (
            "error: param_count, batch_per_gpu, bytes_per_param and the payload "
            "param_count * bytes_per_param must be within the float range\n"
        )


class TestBenchReport:
    def test_fixture_logs(self, capsys):
        code, out, _ = run_cli(
            [
                "bench",
                "report",
                "--warmup",
                "10",
                f"1:{LOGS / 'bench_1gpu.log'}",
                f"2:{LOGS / 'bench_2gpu.log'}",
                f"3:{LOGS / 'bench_3gpu.log'}",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gpus,mean,ci95,speedup"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert float(rows[0][1]) == 100.0
        assert float(rows[0][3]) == 1.0
        assert float(rows[1][3]) == pytest.approx(1.9)
        assert float(rows[2][3]) == pytest.approx(2.7)

    def test_single_sample_has_empty_ci95(self, tmp_path, capsys):
        log = tmp_path / "one.log"
        log.write_text("iter 1: 42.0 images/sec\n")
        code, out, _ = run_cli(["bench", "report", f"1:{log}"], capsys)
        assert code == 0
        assert out == "gpus,mean,ci95,speedup\n1,42,,1\n"

    def test_samples_an_ulp_apart(self, tmp_path, capsys):
        log = tmp_path / "ulp.log"
        log.write_text(
            "iter 1: 1 images/sec\niter 2: 1.0000000000000002 images/sec\n"
            "iter 3: 1 images/sec\n"
        )
        code, out, _ = run_cli(["bench", "report", f"1:{log}"], capsys)
        assert (code, out) == (0, "gpus,mean,ci95,speedup\n1,1,3.1846e-16,1\n")

    def test_missing_baseline_exits_one(self, capsys):
        code, _, err = run_cli(
            ["bench", "report", "--warmup", "10", f"2:{LOGS / 'bench_2gpu.log'}"], capsys
        )
        assert code == 1
        assert "baseline" in err

    def test_warmup_consuming_everything_exits_one(self, capsys):
        code, _, err = run_cli(
            ["bench", "report", "--warmup", "20", f"1:{LOGS / 'bench_1gpu.log'}"], capsys
        )
        assert code == 1

    def test_non_finite_sample_exits_one(self, tmp_path, capsys):
        log = tmp_path / "inf.log"
        log.write_text("iter 1: 1e999 images/sec\n")
        code, out, err = run_cli(["bench", "report", f"1:{log}"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1: ")
        assert "Traceback" not in err

    def test_zero_baseline_exits_one(self, tmp_path, capsys):
        base = tmp_path / "zero.log"
        base.write_text("iter 1: 0 images/sec\niter 2: 0 images/sec\n")
        code, out, err = run_cli(
            ["bench", "report", f"1:{base}", f"2:{LOGS / 'bench_2gpu.log'}"], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: the 1-GPU baseline's mean throughput is 0")

    @pytest.mark.parametrize(
        "logs, message",
        [
            ({1: "1.7e308 1.7e308"}, "mean of the 1-GPU run"),
            ({1: "1e308 1e-308"}, "ci95 of the 1-GPU run"),
            ({1: "1e-200", 2: "1e200 3e200"}, "speedup of the 2-GPU run"),
        ],
    )
    def test_non_finite_result_exits_one(self, logs, message, tmp_path, capsys):
        argv = ["bench", "report"]
        for gpus, samples in logs.items():
            log = tmp_path / f"g{gpus}.log"
            lines = [f"iter {i}: {x} images/sec\n" for i, x in enumerate(samples.split())]
            log.write_text("".join(lines))
            argv.append(f"{gpus}:{log}")
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err == f"error: {message} is not finite (inf)\n"


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "mock", "--nodes", "x", "--gpus-per-node", "1"],
             "argument --nodes: 'x' is not an integer"),
            (["run", "mock", "--nodes", "1", "--gpus-per-node", "1", "--env", "FOO"],
             "argument --env: 'FOO' is not KEY=VALUE"),
            (["job", "gen", "--profile", "p", "--spec", "s", "--nodes", "1",
              "--gpus-per-node", "1", "--out", "{tmp}/job.sh", "--workdir", "nocolon"],
             "argument --workdir: 'nocolon' is not host:container"),
            (["bench", "report", "x:LOG"], "'x' is not an integer GPU count"),
            (["bench", "report", "0:LOG"], "GPU count must be >= 1"),
            (["bench", "report", "LOG"], "'LOG' is not GPUS:PATH"),
            (["bench", "report", "--warmup", "-1", "1:LOG"],
             "argument --warmup: '-1' must be >= 0"),
        ],
    )
    def test_bad_argument_value(self, argv, message, tmp_path, capsys):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: ")
        assert err.endswith(f"{message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_noun(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "validate", str(PROFILES / "csic.profile")],
            ["image", "gen", "--spec", str(SPECS / "ngc.spec"), "--out", "{tmp}/Dockerfile"],
            ["image", "lint", str(LINT / "10_clean.dockerfile")],
            ["run", "dry", "--profile", str(PROFILES / "csic.profile"),
             "--spec", str(SPECS / "entrypoint.spec")],
            ["perf", "predict", "--params", "1000", "--batch-per-gpu", "32",
             "--single-gpu-ips", "100"],
            ["bench", "report", f"1:{LOGS / 'bench_1gpu.log'}"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_command_after_dashes_is_refused_where_unread(self, argv, tmp_path, capsys):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, out, err = run_cli([*argv, "--", "whatever"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: ")
        assert "takes no command after '--'" in err
        assert list(tmp_path.iterdir()) == []
        # a bare "--" is still accepted
        code, _, _ = run_cli([*argv, "--"], capsys)
        assert code == 0


# the hpcflow modules each verb may load, and the standard-library modules
# it must not load; anything else hpcflow would be a wasted import
_LAYERS = {"profiles", "recon", "dockerfile", "lint", "launch", "runner", "perf"}
_RECONCILE = {"errors", "profiles", "recon", "launch", "runner"}
_RECONCILE_ARGS = [
    "--profile", str(PROFILES / "csic.profile"), "--spec", str(SPECS / "entrypoint.spec")
]
# what ``dataclasses`` would load; records derive from ``errors.Record`` instead
_RECORD_MODULES = {"dataclasses", "inspect"}
# what ``statistics`` would load; ``perf`` computes with ``math`` alone
_STATISTICS_MODULES = {"statistics", "fractions", "decimal", "random"}
_VERBS = {
    "profile validate": (
        ["profile", "validate", str(PROFILES / "csic.profile")],
        {"errors", "profiles"},
        {"subprocess", "statistics", *_RECORD_MODULES},
    ),
    "image gen": (
        ["image", "gen", "--spec", str(SPECS / "entrypoint.spec"), "--out", "{tmp}/Dockerfile"],
        {"errors", "profiles", "recon", "dockerfile"},
        {"subprocess", "statistics", *_RECORD_MODULES},
    ),
    "image lint": (
        ["image", "lint", "--machine", str(LINT / "12_multiple_smells.dockerfile")],
        {"errors", "dockerfile", "lint"},
        # the fixture has no quoted text and no JSON list
        {"subprocess", "statistics", "shlex", "json", *_RECORD_MODULES},
    ),
    "job gen": (
        ["job", "gen", *_RECONCILE_ARGS, "--nodes", "2", "--gpus-per-node", "2",
         "--out", "{tmp}/job.sh", "--", "python", "train.py"],
        _RECONCILE,
        {"subprocess", "statistics", *_RECORD_MODULES},
    ),
    "run dry": (
        ["run", "dry", *_RECONCILE_ARGS],
        _RECONCILE,
        {"subprocess", "statistics", *_RECORD_MODULES},
    ),
    "run mock": (
        ["run", "mock", "--nodes", "1", "--gpus-per-node", "2"],
        _RECONCILE,
        {"statistics", *_RECORD_MODULES},
    ),
    "perf predict": (
        ["perf", "predict", "--params", "25636712", "--batch-per-gpu", "256",
         "--single-gpu-ips", "380"],
        {"errors", "perf"},
        {"subprocess", "statistics", *_RECORD_MODULES},
    ),
    "bench report": (
        ["bench", "report", "--warmup", "10", f"1:{LOGS / 'bench_1gpu.log'}",
         f"2:{LOGS / 'bench_2gpu.log'}"],
        {"errors", "perf"},
        {"subprocess", *_RECORD_MODULES, *_STATISTICS_MODULES},
    ),
}


def _modules_after(code: str, argv: list[str] = ()) -> set[str]:
    """Run ``code`` in a fresh interpreter and return its ``sys.modules``."""
    env = dict(os.environ)
    src = str(Path(hpcflow.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code + "\nprint(' '.join(sorted(sys.modules)))", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return set(child.stdout.splitlines()[-1].split())


@functools.cache
def _modules_at_start() -> frozenset[str]:
    """What a fresh interpreter loads before any hpcflow code runs."""
    return frozenset(_modules_after("import sys"))


class TestColdStartImports:
    @pytest.mark.parametrize("verb", list(_VERBS))
    def test_verb_loads_only_its_layers(self, verb, tmp_path):
        argv, layers, forbidden = _VERBS[verb]
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code = "import sys\nfrom hpcflow.cli import main\nmain(sys.argv[1:])"
        modules = _modules_after(code, argv)
        # ``site`` may load a forbidden module (a .pth file can load random);
        # the test below, without ``site``, checks those too
        assert modules & forbidden - _modules_at_start() == set()
        loaded = {m.partition(".")[2] for m in modules if m.startswith("hpcflow.")}
        assert loaded - {"cli"} == layers

    @pytest.mark.parametrize("verb", list(_VERBS))
    def test_verb_loads_no_typing_without_site(self, verb, tmp_path):
        # where ``site`` imports ``typing`` (as a .pth file can), the test
        # above cannot see it; so run with -I -S and put src on the path
        argv, _, forbidden = _VERBS[verb]
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        src = str(Path(hpcflow.__file__).parents[1])
        code = (
            f"import sys\nsys.path.insert(0, {src!r})\nfrom hpcflow.cli import main\n"
            "main(sys.argv[1:])\nprint(' '.join(sorted(sys.modules)))"
        )
        child = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code, *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr
        modules = set(child.stdout.splitlines()[-1].split())
        assert "hpcflow.cli" in modules
        assert modules & {"typing", *forbidden} == set()

    @pytest.mark.parametrize("module", ["hpcflow.cli", "hpcflow.errors"])
    def test_import_loads_no_layer(self, module):
        modules = _modules_after(f"import sys\nimport {module}")
        assert {f"hpcflow.{layer}" for layer in _LAYERS} & modules == set()

    def test_every_public_name_resolves(self):
        from hpcflow import errors, profiles

        namespace: dict = {}
        exec("from hpcflow import *", namespace)
        for name in hpcflow.__all__:
            assert namespace[name] is getattr(hpcflow, name)
        assert hpcflow.ClusterProfile is profiles.ClusterProfile
        # ImageRef lives in errors, so that image lint does not load profiles
        assert hpcflow.ImageRef is profiles.ImageRef is errors.ImageRef
        with pytest.raises(AttributeError):
            hpcflow.not_a_name


class TestNoRuntimeDependencies:
    def test_every_import_is_stdlib_or_hpcflow(self):
        import ast

        foreign = []
        for path in sorted(Path(hpcflow.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.partition(".")[0]
                    if top != "hpcflow" and top not in sys.stdlib_module_names:
                        foreign.append(f"{path.name}:{node.lineno}: {name}")
        assert foreign == []

    def test_pyproject_lists_no_dependencies(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        assert tomllib.loads(pyproject.read_text())["project"].get("dependencies", []) == []
