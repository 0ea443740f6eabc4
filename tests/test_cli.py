from __future__ import annotations

import ast
import contextlib
import errno
import functools
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hpcflow
from conftest import FIXTURES, corpus_paths
from hpcflow import cli
from hpcflow.cli import main
from hpcflow.errors import CONTROL_CHAR, HpcflowError, one_line, read_float, read_int
from hpcflow.launch import PRIVILEGED_TOKENS, default_container_name
from hpcflow.profiles import find_privileged_tokens

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


_CSIC = (PROFILES / "csic.profile").read_text()
_MODULE_ERROR = "error: line 9: module_loads entry 'open mpi' must not contain whitespace\n"


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
        bad = _profile_with_error(tmp_path)
        code, out, err = run_cli(["profile", "validate", str(bad)], capsys)
        assert (code, out, err) == (1, "", _MODULE_ERROR)

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
            # Slurm and mpirun read ASCII digits, and a count is written back as read
            *(
                (_CSIC.replace(old, new), message)
                for old, new, message in [
                    ("gpus_per_node = 2", "gpus_per_node = \u0662",
                     "line 5: gpus_per_node must be an integer, got '\u0662'"),
                    ("gpus_per_node = 2", "gpus_per_node = 1_0",
                     "line 5: gpus_per_node must be an integer, got '1_0'"),
                    ("gpus_per_node = 2", "gpus_per_node = +2",
                     "line 5: gpus_per_node must be an integer, got '+2'"),
                    ("gpu_nodes = 20", "gpu_nodes = 020",
                     "line 6: gpu_nodes must be an integer, got '020'"),
                    ("openmpi_version = 4.0.1", "openmpi_version = \u0664.\u0660.\u0661",
                     "line 7: openmpi_version unparseable version '\u0664.\u0660.\u0661' "
                     "(expected MAJOR.MINOR[.PATCH])"),
                ]
            ),
        ],
    )
    def test_malformed_profile_exits_one(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.profile"
        path.write_text(text)
        code, out, err = run_cli(["profile", "validate", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("flags", [[], ["--machine"]])
    def test_warnings_print_one_line_each_and_exit_zero(self, flags, tmp_path, capsys):
        profile = tmp_path / "warn.profile"
        text = (PROFILES / "csic.profile").read_text()
        text = text.replace("/home/researcher/.local/udocker/udocker", "bin/udocker")
        profile.write_text(text + "site_note = x\n")
        code, out, err = run_cli(["profile", "validate", *flags, str(profile)], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "warning: container_runtime_path 'bin/udocker' is not absolute\n"
            "warning: unknown key 'site_note' ignored\n"
        )

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

    def test_failed_write_leaves_no_file(self, tmp_path, capsys):
        # the Dockerfile is written first, then the entrypoint script fails
        script = tmp_path / "entry.sh"
        script.mkdir()
        out = tmp_path / "Dockerfile"
        code, stdout, err = run_cli(
            ["image", "gen", "--spec", str(SPECS / "entrypoint.spec"), "--out", str(out)],
            capsys,
        )
        assert (code, stdout) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: '{script}'\n"
        assert list(tmp_path.iterdir()) == [script]

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

    @pytest.mark.parametrize("kind", ["RUN", "COPY"])
    @pytest.mark.parametrize("args", ["[" * 100_000, '["a", ' + "[" * 5000], ids=["open", "list"])
    def test_deeply_nested_brackets_are_shell_form(self, kind, args, tmp_path, capsys):
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(f"FROM a:1\n{kind} {args}\n")
        assert run_cli(["image", "lint", "--machine", str(dockerfile)], capsys) == (0, "", "")

    def test_path_with_a_line_break_stays_in_its_finding(self, tmp_path, capsys):
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(
            "FROM a:1\n"
            'RUN ["wget", "-O", "a\\nb:9:x", "u"]\n'
            'RUN ["rm", "a\\nb:9:x"]\n'
            'COPY ["a\\nb.tgz", "/x/"]\n'
            'RUN ["tar", "xf", "/x/a\\nb.tgz"]\n'
            "RUN wget -O c\u2028d u\n"
            "RUN rm c\u2028d\n"
        )
        code, out, err = run_cli(["image", "lint", "--machine", str(dockerfile)], capsys)
        assert (code, err) == (3, "")
        findings = [line.split(":", 3) for line in out.splitlines()]
        assert [f[:3] for f in findings] == [
            ["TF1", "error", "3"], ["TF2", "warning", "4"], ["TF1", "error", "7"]
        ]
        assert findings[0][3].startswith("'a\\nb:9:x' was created on line 2 and removed")
        assert findings[1][3].startswith("archive '/x/a\\nb.tgz' is copied here and")
        assert findings[2][3].startswith("'c\\u2028d' was created on line 6 and removed")
        code, out, err = run_cli(["image", "lint", str(dockerfile)], capsys)
        assert (code, err) == (3, "")
        lines = out.splitlines()
        assert [line.startswith(f"{dockerfile}:") for line in lines[:-1:2]] == [True] * 3
        assert [line.startswith("    fix: ") for line in lines[1::2]] == [True] * 3
        assert lines[6:] == ["2 error(s), 1 warning(s), 0 info"]

    def test_file_name_with_a_line_break_stays_in_its_finding(self, tmp_path, capsys):
        dockerfile = tmp_path / "x\ny"
        dockerfile.write_text("FROM a:latest\n")
        code, out, err = run_cli(["image", "lint", str(dockerfile)], capsys)
        assert (code, err) == (0, "")
        finding, fix, summary = out.splitlines()
        assert finding.startswith(f"{str(dockerfile)!r}:1: P1 [warning] base image a:latest ")
        assert fix.startswith("    fix: ")
        assert summary == "0 error(s), 1 warning(s), 0 info"


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
        assert (code, out) == (1, "")
        assert err == (
            "error: directive '--job-name=a\\nsudo true' contains a line break or control character\n"
        )
        assert not (tmp_path / "job.sh").exists()

    def test_failed_write_leaves_no_file(self, tmp_path, capsys):
        # the job script is written first, then the setup script fails
        setup = tmp_path / "job_setup.sh"
        setup.mkdir()
        code, stdout, err = run_cli(self._job_gen(tmp_path, ["--", "true"]), capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: '{setup}'\n"
        assert list(tmp_path.iterdir()) == [setup]

    @pytest.mark.parametrize("again", [[], ["--job-name", "other"]], ids=["same", "other name"])
    def test_failed_write_keeps_the_earlier_files(self, again, tmp_path, capsys):
        # a second run whose setup-script write fails puts the first run's
        # job script back, bytes and mode bits, rather than deleting it
        argv = self._job_gen(tmp_path, ["--", "true"])
        assert run_cli(argv, capsys)[0] == 0
        job, setup = tmp_path / "job.sh", tmp_path / "job_setup.sh"
        job.chmod(0o750)
        before = job.read_bytes()
        setup.unlink()
        setup.mkdir()
        code, stdout, err = run_cli(self._job_gen(tmp_path, [*again, "--", "true"]), capsys)
        assert (code, stdout) == (1, "")
        assert err == f"error: [Errno 21] Is a directory: '{setup}'\n"
        assert job.read_bytes() == before
        assert job.stat().st_mode & 0o777 == 0o750
        assert sorted(tmp_path.iterdir()) == [job, setup]

    def test_walltime_with_trailing_newline_exits_one(self, tmp_path, capsys):
        argv = self._job_gen(tmp_path, ["--walltime", "01:00:00\n", "--", "true"])
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", "error: walltime '01:00:00\\n' is not HH:MM:SS\n")
        assert not (tmp_path / "job.sh").exists()

    # the interpreter decodes argv bytes that are not UTF-8 to lone surrogates
    @pytest.mark.parametrize(
        "extra, line",
        [
            (["--env", "A=\udcff", "--", "true"], b"export A='\xff'"),
            (["--job-name", "j\udcff", "--", "true"], b"#SBATCH --job-name=j\xff"),
            (["--", "python", "\udcff"], b" python '\xff'"),
        ],
        ids=["env", "job-name", "command"],
    )
    def test_non_utf8_argv_passes_through_as_bytes(self, extra, line, tmp_path, capsys):
        code, out, err = run_cli(self._job_gen(tmp_path, extra), capsys)
        assert (code, err) == (0, ""), err
        job = tmp_path / "job.sh"
        assert line + b"\n" in job.read_bytes()
        assert subprocess.run(["/usr/bin/sh", "-n", str(job)]).returncode == 0

    def test_non_utf8_out_path_is_echoed_as_bytes(self, tmp_path, capsys):
        argv = self._job_gen(tmp_path, ["--out", f"{tmp_path}/\udcff.sh", "--", "true"])
        # a UTF-8 locale's stdout, which refuses surrogates unless told otherwise
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        stdout.flush()
        assert (code, capsys.readouterr().err) == (0, "")
        folder = bytes(tmp_path)
        assert stdout.buffer.getvalue() == (
            b"wrote " + folder + b"/\xff.sh\nwrote " + folder + b"/\xff_setup.sh\n"
        )
        assert sorted(os.listdir(folder)) == [b"\xff.sh", b"\xff_setup.sh"]

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
        "base_image, name", [("example/-img:1", "img"), ("example/a+b:1", "a-b")]
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
        validate = run_cli(["profile", "validate", str(bad)], capsys)
        code, out, err = run_cli(
            ["run", "dry", "--profile", str(bad), "--spec", str(SPECS / "ngc.spec")], capsys
        )
        # the first fault is the one reported, by both verbs alike
        assert (code, out, err) == validate == (1, "", _MODULE_ERROR)

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
            (
                ["--tags", "ompi\u0664.\u0660"],  # Arabic-Indic digits
                1,
                "error: no tag for OpenMPI 4.0 (encoded versions available: none; "
                "ignored, not ompiM.m[-variant]: ompi\u0664.\u0660)\n",
            ),
            (
                ["--tags", "ompi4.0.1,ompi04.0,latest,ompi\x1b[2J"],
                1,
                "error: no tag for OpenMPI 4.0 (encoded versions available: none; "
                "ignored, not ompiM.m[-variant]: ompi4.0.1, ompi04.0, 'ompi\\x1b[2J')\n",
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
            stdout = "NODE_INDEX=0\nLOCAL_RANK=0\n"
            return [runner.RankResult(0, -9, stdout=stdout, error="timeout")]

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


class TestPathWithLineBreak:
    """A path that holds a line break is printed as ``repr`` writes it, so
    it cannot start a line of output of its own."""

    def test_wrote_line(self, tmp_path, capsys):
        out = f"{tmp_path}/x\nwrote y"
        argv = ["image", "gen", "--spec", str(SPECS / "ngc.spec"), "--out", out]
        assert run_cli(argv, capsys) == (0, f"wrote {out!r}\n", "")
        assert os.listdir(tmp_path) == ["x\nwrote y"]

    def test_not_utf8_error_line(self, tmp_path, capsys):
        bad = tmp_path / "l\nerror: x"
        bad.write_bytes(b"\xff\xfe")
        error = f"error: {str(bad)!r}: not UTF-8 text (invalid start byte at byte 0)\n"
        assert run_cli(["image", "lint", str(bad)], capsys) == (1, "", error)

    def test_out_is_the_script_error_line(self, tmp_path, capsys):
        out = f"{tmp_path}/a\nerror: b/entry.sh"  # the name of the spec's entrypoint script
        argv = ["image", "gen", "--spec", str(SPECS / "entrypoint.spec"), "--out", out]
        error = f"error: --out {out!r} is also the path of the entrypoint script; "
        assert run_cli(argv, capsys) == (1, "", error + "choose another name\n")
        assert os.listdir(tmp_path) == []


def _run_to_bytes(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)`` with a UTF-8 stdout and stderr as a process has them: its
    exit code, and stdout and stderr as their bytes read back with surrogates
    for the bytes that are not UTF-8."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    stdout.flush()
    stderr.flush()
    out, err = (s.buffer.getvalue().decode("utf-8", "surrogateescape") for s in (stdout, stderr))
    return code, out, err


def _forged(out: str) -> bool:
    """Whether ``out`` holds a control character other than its line ends,
    such as a line break inside a line or the ESC of a terminal sequence."""
    return re.search(CONTROL_CHAR, out.replace("\n", "")) is not None


class TestOutsideTextOnOneLine:
    """Text from outside (a Dockerfile, a path argument, a rank's output) is
    written on an output line as ``errors.one_line`` writes it: as ``repr``
    writes it if it holds a control character, else as it is."""

    @given(st.text())
    @example("\x85")
    @example("\udcff")  # a byte of argv that is not UTF-8: printed as that byte again
    def test_one_line_escapes_text_with_a_control_character(self, text):
        shown = one_line(text)
        assert re.search(CONTROL_CHAR, shown) is None
        if re.search(CONTROL_CHAR, text):
            assert ast.literal_eval(shown) == text
        else:
            assert shown == text

    def test_p1_image_is_written_as_repr_with_an_escape(self, tmp_path, capsys):
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text("FROM ubu\x1b[2Jntu\n")
        code, out, err = run_cli(["image", "lint", "--machine", str(dockerfile)], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "P1:warning:1:base image 'ubu\\x1b[2Jntu' has no tag; "
            "the build environment is not reproducible\n"
        )

    @pytest.mark.parametrize("char", ["\u00a0", "\u200b", "\u202e"], ids=["nbsp", "zwsp", "rlo"])
    def test_path_without_a_control_character_is_written_as_it_is(self, char, tmp_path, capsys):
        # not printable, but neither a line break nor a control character
        dockerfile = tmp_path / "Dockerfile"
        dockerfile.write_text(f"FROM a:1\nRUN wget -O /a{char}b u\nRUN rm /a{char}b\n")
        code, out, err = run_cli(["image", "lint", "--machine", str(dockerfile)], capsys)
        assert (code, err) == (3, "")
        assert out.startswith(f"TF1:error:3:/a{char}b was created on line 2 and removed")

    def test_human_report_begins_with_the_paths_bytes(self, tmp_path):
        (tmp_path / "\udcff.df").write_text("FROM a\n")  # the file name is the byte 0xff
        code, out, err = _run_to_bytes(["image", "lint", f"{tmp_path}/\udcff.df"])
        assert (code, err) == (0, "")
        assert out.encode("utf-8", "surrogateescape").startswith(
            bytes(tmp_path) + b"/\xff.df:1: P1 [warning] base image a has no tag"
        )

    def test_error_line_begins_with_the_paths_bytes(self, tmp_path):
        (tmp_path / "x\udcff.df").write_bytes(b"\xff")  # neither the name nor the text is UTF-8
        code, out, err = _run_to_bytes(["image", "lint", f"{tmp_path}/x\udcff.df"])
        assert (code, out) == (1, "")
        assert err.encode("utf-8", "surrogateescape") == b"error: %s/x\xff.df: %s\n" % (
            bytes(tmp_path), b"not UTF-8 text (invalid start byte at byte 0)"
        )

    def test_mock_cell_from_a_rank_is_written_as_repr(self, capsys):
        argv = ["run", "mock", "--nodes", "1", "--gpus-per-node", "1", "--"]
        command = ["printf", "NODE_INDEX=a\\033[2Jb\\nLOCAL_RANK=0\\n"]
        assert run_cli([*argv, *command], capsys) == (
            0, "rank node local exit\n0 'a\\x1b[2Jb' 0 0\n", ""
        )

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.sampled_from(["FROM ubu{}ntu\n", "ARG B=ubu{}\nFROM $B\n"]))
    @example("\x1b[2J", "FROM ubu{}ntu\n")
    @example("\u2028P1:error:9:x", "ARG B=ubu{}\nFROM $B\n")
    @example("\r0", "ARG B=ubu{}\nFROM $B\n")  # a CR inside a line ends no line
    def test_from_image_forges_no_finding(self, text, template):
        from hpcflow.dockerfile import parse_dockerfile
        from hpcflow.errors import DockerfileError
        from hpcflow.lint import lint

        content = template.format(text)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder, "Dockerfile")
            path.write_bytes(content.encode("utf-8"))
            code, out, _ = _run_to_bytes(["image", "lint", "--machine", str(path)])
        try:  # the text as written
            findings = lint(parse_dockerfile(content)).findings
        except DockerfileError:
            findings = None
        assert not _forged(out), out
        if findings is None:
            assert (code, out) == (1, "")
        else:
            lines = out.splitlines()
            assert [line.split(":", 3)[:3] for line in lines] == [
                [f.rule_id, f.severity, str(f.line)] for f in findings
            ]

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    @example("a\nTF1:error:9:b")
    @example("\x1b]0;title\x07")
    def test_tf1_path_forges_no_finding(self, text):
        path = json.dumps("/tmp/" + text)  # JSON form: any text is one word on one line
        content = f'FROM a:1\nRUN ["wget", "-O", {path}, "u"]\nRUN ["rm", {path}]\n'
        with tempfile.TemporaryDirectory() as folder:
            dockerfile = Path(folder, "Dockerfile")
            dockerfile.write_text(content)
            code, out, _ = _run_to_bytes(["image", "lint", "--machine", str(dockerfile)])
        assert code == 3
        assert not _forged(out), out
        assert len(out.splitlines()) == 1 and out.startswith("TF1:error:3:"), out

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=40))
    @example("x\nerror: y")
    @example("\x1b[2J")
    def test_path_argument_forges_no_line(self, text):
        name = "d" + text.replace("/", "").replace("\0", "")  # a file name, never . or ..
        with tempfile.TemporaryDirectory() as folder:
            path = f"{folder}/{name}"
            Path(path).write_text("FROM a:latest\n")
            code, out, err = _run_to_bytes(["image", "lint", path])
            _, machine, _ = _run_to_bytes(["image", "lint", "--machine", path])
        assert (code, err) == (0, "")
        assert not _forged(out), out
        finding, fix, summary = out.splitlines()
        assert finding.startswith(f"{one_line(path)}:1: P1 [warning] base image a:latest ")
        assert fix.startswith("    fix: ") and summary == "0 error(s), 1 warning(s), 0 info"
        assert machine.count("\n") == 1 and machine.startswith("P1:warning:1:")

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.text())
    @example("a\x1b[2Jb", "0")
    @example("0 0 0\n1", "\u2028")
    def test_rank_output_forges_no_table_row(self, node, local):
        from hpcflow import runner

        def ranks(plan, command):
            # a rank that printed these lines, as the user's command may
            stdout = f"NODE_INDEX={node}\nLOCAL_RANK={local}\n"
            return [runner.RankResult(0, 0, stdout=stdout), runner.RankResult(1, 0)]

        with mock.patch.object(runner, "mock_run_ranks", ranks):
            code, out, err = _run_to_bytes(["run", "mock", "--nodes", "1", "--gpus-per-node", "2"])
        assert (code, err) == (0, "")
        assert not _forged(out), out
        header, first, second = out.splitlines()
        env = runner.RankResult(0, 0, f"NODE_INDEX={node}\nLOCAL_RANK={local}\n").env
        cells = [one_line(env.get("NODE_INDEX", "?")), one_line(env.get("LOCAL_RANK", "?"))]
        assert (header, first, second) == ("rank node local exit", f"0 {' '.join(cells)} 0", "1 ? ? 0")


@given(st.one_of(st.text(), st.sampled_from(sorted(PRIVILEGED_TOKENS)).map("reg/{}:1".format)))
def test_default_container_name_passes_the_identifier_rule(image_ref):
    from hpcflow.profiles import _IDENTIFIER, ImageRef

    name = default_container_name(image_ref)
    assert re.fullmatch(_IDENTIFIER, name)
    assert name not in PRIVILEGED_TOKENS
    # a name that already starts with a letter or digit keeps its text,
    # unless it is a privileged command
    given_name = ImageRef.parse(image_ref).name
    if re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", given_name):
        assert name == (given_name if given_name not in PRIVILEGED_TOKENS else "container")


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


def _lint_result(text: str) -> tuple[int, str]:
    """The exit code and stdout of ``image lint --machine``, from the library."""
    from hpcflow.dockerfile import parse_dockerfile
    from hpcflow.lint import lint, machine_report

    report = lint(parse_dockerfile(text))
    return (3 if any(f.severity == "error" for f in report.findings) else 0), machine_report(report)


def _profile_result(text: str) -> tuple[int, str]:
    """The exit code and stdout of ``profile validate --machine``, from the library."""
    from hpcflow.profiles import parse_cluster_profile, validate_profile

    return 0, "".join(f"warning: {w}\n" for w in validate_profile(parse_cluster_profile(text)))


def _bench_result(text: str) -> tuple[int, str]:
    """The exit code and stdout of ``bench report 1:LOG``, from the library."""
    from hpcflow import perf

    summary = perf.summarize(perf.parse_bench_log(text, 0, gpus=1))
    return 0, f"gpus,mean,ci95,speedup\n1,{summary.mean:.6g},{summary.ci95_half_width:.6g},1\n"


_LINE_END_CASES = {
    "dockerfile": (
        "FROM a:1\nRUN wget -O /f u\nRUN rm /f\n",
        ["image", "lint", "--machine", "{path}"],
        _lint_result,
    ),
    "profile": (_CSIC, ["profile", "validate", "--machine", "{path}"], _profile_result),
    "bench log": (
        (LOGS / "bench_1gpu.log").read_text(), ["bench", "report", "1:{path}"], _bench_result
    ),
}


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "text, argv, library", list(_LINE_END_CASES.values()), ids=list(_LINE_END_CASES)
)
def test_cli_reads_line_ends_as_the_library_does(text, argv, library, end, tmp_path, capsys):
    # a line ends at LF; a CR before it is a trailing blank, and any other CR is text
    text = text.replace("\n", end)
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = (*library(text), "")
    except HpcflowError as exc:
        expected = (1, "", f"error: {exc}\n")
    assert run_cli([a.replace("{path}", str(path)) for a in argv], capsys) == expected


_CR_IN_A_LINE = {
    "dockerfile": (
        "FROM a:1\nRUN wget -O /f u\rRUN rm /f\n", ["image", "lint", "--machine", "{path}"], 0, ""
    ),
    "profile": (
        _CSIC.replace("partition = gpu\n", "partition = gpu\raccount = x\n"),
        ["profile", "validate", "{path}"],
        1,
        "error: line 11: partition must not contain line breaks or control characters\n",
    ),
    "bench log": (
        (LOGS / "bench_1gpu.log").read_text().replace("95.0 images/sec\n", "95.0 images/sec\r"),
        ["bench", "report", "1:{path}"],
        1,
        "error: line 3: malformed log line 'iter 3: 95.0 images/sec\\riter 4: 96.8 images/sec'\n",
    ),
}


@pytest.mark.parametrize(
    "text, argv, code, err", list(_CR_IN_A_LINE.values()), ids=list(_CR_IN_A_LINE)
)
def test_cr_inside_a_line_ends_no_line(text, argv, code, err, tmp_path, capsys):
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    assert run_cli([a.replace("{path}", str(path)) for a in argv], capsys) == (code, "", err)


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

    def test_p_max_above_the_cap_exits_one_before_predicting(self, monkeypatch, capsys):
        from hpcflow import perf

        predicted = []

        def predict(inputs, p):
            predicted.append(p)
            raise AssertionError("a row was predicted")

        monkeypatch.setattr(perf, "predict", predict)
        code, out, err = run_cli(self._argv(["--p-max", "100000000"]), capsys)
        assert (code, out, predicted) == (1, "", [])
        assert err == "error: --p-max 100000000 is above 65536, the most workers predicted\n"

    def test_p_max_at_the_cap_is_predicted(self, monkeypatch, capsys):
        from hpcflow import perf

        monkeypatch.setattr(perf, "MAX_PREDICTED_WORKERS", 3)
        code, out, _ = run_cli(self._argv(["--p-max", "3"]), capsys)
        assert (code, len(out.splitlines())) == (0, 4)
        code, out, err = run_cli(self._argv(["--p-max", "4"]), capsys)
        assert (code, out, err) == (1, "", "error: --p-max 4 is above 3, the most workers predicted\n")

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


class TestAsciiNumbers:
    """Slurm, mpirun and the registry read ASCII digits and names: text that
    ``int``, ``float`` or ``\\d`` would also read in another form is refused."""

    @given(
        st.text(st.sampled_from("0123456789-+_ \u0662"), max_size=6)
        | st.integers(-(10**30), 10**30).map(str),
        st.integers(-3, 3),
    )
    @example("1" * 5000, 1)
    def test_read_int_takes_only_the_text_str_writes(self, text, minimum):
        try:
            value = int(text)
        except ValueError:  # not an integer, or more digits than int() converts
            value = None
        if value is None or str(value) != text or value < minimum:
            with pytest.raises(ValueError):
                read_int(text, minimum)
        else:
            assert read_int(text, minimum) == value

    @given(
        st.text(st.sampled_from("0123456789.eE+-_ \u0662infatyNAI"), max_size=8)
        | st.floats().map(repr)
    )
    @example("5e-06")
    @example("1250000000.0")
    def test_read_float_takes_the_ascii_text_float_takes(self, text):
        try:
            value = float(text)
        except ValueError:
            value = None
        if value is None or not text.isascii() or "_" in text or text.strip() != text:
            with pytest.raises(ValueError, match="^must be a number, got "):
                read_float(text)
        else:
            read = read_float(text)
            assert read == value or math.isnan(read) and math.isnan(value)

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--single-gpu-ips", "inf", "single_gpu_images_per_sec must be finite and positive"),
            ("--single-gpu-ips", "NaN", "single_gpu_images_per_sec must be finite and positive"),
            ("--link-latency", "Infinity", "link_latency must be finite and non-negative"),
        ],
    )
    def test_nan_and_inf_reach_the_finite_check(self, flag, value, error, capsys):
        argv = ["perf", "predict", "--params", "1", "--batch-per-gpu", "1",
                "--single-gpu-ips", "1", flag, value]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", f"error: {error}\n")


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "mock", "--nodes", "x", "--gpus-per-node", "1"],
             "argument --nodes: must be an integer, got 'x'"),
            (["run", "mock", "--nodes", "1", "--gpus-per-node", "1", "--env", "FOO"],
             "argument --env: 'FOO' is not KEY=VALUE"),
            (["job", "gen", "--profile", "p", "--spec", "s", "--nodes", "1",
              "--gpus-per-node", "1", "--out", "{tmp}/job.sh", "--workdir", "nocolon"],
             "argument --workdir: 'nocolon' is not host:container"),
            (["bench", "report", "x:LOG"], "GPU count must be an integer, got 'x'"),
            (["bench", "report", "0:LOG"], "GPU count must be >= 1, got 0"),
            (["bench", "report", "LOG"], "'LOG' is not GPUS:PATH"),
            (["bench", "report", "--warmup", "-1", "1:LOG"],
             "argument --warmup: must be >= 0, got -1"),
            # a count is the text str() writes, a float ASCII text float() reads
            (["run", "mock", "--nodes", "\u0662", "--gpus-per-node", "1_0", "--", "true"],
             "argument --nodes: must be an integer, got '\u0662'"),
            (["run", "mock", "--nodes", "1", "--gpus-per-node", "1_0", "--", "true"],
             "argument --gpus-per-node: must be an integer, got '1_0'"),
            (["run", "mock", "--nodes", " 1", "--gpus-per-node", "1", "--", "true"],
             "argument --nodes: must be an integer, got ' 1'"),
            (["run", "mock", "--nodes", "01", "--gpus-per-node", "1", "--", "true"],
             "argument --nodes: must be an integer, got '01'"),
            (["run", "mock", "--nodes", "1" * 5000, "--gpus-per-node", "1", "--", "true"],
             "argument --nodes: has 5000 digits, more than Python reads as an integer"),
            (["bench", "report", "\u0662:LOG"], "GPU count must be an integer, got '\u0662'"),
            (["perf", "predict", "--params", "1", "--batch-per-gpu", "1",
              "--single-gpu-ips", "\u0662.\u0665"],
             "argument --single-gpu-ips: must be a number, got '\u0662.\u0665'"),
            (["perf", "predict", "--params", "1", "--batch-per-gpu", "1",
              "--single-gpu-ips", "1", "--link-bandwidth", "1_000"],
             "argument --link-bandwidth: must be a number, got '1_000'"),
            (["perf", "predict", "--params", "1", "--batch-per-gpu", "1",
              "--single-gpu-ips", "1", "--intra-bandwidth", "1e9 "],
             "argument --intra-bandwidth: must be a number, got '1e9 '"),
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


# values of every kind the verbs' types accept or reject, a leading "-" included
_READER_VALUES = ("1", "2", "0", "-1", "-2.5", "1e9", "inf", "x", "", "a b", "A=b", "a:b",
                  "1:p", "2:q", "0:p", "-x", "-h")


_PARSER = functools.cache(cli.build_parser)  # parsing leaves the parser as it was


def _parse(argv: list[str]):
    """argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _PARSER().parse_args(argv)
        except SystemExit:
            return None


@st.composite
def _verb_argv(draw) -> list[str]:
    """A noun and verb, then each of the verb's arguments 0-2 times, in any
    order.  Half the argv are wild: options exact, abbreviated or with ``=``,
    values good or bad, one stray word; the rest use exact options and
    values their types accept."""
    noun = draw(st.sampled_from(list(cli._COMMANDS)))
    verb = draw(st.sampled_from(list(cli._COMMANDS[noun][1])))
    wild = draw(st.booleans())
    pieces = []
    for name, options in cli._COMMANDS[noun][1][verb][2]:
        good = []
        for value in _READER_VALUES:
            with contextlib.suppress(Exception):
                if not value.startswith("-"):
                    options.get("type", str)(value)
                    good.append(value)
        values = st.sampled_from(good)
        if wild:
            values = st.one_of(values, st.sampled_from(_READER_VALUES))
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2]))):
            if not name.startswith("-"):
                pieces.append(draw(st.lists(values, min_size=1, max_size=3)))
                continue
            shape = draw(st.sampled_from(["exact"] * 3 + ["abbreviated", "="])) if wild else "exact"
            if shape == "abbreviated":
                spelled = name[: draw(st.integers(3, len(name) - 1))]
            else:
                spelled = name
            if shape == "=":
                pieces.append([f"{spelled}={draw(values)}"])
            elif options.get("action") == "store_true":
                pieces.append([spelled])
            else:
                pieces.append([spelled, draw(values)])
    if wild:
        pieces += draw(st.lists(st.sampled_from(_READER_VALUES).map(lambda v: [v]), max_size=1))
    return [noun, verb, *(word for piece in draw(st.permutations(pieces)) for word in piece)]


class TestArgvReader:
    """``cli._read_args`` reads argv as argparse does, or leaves it to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(argv=_verb_argv())
    def test_a_read_namespace_is_argparses(self, argv):
        args = cli._read_args(argv)
        if args is not None:
            parsed = _parse(argv)
            assert parsed is not None, argv
            assert vars(args) == vars(parsed), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["image", "lint", "x", "--mach"],
            ["job", "gen", "--profile", "p", "--spec", "s", "--nodes=2", "--gpus-per-node", "1",
             "--out", "o"],
            ["bench", "report", "--warmup", "-1", "1:a"],
            ["perf", "predict", "--params", "1", "--batch-per-gpu", "1", "--single-gpu-ips",
             "1", "--link-latency", "-1"],
            ["bench", "report", "1:a", "--warmup", "2", "2:b"],
            ["profile", "validate", "x", "-h"],
            ["profile", "validate", "x", "y"],
            ["profile", "validate"],
            ["profile", "check", "x"],
            ["profile"],
            [],
            ["run", "mock", "--nodes", "0", "--gpus-per-node", "1"],
            ["image", "gen", "--spec", "s"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_argparse_reads_what_the_reader_declines(self, argv):
        assert cli._read_args(argv) is None

    def test_every_benchmark_argv_is_read(self, tmp_path, monkeypatch):
        # the benchmark's ops must take the path without argparse
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        workloads = pytest.importorskip("workloads")
        rounds = [*workloads.job_lifecycle_rounds(1, tmp_path / "jobs"),
                  *workloads.lint_rounds(1, tmp_path / "lint")]
        argvs = [op.argv for ops in rounds for op in ops]
        assert len(argvs) > 100
        for argv in argvs:
            head = argv[: argv.index("--")] if "--" in argv else argv
            args = cli._read_args(head)
            assert args is not None, argv
            assert vars(args) == vars(_parse(head)), argv


def test_every_benchmark_library_chain_runs(monkeypatch):
    # the benchmark's warm worker calls the library directly: every name and
    # field its chains use must still be there and give the expected output
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = pytest.importorskip("workloads")
    import libworker  # an import error fails: a name it takes from hpcflow is gone
    ops, expected = workloads.library_plan(1)
    assert {op["kind"] for op in ops} == {"lint", "job", "bench", "predict"}
    for op, want in zip(ops, expected):
        output = json.loads(json.dumps(libworker.call(op)))  # as the worker sends it
        assert workloads.check_library_output(want, output) == [], op["kind"]


# Argument text a process can receive: no NUL, and bytes that are not UTF-8
# arrive as the lone surrogates U+DC80..U+DCFF.
_ARG_CHAR = st.one_of(
    st.characters(blacklist_categories=["Cs"], blacklist_characters="\x00"),
    st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF, categories=["Cs"]),
)
_ARG = st.text(_ARG_CHAR, max_size=8)
# text spliced into a fixture: any argument text, or a token of the file formats
_SPLICE = st.one_of(
    _ARG,
    st.sampled_from(["\n", "=", "[cluster]", "[environment]", "\\\n", '"', "'", "$(", "sudo",
                     "FROM ", "RUN ", "@", ":", ",", "1e999", "nan", "-1", "\ufeff"]),
)
_EDITS = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 6), _SPLICE), min_size=1, max_size=4
)
_ENV_KEY = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True)
_JOB_GEN = ["job", "gen", "--nodes", "1", "--gpus-per-node", "1", "--out", "{tmp}/job.sh"]
_ENTRYPOINT_SPEC = ["--spec", str(SPECS / "entrypoint.spec")]
_TAGS_SPEC = ["--spec", str(SPECS / "tags.spec")]
_CSIC = ["--profile", str(PROFILES / "csic.profile")]
# one --tags entry: any argument text, or ompiM.m with digits str() may not write
_TAG_DIGITS = st.text(st.sampled_from("01\u0664"), min_size=1, max_size=3)
_TAG_ENTRY = _ARG | st.builds("ompi{}.{}".format, _TAG_DIGITS, _TAG_DIGITS)
_HUGE_TAG = "ompi4.0" + "0" * 5000  # more digits than int() reads
# each verb that reads a file, with ``{file}`` for the fixture it reads mutated
_FILE_CASES = [
    *((["profile", "validate", "{file}"], path) for path in sorted(PROFILES.glob("*"))),
    *((["image", "gen", "--spec", "{file}", "--out", "{tmp}/Dockerfile"], path)
      for path in sorted(SPECS.glob("*"))),
    *((["image", "lint", "{file}"], path) for path in corpus_paths()),
    *(([*_JOB_GEN, "--profile", "{file}", *_ENTRYPOINT_SPEC], path)
      for path in sorted(PROFILES.glob("*"))),
    *(([*_JOB_GEN, *_CSIC, "--spec", "{file}"], path) for path in sorted(SPECS.glob("*"))),
    *((["run", "dry", "--profile", "{file}", *_ENTRYPOINT_SPEC], path)
      for path in sorted(PROFILES.glob("*"))),
    *((["run", "dry", *_CSIC, "--spec", "{file}"], path) for path in sorted(SPECS.glob("*"))),
    *((["bench", "report", f"1:{LOGS / 'bench_1gpu.log'}", "2:{file}"], path)
      for path in sorted(LOGS.glob("*"))),
]


def _check_no_traceback(argv: list[str], tmp: str) -> None:
    """``main`` returns 0, 1 or 3, or exits 2 through argparse, and every shell
    file it writes passes ``sh -n``."""
    argv = [arg.replace("{tmp}", tmp) for arg in argv]
    with (
        mock.patch.object(cli, "build_parser", _PARSER),
        # strict, as a UTF-8 locale's stdout is: it refuses a surrogate it is not told to pass
        contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO(), encoding="utf-8")),
        contextlib.redirect_stderr(io.StringIO()) as err,
    ):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error is the only exit
            assert (exc.code, err.getvalue()[:7]) == (2, "usage: "), argv
            return
    assert code in (0, 1, 3), argv
    for name in os.listdir(tmp):
        if name.endswith(".sh"):
            path = os.path.join(tmp, name)
            assert subprocess.run(["/usr/bin/sh", "-n", path]).returncode == 0, argv


def _check_no_privileged_words(argv: list[str], tmp: str) -> None:
    """No shell file in ``tmp`` holds a privileged word but those of the
    user's command, after ``--``."""
    command = argv[argv.index("--") + 1 :] if "--" in argv else []
    allowed = set(find_privileged_tokens(shlex.join(command)))
    for name in os.listdir(tmp):
        if name.endswith(".sh"):
            with open(os.path.join(tmp, name), encoding="utf-8", errors="surrogateescape") as f:
                assert set(find_privileged_tokens(f.read())) <= allowed, (argv, name)


def _replacing(path: Path, old: str, new: str) -> list[tuple[int, int, str]]:
    """The one edit that puts ``new`` in place of the first ``old`` in ``path``."""
    return [(path.read_text(encoding="utf-8").index(old), len(old), new)]


_CSIC_JOB_GEN = ([*_JOB_GEN, "--profile", "{file}", *_ENTRYPOINT_SPEC], PROFILES / "csic.profile")
_SPEC_JOB_GEN = ([*_JOB_GEN, *_CSIC, "--spec", "{file}"], SPECS / "entrypoint.spec")


class TestNoTraceback:
    @settings(max_examples=75, deadline=None)
    @given(case=st.sampled_from(_FILE_CASES), edits=_EDITS)
    @example(case=_FILE_CASES[0], edits=[(40, 0, "\udcff")])
    # a privileged command as the runtime path, a module or the image's name
    @example(
        case=_CSIC_JOB_GEN,
        edits=_replacing(
            _CSIC_JOB_GEN[1], "/home/researcher/.local/udocker/udocker", "/usr/bin/sudo"
        ),
    )
    @example(case=_CSIC_JOB_GEN, edits=_replacing(_CSIC_JOB_GEN[1], "openmpi/4.0.1", "sudo"))
    @example(
        case=_SPEC_JOB_GEN,
        edits=_replacing(_SPEC_JOB_GEN[1], "nvidia/cuda:10.1-cudnn7-devel-ubuntu18.04", "sudo:1"),
    )
    def test_mutated_input_file(self, case, edits):
        argv, path = case
        text = path.read_text(encoding="utf-8")
        for at, cut, splice in edits:
            at %= len(text) + 1
            text = text[:at] + splice + text[at + cut :]
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, path.name)
            with open(file, "wb") as f:
                f.write(text.encode("utf-8", "surrogateescape"))
            argv = [arg.replace("{file}", file) for arg in argv]
            _check_no_traceback(argv, tmp)
            _check_no_privileged_words(argv, tmp)

    # each checked flag is valid or absent often enough that many runs write a script
    @settings(max_examples=40, deadline=None)
    @given(
        flags=st.fixed_dictionaries(
            {},
            optional={
                "--job-name": _ARG,
                "--walltime": st.one_of(st.just("2:00:00"), _ARG),
                "--container-name": st.one_of(
                    st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,4}", fullmatch=True), _ARG
                ),
                "--env": st.one_of(st.builds("{}={}".format, _ENV_KEY, _ARG), _ARG),
                "--workdir": st.builds("{}:{}".format, _ARG, _ARG),
                "--tags": _ARG,
                # a file name in the folder: no "/", so nothing is written outside it
                "--out": st.builds("{{tmp}}/{}.sh".format, _ARG.filter(lambda a: "/" not in a)),
            },
        ),
        command=st.lists(_ARG, max_size=3),
    )
    @example(
        flags={"--env": "A=\udcff", "--job-name": "j\udcff", "--out": "{tmp}/\udcff.sh"},
        command=["python", "\udcff"],
    )
    def test_job_gen_free_text(self, flags, command):
        argv = [*_JOB_GEN, *_CSIC, *_ENTRYPOINT_SPEC]
        argv += [f"{flag}={value}" for flag, value in flags.items()]
        if command:
            argv += ["--", *command]
        with tempfile.TemporaryDirectory() as tmp:
            _check_no_traceback(argv, tmp)

    # reconcile reads --tags for the tags strategy only
    @settings(max_examples=40, deadline=None)
    @given(
        verb=st.sampled_from([_JOB_GEN, ["run", "dry"]]),
        tags=st.lists(_TAG_ENTRY, min_size=1, max_size=3),
    )
    @example(verb=_JOB_GEN, tags=[_HUGE_TAG])
    @example(verb=["run", "dry"], tags=[_HUGE_TAG, "ompi4.0"])
    def test_tags_free_text(self, verb, tags):
        argv = [*verb, *_CSIC, *_TAGS_SPEC, f"--tags={','.join(tags)}"]
        with tempfile.TemporaryDirectory() as tmp:
            _check_no_traceback(argv, tmp)


class TestPrivilegedWords:
    """A privileged command named by a container name or a profile is refused."""

    @pytest.mark.parametrize(
        "argv",
        [[*_JOB_GEN, *_CSIC, *_ENTRYPOINT_SPEC], ["run", "dry", *_CSIC, *_ENTRYPOINT_SPEC]],
        ids=["job gen", "run dry"],
    )
    def test_privileged_container_name_exits_one(self, argv, tmp_path, capsys):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, out, err = run_cli([*argv, "--container-name", "su"], capsys)
        error = "error: container name 'su' names a privileged command\n"
        assert (code, out, err) == (1, "", error)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("/home/researcher/.local/udocker/udocker", "/usr/bin/sudo",
             "line 8: container_runtime_path '/usr/bin/sudo' names a privileged command"),
            ("openmpi/4.0.1", "sudo",
             "line 9: module_loads entry 'sudo' names a privileged command"),
        ],
    )
    def test_profile_naming_a_privileged_command_is_refused(
        self, old, new, message, tmp_path, capsys
    ):
        profile = tmp_path / "bad.profile"
        profile.write_text((PROFILES / "csic.profile").read_text().replace(old, new))
        code, out, err = run_cli(["profile", "validate", str(profile)], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        jobs = tmp_path / "jobs"
        jobs.mkdir()
        argv = [*_JOB_GEN, "--profile", str(profile), *_ENTRYPOINT_SPEC]
        argv = [a.replace("{tmp}", str(jobs)) for a in argv]
        assert run_cli(argv, capsys) == (1, "", f"error: {message}\n")
        assert list(jobs.iterdir()) == []

    def test_image_named_like_a_privileged_command_runs_as_container(self, tmp_path, capsys):
        spec = tmp_path / "sudo.spec"
        text = (SPECS / "entrypoint.spec").read_text()
        spec.write_text(text.replace("nvidia/cuda:10.1-cudnn7-devel-ubuntu18.04", "sudo:1"))
        code, out, err = run_cli(["run", "dry", *_CSIC, "--spec", str(spec)], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "udocker create --name=container sudo:1"


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
# what a usage error or help loads; well-formed argv is read without them
_PARSER_MODULES = {"argparse", "gettext"}
_VERBS = {
    "profile validate": (
        ["profile", "validate", str(PROFILES / "csic.profile")],
        {"errors", "profiles"},
        {"subprocess", "statistics", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "image gen": (
        ["image", "gen", "--spec", str(SPECS / "entrypoint.spec"), "--out", "{tmp}/Dockerfile"],
        {"errors", "profiles", "recon", "dockerfile"},
        {"subprocess", "statistics", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "image lint": (
        ["image", "lint", "--machine", str(LINT / "12_multiple_smells.dockerfile")],
        {"errors", "dockerfile", "lint"},
        # neither lint fixture has a JSON list
        {"subprocess", "statistics", "shlex", "json", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "image lint, quoted RUN": (
        ["image", "lint", "--machine", str(FIXTURES / "dockerfiles" / "p10_quoted_run.dockerfile")],
        {"errors", "dockerfile", "lint"},
        {"subprocess", "statistics", "shlex", "json", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "image lint, canonical JSON lists": (
        ["image", "lint", "--machine", str(LINT / "10_clean.dockerfile")],
        {"errors", "dockerfile", "lint"},
        # its ENTRYPOINT and CMD lists are written as json.dumps writes them
        {"subprocess", "statistics", "shlex", "json", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "image lint, canonical JSON RUN and COPY": (
        ["image", "lint", "--machine", "{tmp}/Dockerfile"],
        {"errors", "dockerfile", "lint"},
        # lint reads their words as json.dumps writes them, too
        {"subprocess", "statistics", "shlex", "json", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "image lint, JSON list as written": (
        ["image", "lint", "--machine", "{tmp}/Dockerfile"],
        {"errors", "dockerfile", "lint"},
        # the parser keeps the list as written, and no rule reads CMD's words
        {"subprocess", "statistics", "shlex", "json", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "job gen": (
        ["job", "gen", *_RECONCILE_ARGS, "--nodes", "2", "--gpus-per-node", "2",
         "--out", "{tmp}/job.sh", "--", "python", "train.py"],
        _RECONCILE,
        {"subprocess", "statistics", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "run dry": (
        ["run", "dry", *_RECONCILE_ARGS],
        _RECONCILE,
        {"subprocess", "statistics", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "run mock": (
        ["run", "mock", "--nodes", "1", "--gpus-per-node", "2"],
        {"errors", "profiles", "launch", "runner"},
        {"statistics", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "perf predict": (
        ["perf", "predict", "--params", "25636712", "--batch-per-gpu", "256",
         "--single-gpu-ips", "380"],
        {"errors", "perf"},
        {"subprocess", "statistics", *_RECORD_MODULES, *_PARSER_MODULES},
    ),
    "bench report": (
        ["bench", "report", "--warmup", "10", f"1:{LOGS / 'bench_1gpu.log'}",
         f"2:{LOGS / 'bench_2gpu.log'}"],
        {"errors", "perf"},
        {"subprocess", *_RECORD_MODULES, *_STATISTICS_MODULES, *_PARSER_MODULES},
    ),
}
# the input files a verb's argv names in its folder ``{tmp}``, which the
# outputs manifest does not cover
_VERB_FILES = {
    "image lint, canonical JSON RUN and COPY": {
        "Dockerfile": 'FROM a:1\nRUN ["echo", "a"]\nCOPY ["a.tgz", "/x/"]\n'
    },
    "image lint, JSON list as written": {"Dockerfile": 'FROM a:1\nCMD ["a","b"]\n'},
}


def _verb_argv(verb: str, tmp_path: Path) -> list[str]:
    """The argv of ``verb`` with ``{tmp}`` as ``tmp_path``, its input files written there."""
    for name, text in _VERB_FILES.get(verb, {}).items():
        (tmp_path / name).write_text(text)
    return [a.replace("{tmp}", str(tmp_path)) for a in _VERBS[verb][0]]


def _run_python(
    code: str, argv: list[str] = (), env: dict[str, str] | None = None, **options
) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports hpcflow from this tree.

    ``env`` adds variables, and ``options`` go to ``subprocess.run``;
    stdout and stderr are captured unless an option says otherwise.
    """
    env = {**os.environ, **(env or {})}
    src = str(Path(hpcflow.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **options}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, text=True, timeout=60, **options
    )


def _modules_after(code: str, argv: list[str] = ()) -> set[str]:
    """Run ``code`` in a fresh interpreter and return its ``sys.modules``."""
    child = _run_python(code + "\nprint(' '.join(sorted(sys.modules)))", argv)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.splitlines()[-1].split())


@functools.cache
def _modules_at_start() -> frozenset[str]:
    """What a fresh interpreter loads before any hpcflow code runs."""
    return frozenset(_modules_after("import sys"))


class TestColdStartImports:
    @pytest.mark.parametrize("verb", list(_VERBS))
    def test_verb_loads_only_its_layers(self, verb, tmp_path):
        _, layers, forbidden = _VERBS[verb]
        argv = _verb_argv(verb, tmp_path)
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
        forbidden = _VERBS[verb][2]
        argv = _verb_argv(verb, tmp_path)
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

    def test_import_compiles_no_pattern(self):
        # each pattern is a string that ``re`` compiles on first use, so a
        # verb compiles only the patterns it runs: with the standard library
        # loaded first, importing every module calls no ``re.compile``
        package = Path(hpcflow.__file__).parent
        paths = sorted(package.glob("*.py"))
        needed = set()
        for path in paths:
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.Import):
                    needed.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module.partition(".")[0] not in (
                    "hpcflow", "__future__"
                ):
                    needed.add(node.module)
        modules = [f"hpcflow.{path.stem}" for path in paths if path.stem != "__init__"]
        code = (
            f"import importlib, re\nfor name in {sorted(needed)!r}:\n"
            "    importlib.import_module(name)\n"
            "def refused(*args, **kwargs):\n"
            "    raise AssertionError(f're.compile{args!r} at import')\n"
            f"re.compile = refused\nfor name in {['hpcflow', *modules]!r}:\n"
            "    importlib.import_module(name)\n"
        )
        child = _run_python(code)
        assert child.returncode == 0, child.stderr

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

    def test_every_benchmarked_layer_resolves(self):
        # the benchmark traces each layer by its ``module.function`` name
        import importlib
        import json

        benchmark = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
        names = [metric["name"] for metric in benchmark["per_layer"]]
        layers = [name.removesuffix(".calls") for name in names if name.endswith(".calls")]
        assert {"cli.main", "runner.dry_run"} <= set(layers)
        missing = []
        for layer in layers:
            module, _, function = layer.partition(".")
            if not callable(getattr(importlib.import_module(f"hpcflow.{module}"), function, None)):
                missing.append(layer)
        assert missing == []


_PATTERN_FUNCTIONS = {
    "compile", "match", "fullmatch", "search", "findall", "finditer", "sub", "subn", "split"
}


def _patterns() -> dict[str, str]:
    """Each pattern of the package by ``module.name``: the first argument of
    a ``re`` call or of a ``profiles._word`` reader, where it is a literal
    or a module-level name (a parameter, as in ``_word`` itself, is skipped).
    Patterns compile on first use, so one that few inputs reach (the escape
    directive, the heredoc word) would show a fault only in a user's run."""
    import importlib

    patterns = {}
    for path in sorted(Path(hpcflow.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"hpcflow.{path.stem}".removesuffix(".__init__"))
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "re"
                and func.attr in _PATTERN_FUNCTIONS
                or isinstance(func, ast.Name) and func.id == "_word"
            ):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                patterns[f"{path.stem}.{ast.unparse(arg)}"] = arg.value
            elif isinstance(arg, ast.Name) and isinstance(getattr(module, arg.id, None), str):
                patterns[f"{path.stem}.{arg.id}"] = getattr(module, arg.id)
    return patterns


# the patterns that keep Unicode classes, each with the reason
_UNICODE_PATTERNS = {
    # BuildKit splits an instruction into words at unicode.IsSpace, and the
    # parser's str.split and str.strip break at the same kind of characters
    "dockerfile._RAW_WORD",
}


class TestPatterns:
    def test_every_pattern_compiles(self):
        patterns = _patterns()
        failed = []
        for name, pattern in patterns.items():
            try:
                re.compile(pattern)
            except re.error as exc:
                failed.append((name, str(exc)))
        assert failed == []
        assert {
            "dockerfile._ESCAPE_DIRECTIVE", "dockerfile._RAW_WORD", "dockerfile._HEREDOC_WORD",
            "errors._WORD_PIECE", "errors._INT", "errors._FLOAT", "lint._ARG_REF", "recon._TAG",
            "perf._LOG_LINE", "profiles._PATH", "profiles._SUBSTITUTED_WORD",
        } <= patterns.keys()

    def test_every_pattern_reads_ascii(self):
        # Slurm, mpirun, the shell's blanks and Docker's Go regexps are ASCII,
        # but without re.ASCII \d takes any decimal digit, \w any letter, \s
        # any space and (?i) folds "\u017f" to "s"
        unicode = set()
        for name, pattern in _patterns().items():
            flags = re.compile(pattern).flags
            if flags & re.ASCII:
                continue
            if flags & re.IGNORECASE or re.search(r"(?<!\\)(?:\\\\)*\\[dwsbDWSB]", pattern):
                unicode.add(name)
        assert unicode == _UNICODE_PATTERNS


# the console script's body, and ``main`` on the normal exit path
_ENTRY = "from hpcflow.cli import entry\nentry()"
_MAIN = "import sys\nfrom hpcflow.cli import main\nsys.exit(main())"
_CLI_ARGVS = {
    "ok": ["profile", "validate", str(PROFILES / "csic.profile")],
    "error": ["profile", "validate", str(PROFILES / "missing.profile")],
    "lint errors": ["image", "lint", "--machine", str(LINT / "12_multiple_smells.dockerfile")],
}


class TestEntry:
    @pytest.mark.parametrize("argv", list(_CLI_ARGVS.values()), ids=list(_CLI_ARGVS))
    def test_entry_runs_main_without_the_collector(self, argv):
        # a wrapped main reports the collector's state, since entry() ends
        # the process with os._exit and no exit hook runs
        wrap = (
            "import gc, sys\nimport hpcflow.cli\nmain = hpcflow.cli.main\n"
            "def observed(*args):\n"
            "    print('collector on', gc.isenabled(), file=sys.stderr)\n"
            "    return main(*args)\n"
            "hpcflow.cli.main = observed\n"
        )
        runs = {}
        calls = {"entry": "hpcflow.cli.entry()", "main": "sys.exit(hpcflow.cli.main())"}
        for name, call in calls.items():
            child = _run_python(wrap + call, argv)
            observed, *err = child.stderr.splitlines()
            runs[name] = (child.returncode, child.stdout, err, observed)
        code, out, err, _ = runs["main"]
        assert runs == {
            "entry": (code, out, err, "collector on False"),
            "main": (code, out, err, "collector on True"),
        }

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv", [_CLI_ARGVS["ok"], _CLI_ARGVS["lint errors"]], ids=["ok", "lint errors"]
    )
    def test_closed_stdout_is_one_error(self, argv, unbuffered):
        # a pipe whose read end is closed; buffered, the write fails at the
        # flush after main, unbuffered inside it
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = _run_python(_ENTRY, argv, {"PYTHONUNBUFFERED": unbuffered}, stdout=write_end)
        finally:
            os.close(write_end)
        broken = f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
        assert (child.returncode, child.stderr) == (1, broken)

    def test_long_report_is_written_whole(self, tmp_path):
        # os._exit ends the process, so every byte must be out by then: to a
        # pipe (which fills and blocks) and to a file, in one write (--machine)
        # or one print per line, with stdout buffered as it is by default
        from hpcflow.dockerfile import parse_dockerfile
        from hpcflow.lint import lint, machine_report

        path = tmp_path / "long.dockerfile"
        path.write_text("FROM ubuntu:22.04\n" + "RUN pip install a && rm -rf b\n" * 3000)
        machine = machine_report(lint(parse_dockerfile(path.read_text())))
        assert machine.count("\n") == 3000
        buffered = {"PYTHONUNBUFFERED": ""}
        for argv in (["image", "lint", "--machine", str(path)], ["image", "lint", str(path)]):
            outputs = []
            for call in (_ENTRY, _MAIN):
                piped = _run_python(call, argv, buffered)
                with open(tmp_path / "report", "w") as out:
                    filed = _run_python(call, argv, buffered, stdout=out)
                assert (piped.returncode, piped.stderr, filed.returncode, filed.stderr) == (
                    0, "", 0, ""
                )
                outputs += [piped.stdout, (tmp_path / "report").read_text()]
            assert outputs == [outputs[0]] * 4
            assert "--machine" not in argv or outputs[0] == machine

    @pytest.mark.parametrize("closed", [1, 2], ids=["stdout", "stderr"])
    def test_missing_stream_is_no_error(self, closed):
        # started with descriptor 1 or 2 closed, the interpreter has no
        # sys.stdout or sys.stderr, and print writes nothing
        child = _run_python(_ENTRY, _CLI_ARGVS["ok"], preexec_fn=lambda: os.close(closed))
        out = "" if closed == 1 else "profile csic-dl: OK\n"
        assert (child.returncode, child.stdout, child.stderr) == (0, out, "")


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
