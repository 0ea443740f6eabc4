from __future__ import annotations

import os
import stat
import subprocess
from pathlib import Path

import pytest

from hpcflow.errors import ReconcileError
from hpcflow.profiles import SemVer
from hpcflow.recon import (
    InstallerConfig,
    ReconcilePlan,
    encoded_tag_version,
    generate_entrypoint,
    reconcile,
    select_tag,
)


class TestSelectTag:
    def test_exact_major_minor_match(self):
        assert select_tag(["ompi3.0", "ompi4.0", "ompi4.1"], SemVer(4, 1, 2)) == "ompi4.1"

    def test_no_match_lists_available_versions(self):
        with pytest.raises(ReconcileError, match="no tag for OpenMPI 4.0.*3.0"):
            select_tag(["ompi3.0"], SemVer(4, 0, 0))

    def test_variant_tie_break_is_lexicographic(self):
        tags = ["ompi4.1-cuda10", "ompi4.1-cuda11"]
        assert select_tag(tags, SemVer(4, 1, 0)) == "ompi4.1-cuda10"

    def test_unconventional_tags_ignored(self):
        assert select_tag(["latest", "v2", "ompi4.0"], SemVer(4, 0, 1)) == "ompi4.0"

    def test_tag_with_trailing_newline_is_unconventional(self):
        with pytest.raises(ReconcileError):
            select_tag(["ompi4.0\n"], SemVer(4, 0))

    def test_tag_with_non_ascii_digits_is_unconventional(self):
        # Docker's tag grammar is ASCII, so no registry holds such a tag
        assert encoded_tag_version("ompi\u0664.\u0660") is None
        assert encoded_tag_version("ompi4.0") == SemVer(4, 0)

    @pytest.mark.parametrize("tag", ["ompi04.0", "ompi4.00", "ompi4.0.1"])
    def test_tag_not_read_back_as_its_version_is_ignored(self, tag):
        # SemVer.parse reads the version: the text str() writes, digits int() can read
        assert encoded_tag_version(tag) is None
        with pytest.raises(ReconcileError) as info:
            select_tag([tag], SemVer(4, 0, 1))
        assert str(info.value).endswith(
            f"(encoded versions available: none; ignored, not ompiM.m[-variant]: {tag})"
        )

    def test_tag_too_long_for_docker_is_named_by_its_first_128_characters(self):
        tag = "ompi4." + "1" * 5000  # more digits than int() reads
        assert encoded_tag_version(tag) is None
        with pytest.raises(ReconcileError) as info:
            select_tag([tag], SemVer(4, 0, 1))
        assert str(info.value).endswith(f"ignored, not ompiM.m[-variant]: ompi4.{'1' * 122}...)")

    def test_error_names_each_ignored_ompi_tag_once_on_one_line(self):
        # a tag is outside text: one holding a control character is written as repr writes it
        tags = ["latest", "ompi4.0.1", "ompi3.1", "ompi04.0", "ompi4.0.1", "ompi4.0\x1b[2J"]
        with pytest.raises(ReconcileError) as info:
            select_tag(tags, SemVer(4, 0, 1))
        assert str(info.value) == (
            "no tag for OpenMPI 4.0 (encoded versions available: 3.1; ignored, "
            "not ompiM.m[-variant]: ompi4.0.1, ompi04.0, 'ompi4.0\\x1b[2J')"
        )

    def test_match_is_versions_match(self):
        # a tag states no patch, so any patch of the cluster's major.minor matches
        tags = ["ompi3.1", "ompi4.0-slim", "ompi4.9", "ompi04.0", "ompi4.00"]
        for cluster in ("4.0", "4.0.0", "4.0.1", "4.0.7"):
            assert select_tag(tags, SemVer.parse(cluster)) == "ompi4.0-slim"
        assert select_tag(tags, SemVer.parse("3.1.2")) == "ompi3.1"
        known = r"\(encoded versions available: 3\.1, 4\.0, 4\.9; ignored, not "
        known += r"ompiM\.m\[-variant\]: ompi04\.0, ompi4\.00\)$"
        with pytest.raises(ReconcileError, match=r"^no tag for OpenMPI 4\.1 " + known):
            select_tag(tags, SemVer.parse("4.1.5"))


class TestReconcile:
    def test_entrypoint_passes_cluster_versions(self, entrypoint_spec, csic_profile):
        plan = reconcile(entrypoint_spec, csic_profile)
        assert plan.runtime_args == ("4.0.1", "0.21.3")
        assert plan.image_ref == entrypoint_spec.base_image

    @pytest.mark.parametrize(
        "spec_name, expected",
        [
            (
                "entrypoint_spec",
                ReconcilePlan(
                    "nvidia/cuda:10.1-cudnn7-devel-ubuntu18.04",
                    ("4.0.1", "0.21.3"),
                    "entrypoint installs OpenMPI 4.0.1 and Horovod 0.21.3 on first start",
                ),
            ),
            (
                "ngc_spec",
                ReconcilePlan(
                    "nvcr.io/nvidia/tensorflow:21.02-tf2-py3",
                    (),
                    "image OpenMPI 4.0.1 vs cluster 4.0.1: major.minor match",
                ),
            ),
            (
                "tags_spec",
                ReconcilePlan(
                    "example/multigpu-horovod:ompi4.0",
                    (),
                    "tag ompi4.0 encodes OpenMPI 4.0, matching cluster csic-dl",
                ),
            ),
        ],
    )
    def test_whole_plan_per_strategy(self, spec_name, expected, csic_profile, request):
        spec = request.getfixturevalue(spec_name)
        assert reconcile(spec, csic_profile, available_tags=["ompi3.0", "ompi4.0"]) == expected

    def test_entrypoint_ignores_available_tags(self, entrypoint_spec, csic_profile):
        with_tags = reconcile(entrypoint_spec, csic_profile, available_tags=["bogus"])
        without = reconcile(entrypoint_spec, csic_profile)
        assert with_tags == without

    def test_ngc_match_major_minor(self, ngc_spec, csic_profile):
        plan = reconcile(ngc_spec, csic_profile)
        assert plan.image_ref == ngc_spec.base_image
        assert plan.runtime_args == ()
        assert "match" in plan.match_note

    def test_ngc_mismatch_is_error(self, ngc_spec, forhlr2_profile):
        # image pins 4.0.1, cluster has 4.0.2: both patches stated, so they differ
        with pytest.raises(ReconcileError, match="does not match"):
            reconcile(ngc_spec, forhlr2_profile)

    def test_ngc_unstated_patch_matches_major_minor(self, csic_profile):
        from hpcflow.profiles import parse_env_spec

        spec = parse_env_spec(
            "[environment]\nbase_image = a/b:1\nstrategy = ngc\n"
            "horovod_version = 0.21.0\nopenmpi_version = 4.0\n"
        )
        plan = reconcile(spec, csic_profile)  # cluster has 4.0.1
        assert (plan.image_ref, plan.runtime_args) == ("a/b:1", ())

    def test_ngc_major_mismatch(self, csic_profile):
        from hpcflow.profiles import parse_env_spec

        spec = parse_env_spec(
            "[environment]\nbase_image = a/b:1\nstrategy = ngc\n"
            "horovod_version = 0.21.0\nopenmpi_version = 3.1.4\n"
        )
        with pytest.raises(ReconcileError):
            reconcile(spec, csic_profile)

    def test_tags_resolves_image_ref(self, tags_spec, csic_profile):
        plan = reconcile(tags_spec, csic_profile, available_tags=["ompi3.0", "ompi4.0"])
        assert plan.image_ref == "example/multigpu-horovod:ompi4.0"
        assert plan.runtime_args == ()

    def test_tags_requires_available_tags(self, tags_spec, csic_profile):
        with pytest.raises(ReconcileError, match="available image tags"):
            reconcile(tags_spec, csic_profile)

    def test_deterministic(self, entrypoint_spec, csic_profile):
        assert reconcile(entrypoint_spec, csic_profile) == reconcile(
            entrypoint_spec, csic_profile
        )

    def test_non_default_registry_prefixes_ref(self, csic_profile):
        from hpcflow.profiles import parse_env_spec

        spec = parse_env_spec(
            "[environment]\nbase_image = org/img:1.0\nstrategy = entrypoint\n"
            "horovod_version = 0.21.3\nentrypoint_path = /entry.sh\n"
            "openmpi_version = 4.0.1\nregistry = registry.example.org\n"
        )
        plan = reconcile(spec, csic_profile)
        assert plan.image_ref == "registry.example.org/org/img:1.0"


def stub_installers(log: Path, fail_openmpi: bool = False) -> InstallerConfig:
    openmpi = "exit 42" if fail_openmpi else f"echo ompi-{{openmpi_version}} >> {log}"
    return InstallerConfig(
        openmpi_install=openmpi,
        horovod_install=f"echo hvd-{{horovod_version}} >> {log}",
    )


def write_script(tmp_path: Path, installers: InstallerConfig) -> Path:
    script = tmp_path / "entry.sh"
    script.write_text(generate_entrypoint(installers))
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return script


def run_script(script: Path, state_dir: Path, *args: str, stdin: str | None = None):
    env = dict(os.environ, HPCFLOW_STATE_DIR=str(state_dir))
    return subprocess.run(
        ["/bin/sh", str(script), *args],
        env=env,
        capture_output=True,
        text=True,
        input=stdin,
        timeout=30,
    )


class TestGenerateEntrypoint:
    def test_byte_identical_across_invocations(self):
        assert generate_entrypoint() == generate_entrypoint()

    def test_posix_syntax(self, tmp_path):
        script = write_script(tmp_path, InstallerConfig())
        assert subprocess.run(["/bin/sh", "-n", str(script)]).returncode == 0

    def test_shebang_and_state_dir_default(self):
        text = generate_entrypoint()
        assert text.startswith("#!/bin/sh\n")
        assert "HPCFLOW_STATE_DIR:-/opt/.hpcflow" in text

    def test_first_run_installs_and_writes_marker(self, tmp_path):
        log = tmp_path / "installs.log"
        state = tmp_path / "state"
        script = write_script(tmp_path, stub_installers(log))
        result = run_script(script, state, "4.0.1", "0.21.3", "/bin/echo", "done")
        assert result.returncode == 0
        assert result.stdout.strip() == "done"
        assert log.read_text() == "ompi-4.0.1\nhvd-0.21.3\n"
        assert (state / "installed-4.0.1-0.21.3").exists()

    def test_second_run_skips_installation(self, tmp_path):
        log = tmp_path / "installs.log"
        state = tmp_path / "state"
        script = write_script(tmp_path, stub_installers(log))
        run_script(script, state, "4.0.1", "0.21.3", "/bin/true")
        sentinel_before = log.stat().st_mtime_ns
        result = run_script(script, state, "4.0.1", "0.21.3", "/bin/true")
        assert result.returncode == 0
        assert log.read_text() == "ompi-4.0.1\nhvd-0.21.3\n"
        assert log.stat().st_mtime_ns == sentinel_before

    def test_different_versions_install_again(self, tmp_path):
        log = tmp_path / "installs.log"
        state = tmp_path / "state"
        script = write_script(tmp_path, stub_installers(log))
        run_script(script, state, "4.0.1", "0.21.3", "/bin/true")
        run_script(script, state, "4.1.0", "0.22.0", "/bin/true")
        assert log.read_text().count("ompi-") == 2

    def test_missing_arguments_usage_exit_2(self, tmp_path):
        script = write_script(tmp_path, stub_installers(tmp_path / "log"))
        for args in ([], ["4.0.1"]):
            result = run_script(script, tmp_path / "state", *args)
            assert result.returncode == 2
            assert "usage:" in result.stderr

    def test_no_command_falls_back_to_shell(self, tmp_path):
        state = tmp_path / "state"
        script = write_script(tmp_path, stub_installers(tmp_path / "log"))
        result = run_script(
            script, state, "4.0.1", "0.21.3", stdin="echo FROM_SHELL; exit 7\n"
        )
        assert result.returncode == 7
        assert "FROM_SHELL" in result.stdout

    def test_installer_failure_propagates_and_leaves_no_marker(self, tmp_path):
        log = tmp_path / "installs.log"
        state = tmp_path / "state"
        script = write_script(tmp_path, stub_installers(log, fail_openmpi=True))
        result = run_script(script, state, "4.0.1", "0.21.3", "/bin/true")
        assert result.returncode == 42
        assert not (state / "installed-4.0.1-0.21.3").exists()
        assert not log.exists()  # the later installer never ran

    def test_marker_written_atomically(self):
        text = generate_entrypoint()
        assert '"$MARKER.tmp"' in text
        assert 'mv "$MARKER.tmp" "$MARKER"' in text
