from __future__ import annotations

import shlex
import subprocess

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from hpcflow.errors import LaunchError, ProfileError
from hpcflow.launch import (
    MAX_MOCK_RANKS,
    PRIVILEGED_TOKENS,
    JobRequest,
    find_privileged_tokens,
    grid_plan,
    plan_launch,
    render_install_script,
    render_job_script,
    render_udocker_setup,
)
from hpcflow.recon import reconcile


def make_request(nodes: int, gpus_per_node: int, **overrides) -> JobRequest:
    values = dict(
        nodes=nodes,
        gpus_per_node=gpus_per_node,
        container_name="tfbench",
        image_ref="nvidia/cuda:10.1-cudnn7-devel-ubuntu18.04",
        workdir_mount=("$PWD", "/workdir"),
        user_command=("python", "/workspace/train.py"),
        job_name="tfbench",
        walltime="02:00:00",
    )
    values.update(overrides)
    return JobRequest(**values)


@pytest.fixture
def csic_plan(csic_profile, entrypoint_spec):
    return reconcile(entrypoint_spec, csic_profile)


class TestPlanLaunch:
    def test_two_by_two_gives_np_4(self, csic_profile, csic_plan):
        plan = plan_launch(csic_profile, csic_plan, make_request(2, 2))
        assert plan.total_ranks == 4
        args = list(plan.mpirun_args)
        assert args[args.index("-np") + 1] == "4"
        assert "ppr:2:node" in args

    def test_degenerate_single_rank(self, csic_profile, csic_plan):
        plan = plan_launch(csic_profile, csic_plan, make_request(1, 1))
        assert plan.total_ranks == 1

    def test_three_nodes_two_gpus_gives_six(self, csic_profile, csic_plan):
        plan = plan_launch(csic_profile, csic_plan, make_request(3, 2))
        assert plan.total_ranks == 6
        assert "6" in plan.mpirun_args

    def test_product_exhaustive_up_to_8x8(self, entrypoint_spec):
        from hpcflow.profiles import ClusterProfile, SemVer

        cluster = ClusterProfile(
            name="big",
            scheduler="slurm",
            gpus_per_node=8,
            gpu_nodes=8,
            openmpi_version=SemVer(4, 0, 1),
            container_runtime_path="/usr/local/bin/udocker",
        )
        recon_plan = reconcile(entrypoint_spec, cluster)
        for nodes in range(1, 9):
            for gpus in range(1, 9):
                plan = plan_launch(cluster, recon_plan, make_request(nodes, gpus))
                assert plan.total_ranks == nodes * gpus
                assert plan.slots_per_node == gpus

    @given(nodes=st.integers(1, 20), gpus=st.integers(1, 2))
    def test_product_property(self, nodes, gpus):
        from hpcflow.profiles import parse_cluster_profile

        cluster = parse_cluster_profile(
            (FIXTURES / "profiles" / "csic.profile").read_text()
        )
        from hpcflow.profiles import parse_env_spec

        spec = parse_env_spec((FIXTURES / "specs" / "entrypoint.spec").read_text())
        plan = plan_launch(cluster, reconcile(spec, cluster), make_request(nodes, gpus))
        assert plan.total_ranks == nodes * gpus

    def test_env_exports_each_forwarded_once(self, csic_profile, csic_plan):
        req = make_request(2, 2, extra_env={"FOO": "1", "BAR": "x"})
        plan = plan_launch(csic_profile, csic_plan, req)
        args = list(plan.mpirun_args)
        for key in plan.env_exports:
            positions = [
                i for i, a in enumerate(args) if a == "-x" and args[i + 1] == key
            ]
            assert len(positions) == 1, key
        assert plan.env_exports["NCCL_DEBUG"] == "INFO"
        assert plan.env_exports["PATH"] is None
        assert plan.env_exports["LD_LIBRARY_PATH"] is None

    def test_udocker_run_args_order(self, csic_profile, csic_plan):
        plan = plan_launch(csic_profile, csic_plan, make_request(2, 2))
        args = list(plan.udocker_run_args)
        assert args[0] == "--hostauth"
        assert args[1] == "--user=$USER"
        assert args[2] == "--volume=$PWD:/workdir"
        assert args[3] == "--volume=/scratch:/scratch"  # cluster default mount
        assert args[4] == "tfbench"
        assert args[5:7] == ["4.0.1", "0.21.3"]  # reconcile-supplied versions
        assert args[7:] == ["python", "/workspace/train.py"]

    def test_capacity_checks(self, csic_profile, csic_plan):
        with pytest.raises(LaunchError, match="nodes"):
            plan_launch(csic_profile, csic_plan, make_request(21, 2))
        with pytest.raises(LaunchError, match="GPUs per node"):
            plan_launch(csic_profile, csic_plan, make_request(2, 3))

    @pytest.mark.parametrize("nodes, gpus", [(0, 1), (1, 0)])
    def test_empty_grid_rejected(self, nodes, gpus, csic_profile, csic_plan):
        with pytest.raises(LaunchError, match="nodes and gpus_per_node must be >= 1"):
            plan_launch(csic_profile, csic_plan, make_request(nodes, gpus))

    def test_container_name_must_be_identifier(self, csic_profile, csic_plan):
        with pytest.raises(LaunchError, match="identifier"):
            plan_launch(csic_profile, csic_plan, make_request(1, 1, container_name="a b"))

    @pytest.mark.parametrize("key", ["A-B", "1X", "", "X Y", "X;sudo", "$X"])
    def test_env_key_must_be_shell_identifier(self, key, csic_profile, csic_plan):
        with pytest.raises(LaunchError, match="shell identifier"):
            plan_launch(csic_profile, csic_plan, make_request(1, 1, extra_env={key: "1"}))

    @pytest.mark.parametrize("walltime", ["2h", "\u0660\u0661:\u0660\u0660:\u0660\u0660"])
    def test_walltime_format(self, walltime, csic_profile, csic_plan):
        with pytest.raises(LaunchError, match="HH:MM:SS"):
            plan_launch(csic_profile, csic_plan, make_request(1, 1, walltime=walltime))

    @settings(max_examples=60)
    @given(
        field=st.sampled_from(["walltime", "container_name"]),
        at=st.integers(0, 8),
        brk=st.sampled_from(["\n", "\r", "\x0b", "\x85", "\u2028"]),
    )
    def test_line_break_in_walltime_or_container_name_refused(self, field, at, brk):
        from hpcflow.profiles import parse_cluster_profile, parse_env_spec

        cluster = parse_cluster_profile((FIXTURES / "profiles" / "csic.profile").read_text())
        spec = parse_env_spec((FIXTURES / "specs" / "entrypoint.spec").read_text())
        value = {"walltime": "01:00:00", "container_name": "tfbench"}[field]
        request = make_request(1, 1, **{field: value[:at] + brk + value[at:]})
        with pytest.raises(LaunchError, match="HH:MM:SS|identifier"):
            plan_launch(cluster, reconcile(spec, cluster), request)

    def test_empty_command_needs_entrypoint(self, csic_profile, ngc_spec, csic_plan):
        ngc_plan = reconcile(ngc_spec, csic_profile)
        with pytest.raises(LaunchError, match="entrypoint"):
            plan_launch(csic_profile, ngc_plan, make_request(1, 1, user_command=()))
        # the entrypoint image falls back to a shell, so empty is fine there
        plan = plan_launch(csic_profile, csic_plan, make_request(1, 1, user_command=()))
        assert plan.total_ranks == 1


class TestRenderJobScript:
    def test_csic_directives_and_launcher(self, csic_profile, csic_plan):
        req = make_request(2, 2)
        plan = plan_launch(csic_profile, csic_plan, req)
        script = render_job_script(plan, csic_profile, req)
        text = script.text
        assert text.startswith("#!/bin/sh\n")
        assert "#SBATCH --nodes=2" in text
        assert "#SBATCH --ntasks-per-node=2" in text
        assert "#SBATCH --gres=gpu:2" in text
        assert "#SBATCH --time=02:00:00" in text
        assert "#SBATCH --partition=gpu" in text
        assert "module load openmpi/4.0.1" in text
        launcher_lines = [l for l in text.splitlines() if l.startswith("mpirun ")]
        assert len(launcher_lines) == 1
        assert "-np 4" in launcher_lines[0]
        assert f"{csic_profile.container_runtime_path} run" in launcher_lines[0]

    def test_every_directive_appears(self, csic_profile, csic_plan):
        req = make_request(2, 2)
        plan = plan_launch(csic_profile, csic_plan, req)
        text = render_job_script(plan, csic_profile, req).text
        for key, value in plan.scheduler_directives:
            assert f"#SBATCH --{key}={value}" in text

    def test_extra_env_export_precedes_launcher(self, csic_profile, csic_plan):
        req = make_request(2, 2, extra_env={"FOO": "1"})
        plan = plan_launch(csic_profile, csic_plan, req)
        lines = render_job_script(plan, csic_profile, req).text.splitlines()
        export_idx = lines.index("export FOO=1")
        (mpirun_idx,) = [i for i, l in enumerate(lines) if l.startswith("mpirun ")]
        assert export_idx < mpirun_idx
        assert "-x FOO" in lines[mpirun_idx]

    def test_byte_stable(self, csic_profile, csic_plan):
        req = make_request(2, 2)
        plan = plan_launch(csic_profile, csic_plan, req)
        assert (
            render_job_script(plan, csic_profile, req).text
            == render_job_script(plan, csic_profile, req).text
        )

    def test_scheduler_none_is_error(self, fixtures, entrypoint_spec):
        from hpcflow.profiles import parse_cluster_profile

        local = parse_cluster_profile((fixtures / "profiles" / "local.profile").read_text())
        plan = plan_launch(local, reconcile(entrypoint_spec, local), make_request(1, 1))
        with pytest.raises(LaunchError, match="mock"):
            render_job_script(plan, local, make_request(1, 1))

    def test_golden_csic(self, fixtures, csic_profile, csic_plan):
        req = make_request(2, 2)
        plan = plan_launch(csic_profile, csic_plan, req)
        script = render_job_script(plan, csic_profile, req)
        golden = (fixtures / "golden" / "csic_2x2_job.sh").read_text()
        assert script.text == golden

    def test_golden_forhlr2(self, fixtures, forhlr2_profile, entrypoint_spec):
        plan_in = reconcile(entrypoint_spec, forhlr2_profile)
        req = make_request(2, 4, job_name="downscaling", container_name="downscaling")
        plan = plan_launch(forhlr2_profile, plan_in, req)
        script = render_job_script(plan, forhlr2_profile, req)
        golden = (fixtures / "golden" / "forhlr2_2x4_job.sh").read_text()
        assert script.text == golden


# printable text without line breaks: no control, format, private-use,
# unassigned or surrogate characters, and no line or paragraph separators
_PRINTABLE = st.text(st.characters(blacklist_categories=("C", "Zl", "Zp")))


class TestJobScriptQuoting:
    @settings(max_examples=60, deadline=None)
    @given(
        env=st.dictionaries(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True), _PRINTABLE),
        argv=st.lists(_PRINTABLE, min_size=1, max_size=4),
    )
    def test_user_values_pass_through_unchanged(self, tmp_path_factory, env, argv):
        from hpcflow.profiles import parse_cluster_profile, parse_env_spec

        cluster = parse_cluster_profile((FIXTURES / "profiles" / "csic.profile").read_text())
        spec = parse_env_spec((FIXTURES / "specs" / "entrypoint.spec").read_text())
        req = make_request(1, 1, extra_env=env, user_command=tuple(argv))
        plan = plan_launch(cluster, reconcile(spec, cluster), req)
        text = render_job_script(plan, cluster, req).text
        path = tmp_path_factory.mktemp("job") / "job.sh"
        path.write_text(text, encoding="utf-8")
        assert subprocess.run(["/usr/bin/sh", "-n", str(path)]).returncode == 0, text
        (launcher,) = [line for line in text.splitlines() if line.startswith("mpirun ")]
        assert shlex.split(launcher)[-len(argv) :] == argv
        for key, value in env.items():
            (export,) = [l for l in text.splitlines() if l.startswith(f"export {key}=")]
            assert shlex.split(export) == ["export", f"{key}={value}"]


def _shell_words(line: str, cwd=None) -> list[str]:
    """The words the shell passes to the command of ``line``, with USER set."""
    command, _, rest = line.partition(" ")
    proc = subprocess.run(
        ["/usr/bin/sh", "-c", f"{command}() {{ printf '%s\\0' \"$@\"; }}\n{command} {rest}"],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PATH": "/usr/bin:/bin", "USER": "alice"},
        check=True,
    )
    return proc.stdout.split("\0")[:-1]


class TestLauncherWords:
    def _launcher(self, cluster, recon_plan, **overrides) -> str:
        req = make_request(1, 1, **overrides)
        text = render_job_script(plan_launch(cluster, recon_plan, req), cluster, req).text
        (launcher,) = [line for line in text.splitlines() if line.startswith("mpirun ")]
        return launcher

    def test_workdir_substitution_is_not_run(self, tmp_path, csic_profile, csic_plan):
        marker = tmp_path / "P"
        source = f"x$(touch {marker})"
        launcher = self._launcher(csic_profile, csic_plan, workdir_mount=(source, "/w"))
        words = _shell_words(launcher, tmp_path)
        assert not marker.exists()
        assert f"--volume={source}:/w" in words

    def test_words_with_spaces_stay_one_word(self, tmp_path, csic_profile, csic_plan):
        cluster = csic_profile.replace(
            container_runtime_path="/opt/my tools/udocker",
            default_mounts=(("/scratch space", "/scratch"),),
        )
        launcher = self._launcher(cluster, csic_plan, workdir_mount=("/my dir", "/workdir"))
        words = _shell_words(launcher, tmp_path)
        assert "/opt/my tools/udocker" in words
        assert "--volume=/my dir:/workdir" in words
        assert "--volume=/scratch space:/scratch" in words

    def test_plain_words_expand_in_the_job(self, tmp_path, csic_profile, csic_plan):
        words = _shell_words(self._launcher(csic_profile, csic_plan), tmp_path)
        assert "--user=alice" in words
        assert f"--volume={tmp_path}:/workdir" in words
        assert "^openib" in words

    def test_module_name_is_one_word(self, csic_profile, csic_plan):
        cluster = csic_profile.replace(module_loads=("x;true",))
        req = make_request(1, 1)
        text = render_job_script(plan_launch(cluster, csic_plan, req), cluster, req).text
        (line,) = [line for line in text.splitlines() if line.startswith("module load ")]
        assert _shell_words(line) == ["load", "x;true"]

    @pytest.mark.parametrize("name", ["a\nsudo true", "a\rb", "a\x0bb", "a\x85b", "a\u2028b", "a\x00"])
    def test_job_name_line_break_rejected(self, name, csic_profile, csic_plan):
        with pytest.raises(LaunchError, match="job name"):
            plan_launch(csic_profile, csic_plan, make_request(1, 1, job_name=name))

    @pytest.mark.parametrize("field", ["partition", "account"])
    def test_profile_directive_line_break_rejected(self, field, csic_profile, csic_plan):
        cluster = csic_profile.replace(**{field: "gpu\nsudo true"})
        with pytest.raises(LaunchError, match=field):
            plan_launch(cluster, csic_plan, make_request(1, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        source=_PRINTABLE,
        target=_PRINTABLE,
        job_name=_PRINTABLE,
        container=st.from_regex(r"[A-Za-z0-9][A-Za-z0-9_.-]*", fullmatch=True),
    )
    def test_printable_values_keep_their_words(
        self, tmp_path_factory, source, target, job_name, container
    ):
        from hpcflow.profiles import parse_cluster_profile, parse_env_spec

        cluster = parse_cluster_profile((FIXTURES / "profiles" / "csic.profile").read_text())
        spec = parse_env_spec((FIXTURES / "specs" / "entrypoint.spec").read_text())
        req = make_request(
            1, 1, workdir_mount=(source, target), job_name=job_name, container_name=container
        )
        text = render_job_script(plan_launch(cluster, reconcile(spec, cluster), req), cluster, req).text
        path = tmp_path_factory.mktemp("job") / "job.sh"
        path.write_text(text, encoding="utf-8")
        assert subprocess.run(["/usr/bin/sh", "-n", str(path)]).returncode == 0, text
        assert f"#SBATCH --job-name={job_name}" in text.splitlines()
        (launcher,) = [line for line in text.splitlines() if line.startswith("mpirun ")]
        words = shlex.split(launcher)
        run_at = words.index("run")
        assert words[run_at - 1 :] == [
            cluster.container_runtime_path,
            "run",
            "--hostauth",
            "--user=$USER",
            f"--volume={source}:{target}",
            "--volume=/scratch:/scratch",
            container,
            "4.0.1",
            "0.21.3",
            "python",
            "/workspace/train.py",
        ]


class TestUdockerSetup:
    def test_entrypoint_sequence_has_four_commands(self, csic_plan):
        commands = render_udocker_setup(csic_plan, "tfbench")
        assert len(commands) == 4
        assert commands[0][:2] == ["udocker", "pull"]
        assert commands[1][:2] == ["udocker", "create"]
        assert commands[2] == ["udocker", "setup", "--nvidia", "tfbench"]
        assert commands[3] == ["udocker", "run", "tfbench", "4.0.1", "0.21.3"]

    def test_ngc_sequence_has_three_commands(self, csic_profile, ngc_spec):
        plan = reconcile(ngc_spec, csic_profile)
        commands = render_udocker_setup(plan, "tfngc")
        assert len(commands) == 3

    def test_whitespace_container_name_rejected(self, csic_plan):
        with pytest.raises(LaunchError, match="identifier"):
            render_udocker_setup(csic_plan, "bad name")


class TestInstallScript:
    def test_default_prefix_and_url(self):
        text = render_install_script()
        assert "$HOME/.local/udocker" in text
        assert "udocker-1.3.17.tar.gz" in text

    def test_custom_prefix_used_verbatim(self):
        text = render_install_script(prefix="/scratch/me/runtime")
        assert "PREFIX=/scratch/me/runtime" in text

    def test_shell_syntax(self, tmp_path):
        path = tmp_path / "install.sh"
        path.write_text(render_install_script())
        assert subprocess.run(["/bin/sh", "-n", str(path)]).returncode == 0

    @pytest.mark.parametrize("prefix", ["/my dir/rt", "/rt;true", "$(true)/rt"])
    def test_prefix_is_one_word(self, prefix):
        text = render_install_script(prefix=prefix)
        (line,) = [line for line in text.splitlines() if line.startswith("PREFIX=")]
        shell = ["/usr/bin/sh", "-c", f'{line}\nprintf %s "$PREFIX"']
        assert subprocess.run(shell, capture_output=True, text=True).stdout == prefix


class TestNoPrivilegedCommands:
    def test_scan_catches_sudo(self):
        assert find_privileged_tokens("sudo rm -rf /\n") == ["sudo"]
        assert find_privileged_tokens("echo su && su - root\n") == ["su"]

    @pytest.mark.parametrize(
        "text",
        [
            "export X=1;sudo true\n",
            "echo $(sudo id)\n",
            "echo `sudo id`\n",
            'echo "$(sudo id)"',
            'echo "`sudo id`"',
            'X="$(doas ls)" true',
        ],
    )
    def test_scan_splits_at_operators_and_substitutions(self, text):
        # each text runs the one privileged command it names
        assert find_privileged_tokens(text) == [w for w in ("doas", "sudo") if w in text]

    def test_scan_ignores_substrings(self):
        assert find_privileged_tokens("udocker run --user=$USER img\n") == []
        assert find_privileged_tokens("udocker setup --nvidia name\n") == []

    def test_scan_of_quoted_text(self):
        assert find_privileged_tokens('echo "sudo is fine"') == []
        # sh prints a single-quoted substitution, but the scan errs toward reporting
        assert find_privileged_tokens("echo '$(sudo id)'") == ["sudo"]

    def test_generated_scripts_are_clean(self, csic_profile, csic_plan):
        from hpcflow.recon import generate_entrypoint

        req = make_request(2, 2)
        plan = plan_launch(csic_profile, csic_plan, req)
        texts = [
            render_job_script(plan, csic_profile, req).text,
            render_install_script(),
            generate_entrypoint(),
            "\n".join(" ".join(c) for c in render_udocker_setup(csic_plan, "tfbench")),
        ]
        for text in texts:
            assert find_privileged_tokens(text) == []


# text that puts privileged words next to operators, substitutions and quotes
_SHELL_TEXT = st.lists(
    st.sampled_from(
        [*sorted(PRIVILEGED_TOKENS), " ", ";", "&&", "|", "$(", ")", "`", "'", '"', "\\", "x"]
    ),
    max_size=8,
).map("".join)


class TestPrivilegedScanProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        argv=st.lists(_SHELL_TEXT, min_size=1, max_size=4),
        env_value=_SHELL_TEXT,
        job_name=_SHELL_TEXT,
    )
    def test_scan_finds_every_privileged_command(
        self, tmp_path_factory, argv, env_value, job_name
    ):
        from hpcflow.profiles import parse_cluster_profile, parse_env_spec

        cluster = parse_cluster_profile((FIXTURES / "profiles" / "csic.profile").read_text())
        spec = parse_env_spec((FIXTURES / "specs" / "entrypoint.spec").read_text())
        req = make_request(
            1, 1, extra_env={"V": env_value}, user_command=tuple(argv), job_name=job_name
        )
        plan = plan_launch(cluster, reconcile(spec, cluster), req)
        text = render_job_script(plan, cluster, req).text
        # run the script with each privileged word a function that names
        # itself on stderr, and with no PATH, so nothing else can run
        stubs = "".join(f"{w}() {{ echo {w} >&2; }}\n" for w in sorted(PRIVILEGED_TOKENS))
        proc = subprocess.run(
            ["/usr/bin/sh", "-c", f"{stubs}mpirun() {{ :; }}\nmodule() {{ :; }}\n{text}"],
            capture_output=True,
            text=True,
            cwd=tmp_path_factory.mktemp("job"),
            env={"PATH": ""},
        )
        assert proc.returncode == 0, (text, proc.stderr)
        run_by_shell = {line for line in proc.stderr.splitlines() if line in PRIVILEGED_TOKENS}
        # the container runs the user's argv as a command
        commands = run_by_shell | ({argv[0]} & PRIVILEGED_TOKENS)
        assert commands <= set(find_privileged_tokens(text)), text


def _joined(head, tail):
    return st.tuples(head, st.lists(tail, max_size=4)).map(lambda t: t[0] + "".join(t[1]))


# words of the characters each spec key accepts, with privileged words as pieces
_PATH_CHAR = st.sampled_from([*"aZ0_@%+=.,/^-:", "sudo", "su"])
_PATH_WORD = _joined(_PATH_CHAR, _PATH_CHAR)
_COPY_WORD = _PATH_WORD.map(lambda w: w.replace(",", "").replace(":", "") or "a")
_VERSION = _joined(st.sampled_from(["0", "21", "rc", "Z"]), st.sampled_from([*".+_-", "3"]))
_PACKAGE = st.tuples(
    _joined(st.sampled_from(["vim", "g", "0", "su", "doas"]), st.sampled_from([*"+.-", "x"])),
    st.none() | _VERSION,
).map(lambda t: t[0] if t[1] is None else f"{t[0]}={t[1]}")
# characters the spec refuses; one value of a text may get one
_HOSTILE = st.sampled_from([" ", "$", "\\", "'", ";", "`", "$(doas id)", "\u00a0"])


@st.composite
def _spec_text(draw) -> str:
    """``[environment]`` text with hostile-looking values; most of it parses."""
    strategy = draw(st.sampled_from(["tags", "ngc", "entrypoint"]))
    values = {
        "base_image": draw(_joined(_PATH_CHAR, _PATH_CHAR | st.just("\u00dc"))),
        "strategy": strategy,
        "horovod_version": draw(_VERSION),
        "system_packages": ", ".join(draw(st.lists(_PACKAGE, max_size=3))),
        "code_copies": ", ".join(
            f"{src}:{dst}"
            for src, dst in draw(st.lists(st.tuples(_COPY_WORD, _PATH_WORD), max_size=3))
        ),
        "registry": draw(st.just("") | _PATH_WORD),
    }
    if strategy != "tags":
        values["openmpi_version"] = "4.0.1"
    if strategy == "entrypoint" or draw(st.booleans()):
        values["entrypoint_path"] = draw(_PATH_WORD)
    spoiled = draw(st.sampled_from([None, None, None, *values]))
    if spoiled is not None:
        at = draw(st.integers(0, len(values[spoiled])))
        values[spoiled] = values[spoiled][:at] + draw(_HOSTILE) + values[spoiled][at:]
    lines = draw(st.permutations([f"{key} = {value}" for key, value in values.items()]))
    return "\n".join(["[environment]", *lines]) + "\n"


class TestGeneratedDockerfileProperty:
    @settings(max_examples=100, deadline=None)
    @given(_spec_text())
    def test_every_accepted_spec_gives_a_clean_dockerfile(self, text):
        from hpcflow.dockerfile import generate_dockerfile, parse_dockerfile, render_dockerfile
        from hpcflow.lint import _words, lint
        from hpcflow.profiles import parse_env_spec

        try:
            spec = parse_env_spec(text)
        except ProfileError:
            assume(False)
        ast = generate_dockerfile(spec)
        dockerfile = render_dockerfile(ast)
        assert find_privileged_tokens(dockerfile) == [], dockerfile
        for instr in ast.instructions:
            if instr.kind in ("FROM", "COPY"):  # no flags, and two paths to COPY
                words = _words(instr)
                assert len(words) == (2 if instr.kind == "COPY" else 1), dockerfile
                assert not any(word.startswith("-") for word in words), dockerfile
        assert parse_dockerfile(dockerfile) == ast
        assert lint(ast).counts["error"] == 0, dockerfile


class TestGridPlan:
    def test_layout_without_launcher_fields(self):
        plan = grid_plan(2, 3, {"FOO": "bar", "PATH": None})
        assert (plan.total_ranks, plan.slots_per_node) == (6, 3)
        assert plan.env_exports == {"FOO": "bar", "PATH": None}
        assert plan.mpirun_args == plan.udocker_run_args == plan.scheduler_directives == ()

    def test_env_defaults_to_empty(self):
        assert grid_plan(1, 1).env_exports == {}

    @pytest.mark.parametrize("nodes, gpus", [(0, 1), (1, 0)])
    def test_rejects_empty_grid(self, nodes, gpus):
        with pytest.raises(LaunchError, match=">= 1"):
            grid_plan(nodes, gpus)

    def test_rank_limit(self):
        assert grid_plan(8, MAX_MOCK_RANKS // 8).total_ranks == MAX_MOCK_RANKS == 64
        for nodes, gpus in [(1000, 1000), (MAX_MOCK_RANKS + 1, 1), (1, MAX_MOCK_RANKS + 1)]:
            with pytest.raises(LaunchError, match="at most 64"):
                grid_plan(nodes, gpus)

    @pytest.mark.parametrize("key", ["", "1A", "A-B", "A B", "A=B"])
    def test_rejects_env_key_not_identifier(self, key):
        with pytest.raises(LaunchError, match="not a shell identifier"):
            grid_plan(1, 1, {key: "x"})
