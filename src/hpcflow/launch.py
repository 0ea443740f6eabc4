"""Turn cluster + reconcile plan + job request into launch artifacts.

Produces the mpirun invocation (one rank per GPU), the batch script with
scheduler directives, the container setup command sequence, and the
runtime install script.  Everything here is pure rendering; nothing is
executed.  A ``LaunchPlan`` is checked when it is built, however it is built.
"""

from __future__ import annotations

import re
import shlex

from hpcflow.errors import _VAR_NAME, CONTROL_CHAR, ImageRef, LaunchError, Record
from hpcflow.profiles import (
    _IDENTIFIER,
    _NAME_CHARS,
    _WALLTIME,
    PRIVILEGED_TOKENS,
    ClusterProfile,
    _directive,
    _sh_word,
    _volume,
)

# The annotation ``ReconcilePlan`` is ``hpcflow.recon.ReconcilePlan``, not
# imported so that ``run mock`` does not load the reconcile layer.

_NOT_NAME_CHAR = f"[^{_NAME_CHARS}]"

# mpirun transport flags: NCCL carries GPU collectives, MPI the rest (the
# common Horovod launch pattern)
_TRANSPORT_ARGS = ("-mca", "pml", "ob1", "-mca", "btl", "^openib")
_USER_MAP_ARGS = ("--hostauth", "--user=$USER")
_UDOCKER_RELEASE_URL = (
    "https://github.com/indigo-dc/udocker/releases/download/1.3.17/udocker-1.3.17.tar.gz"
)


class JobRequest(Record):
    """What the researcher wants to run and where."""

    nodes: int
    gpus_per_node: int
    container_name: str
    image_ref: str
    workdir_mount: tuple[str, str]
    user_command: tuple[str, ...]
    job_name: str = "hpcflow-job"
    walltime: str = "01:00:00"
    extra_env: dict[str, str] = {}

    def __post_init__(self) -> None:
        self.__dict__["extra_env"] = dict(self.extra_env)  # never the shared default


class LaunchPlan(Record):
    """Concrete process layout and argument lists for one job.

    ``env_exports`` maps variable names to values; the job script forwards
    every key with ``-x NAME`` and writes an export line for each value not
    ``None``.  ``udocker_run_args`` ends at the runtime arguments; the
    user's command comes from the ``JobRequest``.

    Building one raises ``LaunchError`` unless it has at least one rank and
    one slot per node, each layout word it holds (``-np``, ``--map-by``, and
    the ``nodes``, ``ntasks-per-node`` and ``gres`` directives) is the one
    ``_layout_words`` writes for the counts, every ``env_exports`` key is a
    shell identifier, and each scheduler directive is one line: no control
    character in it.
    """

    total_ranks: int
    slots_per_node: int
    mpirun_args: tuple[str, ...]
    env_exports: dict[str, str | None]
    udocker_run_args: tuple[str, ...]
    scheduler_directives: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if self.total_ranks < 1 or self.slots_per_node < 1:
            raise LaunchError("nodes and gpus_per_node must be >= 1")
        nodes, rest = divmod(self.total_ranks, self.slots_per_node)
        # no nodes word fits a partial node
        layout = _layout_words(self.total_ranks, self.slots_per_node, None if rest else nodes)
        args = self.mpirun_args
        present = [(f"{k} {v}", k, v) for k, v in zip(args, args[1:]) if k in ("-np", "--map-by")]
        present += [
            (_directive(k, v), k, v) for k, v in self.scheduler_directives
            if k in ("nodes", "ntasks-per-node", "gres")
        ]
        for shown, key, word in present:
            if word != layout[key]:
                raise LaunchError(
                    f"{shown!r} disagrees with {self.total_ranks} ranks at "
                    f"{self.slots_per_node} per node"
                )
        for key in self.env_exports:
            if not re.fullmatch(_VAR_NAME, key):
                raise LaunchError(f"environment variable name {key!r} is not a shell identifier")
        for key, value in self.scheduler_directives:
            line = _directive(key, value)
            if re.search(CONTROL_CHAR, line):
                raise LaunchError(f"directive {line!r} contains a line break or control character")


def _layout_words(total_ranks: int, slots_per_node: int, nodes: int | None) -> dict:
    """The word a plan writes for its layout after each ``mpirun`` flag and
    directive key that holds it; None where no word fits."""
    return {
        "-np": str(total_ranks),
        "--map-by": f"ppr:{slots_per_node}:node",
        "nodes": None if nodes is None else str(nodes),
        "ntasks-per-node": str(slots_per_node),
        "gres": f"gpu:{slots_per_node}",
    }


class JobScript(Record):
    text: str


def default_container_name(image_ref: str) -> str:
    """The image's name, each character a container name may not hold made
    ``-`` and a leading ``._-`` dropped; ``container`` if none is left or it
    is a privileged command."""
    name = re.sub(_NOT_NAME_CHAR, "-", ImageRef.parse(image_ref).name).lstrip("._-")
    return "container" if not name or name in PRIVILEGED_TOKENS else name


def _check_container_name(name: str) -> None:
    if not re.fullmatch(_IDENTIFIER, name):
        raise LaunchError(f"container name {name!r} is not an identifier")
    if name in PRIVILEGED_TOKENS:
        raise LaunchError(f"container name {name!r} names a privileged command")


def plan_launch(cluster: ClusterProfile, recon: ReconcilePlan, req: JobRequest) -> LaunchPlan:
    """Lay out one rank per GPU across the requested nodes.

    Raises:
        LaunchError: when the request exceeds the cluster's capacity, the
            container name is refused, the walltime is not HH:MM:SS, or
            the user command is empty and the plan has no ``runtime_args``
            (no entrypoint to fall back on).  ``LaunchPlan`` checks the
            counts, the ``extra_env`` keys and the directives, the job name
            among them; the cluster profile was checked when built.
    """
    if req.nodes > cluster.gpu_nodes:
        raise LaunchError(
            f"request needs {req.nodes} nodes but cluster {cluster.name} "
            f"has {cluster.gpu_nodes} GPU nodes"
        )
    if req.gpus_per_node > cluster.gpus_per_node:
        raise LaunchError(
            f"request needs {req.gpus_per_node} GPUs per node but cluster "
            f"{cluster.name} has {cluster.gpus_per_node}"
        )
    _check_container_name(req.container_name)
    if not re.fullmatch(_WALLTIME, req.walltime):
        raise LaunchError(f"walltime {req.walltime!r} is not HH:MM:SS")
    if not req.user_command and not recon.runtime_args:
        raise LaunchError(
            "user command is empty and the image has no version-installing "
            "entrypoint to fall back on"
        )

    total_ranks = req.nodes * req.gpus_per_node
    layout = _layout_words(total_ranks, req.gpus_per_node, req.nodes)

    env_exports: dict[str, str | None] = {
        "NCCL_DEBUG": "INFO",
        "PATH": None,
        "LD_LIBRARY_PATH": None,
    }
    for key in sorted(req.extra_env):
        env_exports[key] = req.extra_env[key]

    mpirun_args = (
        "-np",
        layout["-np"],
        "--map-by",
        layout["--map-by"],
        "-bind-to",
        "none",
        *_TRANSPORT_ARGS,
    )

    udocker_run_args = [
        *_USER_MAP_ARGS,
        *map(_volume, (req.workdir_mount, *cluster.default_mounts)),
        req.container_name,
        *recon.runtime_args,
    ]

    directives = [
        ("job-name", req.job_name),
        *((key, layout[key]) for key in ("nodes", "ntasks-per-node", "gres")),
        ("time", req.walltime),
    ]
    if cluster.partition is not None:
        directives.append(("partition", cluster.partition))
    if cluster.account is not None:
        directives.append(("account", cluster.account))

    return LaunchPlan(
        total_ranks=total_ranks,
        slots_per_node=req.gpus_per_node,
        mpirun_args=mpirun_args,
        env_exports=env_exports,
        udocker_run_args=tuple(udocker_run_args),
        scheduler_directives=tuple(directives),
    )


def grid_plan(
    nodes: int, gpus_per_node: int, env: dict[str, str | None] | None = None
) -> LaunchPlan:
    """A bare nodes x GPUs rank layout for the mock runtime.

    It has no launcher, container or scheduler arguments; ``env`` becomes
    ``env_exports``.  ``LaunchPlan`` checks the counts and the keys, and
    ``runner.mock_run_ranks`` the number of ranks it spawns.
    """
    return LaunchPlan(
        total_ranks=nodes * gpus_per_node,
        slots_per_node=gpus_per_node,
        mpirun_args=(),
        env_exports=dict(env or {}),
        udocker_run_args=(),
        scheduler_directives=(),
    )


def render_job_script(
    plan: LaunchPlan, cluster: ClusterProfile, req: JobRequest
) -> JobScript:
    """Render the batch script: directives, module loads, exports, launcher.

    The launcher line is ``mpirun``, the plan's ``mpirun_args``, ``-x NAME``
    per ``env_exports`` key, the run words and the request's command.
    Export values and the command are shell-quoted, so the script passes
    them through unchanged.  Every word of the plan, and each module name,
    is written as it is when it holds only safe characters and $NAME
    references, so ``$PWD`` and ``$USER`` still expand, and is shell-quoted
    otherwise.

    Raises:
        LaunchError: for scheduler 'none'; local execution goes through
            the mock runtime instead.
    """
    if cluster.scheduler == "none":
        raise LaunchError(
            f"cluster {cluster.name} has no batch scheduler; use the mock "
            "runtime for local execution"
        )
    lines = ["#!/bin/sh"]
    for key, value in plan.scheduler_directives:
        lines.append(f"#SBATCH {_directive(key, value)}")
    for module in cluster.module_loads:
        lines.append(f"module load {_sh_word(module)}")
    for key, value in plan.env_exports.items():
        if value is not None:
            lines.append(f"export {key}={shlex.quote(value)}")
    forwarded = [word for key in plan.env_exports for word in ("-x", key)]
    udocker_run = [cluster.container_runtime_path, "run", *plan.udocker_run_args]
    launcher = " ".join(map(_sh_word, ["mpirun", *plan.mpirun_args, *forwarded, *udocker_run]))
    if req.user_command:
        launcher += " " + shlex.join(req.user_command)
    lines.append(launcher)
    return JobScript(text="\n".join(lines) + "\n")


def render_udocker_setup(recon: ReconcilePlan, container_name: str) -> list[list[str]]:
    """Command sequence that pulls, creates, and configures a container.

    When the plan has ``runtime_args`` (the entrypoint strategy's version
    words) a fourth command performs the first run, which installs the
    cluster's versions; a plan without them needs no install run.

    Raises:
        LaunchError: for a container name that breaks the name rule or is a
            privileged command.
    """
    _check_container_name(container_name)
    commands = [
        ["udocker", "pull", recon.image_ref],
        ["udocker", "create", f"--name={container_name}", recon.image_ref],
        ["udocker", "setup", "--nvidia", container_name],
    ]
    if recon.runtime_args:
        commands.append(["udocker", "run", container_name, *recon.runtime_args])
    return commands


def render_install_script(prefix: str = "$HOME/.local/udocker") -> str:
    """Script installing the container runtime into a user-writable prefix.

    Downloads the udocker release tarball, extracts it, and prints the
    directory to prepend to PATH.  No step needs rights beyond the user's
    own.  ``prefix`` is quoted like a launcher word, so ``$HOME`` expands.
    """
    return f"""#!/bin/sh
# Install the rootless container runtime under a user-writable prefix.
set -eu

PREFIX={_sh_word(prefix)}
TARBALL=$PREFIX/udocker-release.tar.gz

mkdir -p "$PREFIX"
curl -L -o "$TARBALL" {_UDOCKER_RELEASE_URL}
tar -xzf "$TARBALL" -C "$PREFIX" --strip-components=1
rm -f "$TARBALL"
echo "prepend to PATH: $PREFIX"
"""
