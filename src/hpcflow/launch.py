"""Turn cluster + reconcile plan + job request into launch artifacts.

Produces the mpirun invocation (one rank per GPU), the batch script with
scheduler directives, the container setup command sequence, and the
runtime install script.  Everything here is pure rendering; nothing is
executed.
"""

from __future__ import annotations

import re
import shlex

from hpcflow.errors import LaunchError, Record
from hpcflow.profiles import CONTROL_CHAR_RE, ClusterProfile
from hpcflow.recon import ReconcilePlan, is_identifier

_WALLTIME_RE = re.compile(r"^\d{1,3}:\d{2}:\d{2}$")
_ENV_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# where a shell word can end without whitespace: operators and substitutions
_WORD_BREAK_RE = re.compile(r"[;&|`]|\$\(")
# the first word after each ``$(`` or backtick, even inside quotes
_SUBSTITUTED_WORD_RE = re.compile(r"(?:\$\(|`)\s*[\"']?([^\s;&|`()\"']+)")
# a launcher word written as it is: shlex's safe characters, ``^``, and
# $NAME or ${NAME} references, which the batch job expands
_PLAIN_WORD_RE = re.compile(r"(?:[\w@%+=:,./^-]|\$[A-Za-z_]\w*|\$\{[A-Za-z_]\w*\})+", re.ASCII)

# mpirun transport flags: NCCL carries GPU collectives, MPI the rest (the
# common Horovod launch pattern)
_TRANSPORT_ARGS = ("-mca", "pml", "ob1", "-mca", "btl", "^openib")
_USER_MAP_ARGS = ("--hostauth", "--user=$USER")
_UDOCKER_RELEASE_URL = (
    "https://github.com/indigo-dc/udocker/releases/download/1.3.17/udocker-1.3.17.tar.gz"
)

# commands that would need elevated rights; generated scripts must never
# contain any of these as a shell word
PRIVILEGED_TOKENS = frozenset({"sudo", "su", "doas", "pkexec", "setcap", "visudo"})

# the mock runtime spawns one local process per rank
MAX_MOCK_RANKS = 64


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

    ``env_exports`` maps variable names to values; a value of ``None``
    means the variable is forwarded from the submitting environment
    (``-x NAME`` only, no export line).
    """

    total_ranks: int
    slots_per_node: int
    mpirun_args: tuple[str, ...]
    env_exports: dict[str, str | None]
    udocker_run_args: tuple[str, ...]
    scheduler_directives: tuple[tuple[str, str], ...]


class JobScript(Record):
    text: str


def plan_launch(cluster: ClusterProfile, recon: ReconcilePlan, req: JobRequest) -> LaunchPlan:
    """Lay out one rank per GPU across the requested nodes.

    Raises:
        LaunchError: when the request exceeds the cluster's capacity, the
            container name is not an identifier, an ``extra_env`` key is
            not a shell identifier, the job name, partition or account
            holds a line break or control character, the walltime is not
            HH:MM:SS, or the
            user command is empty for a strategy whose image has no
            entrypoint to fall back on.
    """
    if req.nodes < 1 or req.gpus_per_node < 1:
        raise LaunchError("nodes and gpus_per_node must be >= 1")
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
    if not is_identifier(req.container_name):
        raise LaunchError(f"container name {req.container_name!r} is not an identifier")
    # each directive is one script line; a profile file is checked when parsed
    for what, value in (
        ("job name", req.job_name),
        ("partition", cluster.partition or ""),
        ("account", cluster.account or ""),
    ):
        if CONTROL_CHAR_RE.search(value):
            raise LaunchError(f"{what} {value!r} contains a line break or control character")
    _check_env_keys(req.extra_env)
    if not _WALLTIME_RE.match(req.walltime):
        raise LaunchError(f"walltime {req.walltime!r} is not HH:MM:SS")
    if not req.user_command and recon.strategy_used != "entrypoint":
        raise LaunchError(
            "user command is empty and the image has no version-installing "
            "entrypoint to fall back on"
        )

    total_ranks = req.nodes * req.gpus_per_node

    env_exports: dict[str, str | None] = {
        "NCCL_DEBUG": "INFO",
        "PATH": None,
        "LD_LIBRARY_PATH": None,
    }
    for key in sorted(req.extra_env):
        env_exports[key] = req.extra_env[key]

    mpirun_args = [
        "-np",
        str(total_ranks),
        "--map-by",
        f"ppr:{req.gpus_per_node}:node",
        "-bind-to",
        "none",
        *_TRANSPORT_ARGS,
    ]
    for key in env_exports:
        mpirun_args.extend(("-x", key))

    udocker_run_args = [
        *_USER_MAP_ARGS,
        f"--volume={req.workdir_mount[0]}:{req.workdir_mount[1]}",
        *(f"--volume={src}:{dst}" for src, dst in cluster.default_mounts),
        req.container_name,
        *recon.runtime_args,
        *req.user_command,
    ]

    directives = [
        ("job-name", req.job_name),
        ("nodes", str(req.nodes)),
        ("ntasks-per-node", str(req.gpus_per_node)),
        ("gres", f"gpu:{req.gpus_per_node}"),
        ("time", req.walltime),
    ]
    if cluster.partition is not None:
        directives.append(("partition", cluster.partition))
    if cluster.account is not None:
        directives.append(("account", cluster.account))

    return LaunchPlan(
        total_ranks=total_ranks,
        slots_per_node=req.gpus_per_node,
        mpirun_args=tuple(mpirun_args),
        env_exports=env_exports,
        udocker_run_args=tuple(udocker_run_args),
        scheduler_directives=tuple(directives),
    )


def grid_plan(
    nodes: int, gpus_per_node: int, env: dict[str, str | None] | None = None
) -> LaunchPlan:
    """A bare nodes x GPUs rank layout for the mock runtime.

    It has no launcher, container or scheduler arguments; ``env`` becomes
    ``env_exports``.

    Raises:
        LaunchError: when nodes or gpus_per_node is below 1, the grid has
            more than ``MAX_MOCK_RANKS`` ranks, or an ``env`` key is not a
            shell identifier.
    """
    if nodes < 1 or gpus_per_node < 1:
        raise LaunchError("nodes and gpus_per_node must be >= 1")
    if nodes * gpus_per_node > MAX_MOCK_RANKS:
        raise LaunchError(
            f"a {nodes} x {gpus_per_node} grid has {nodes * gpus_per_node} ranks; "
            f"the mock runtime spawns at most {MAX_MOCK_RANKS}"
        )
    _check_env_keys(env or {})
    return LaunchPlan(
        total_ranks=nodes * gpus_per_node,
        slots_per_node=gpus_per_node,
        mpirun_args=(),
        env_exports=dict(env or {}),
        udocker_run_args=(),
        scheduler_directives=(),
    )


def _check_env_keys(env: dict) -> None:
    for key in env:
        if not _ENV_KEY_RE.fullmatch(key):
            raise LaunchError(f"environment variable name {key!r} is not a shell identifier")


def _sh_word(word: str) -> str:
    return word if _PLAIN_WORD_RE.fullmatch(word) else shlex.quote(word)


def render_job_script(
    plan: LaunchPlan, cluster: ClusterProfile, req: JobRequest
) -> JobScript:
    """Render the batch script: directives, module loads, exports, launcher.

    Export values and the user's command are shell-quoted, so the script
    passes them through unchanged.  Every other launcher word, and each
    module name, is written as it is when it holds only safe characters
    and $NAME references, so ``$PWD`` and ``$USER`` still expand, and is
    shell-quoted otherwise.

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
        lines.append(f"#SBATCH --{key}={value}")
    for module in cluster.module_loads:
        lines.append(f"module load {_sh_word(module)}")
    for key, value in plan.env_exports.items():
        if value is not None:
            lines.append(f"export {key}={shlex.quote(value)}")
    # udocker_run_args ends with the user's command
    run_args = plan.udocker_run_args[: len(plan.udocker_run_args) - len(req.user_command)]
    launcher = " ".join(
        _sh_word(word)
        for word in ["mpirun", *plan.mpirun_args, cluster.container_runtime_path, "run", *run_args]
    )
    if req.user_command:
        launcher += " " + shlex.join(req.user_command)
    lines.append(launcher)
    return JobScript(text="\n".join(lines) + "\n")


def render_udocker_setup(recon: ReconcilePlan, container_name: str) -> list[list[str]]:
    """Command sequence that pulls, creates, and configures a container.

    For the entrypoint strategy a fourth command performs the first run,
    which installs the cluster's versions; other strategies need no
    install run.

    Raises:
        LaunchError: for container names that are not identifiers.
    """
    if not is_identifier(container_name):
        raise LaunchError(f"container name {container_name!r} is not an identifier")
    commands = [
        ["udocker", "pull", recon.image_ref],
        ["udocker", "create", f"--name={container_name}", recon.image_ref],
        ["udocker", "setup", "--nvidia", container_name],
    ]
    if recon.strategy_used == "entrypoint":
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


def find_privileged_tokens(text: str) -> list[str]:
    """Shell words in ``text`` that imply elevated rights (sorted, unique).

    Words are also split at ``; & |``, ``$(`` and backticks, so a command
    glued to an operator or inside a substitution is still seen, and the
    first word after each ``$(`` or backtick is checked even inside quotes
    (``echo "$(sudo id)"``).  The scan errs toward reporting: the
    single-quoted ``'$(sudo id)'``, which ``sh`` does not run, reports
    ``sudo`` too.
    """
    found = set()
    for line in text.splitlines():
        found.update(w for w in _SUBSTITUTED_WORD_RE.findall(line) if w in PRIVILEGED_TOKENS)
        try:
            words = shlex.split(line, posix=True)
        except ValueError:
            words = line.split()
        for word in words:
            found.update(w for w in _WORD_BREAK_RE.split(word) if w in PRIVILEGED_TOKENS)
    return sorted(found)
