"""Preview or simulate generated command sequences.

Provides the dry-run transcript of a command sequence and a local
multi-process rank launcher that reproduces the node x GPU process grid
with real subprocesses, at most ``MAX_MOCK_RANKS`` of them for any plan.
"""

from __future__ import annotations

import os
import shlex
import time

from hpcflow.errors import LaunchError, Record

# The annotation ``LaunchPlan`` is ``hpcflow.launch.LaunchPlan``, not
# imported: a module that builds plans has loaded it already.

# the mock runtime spawns one local process per rank
MAX_MOCK_RANKS = 64


def dry_run(commands: list[list[str]]) -> list[str]:
    """The transcript the real executor would see: one quoted command per line."""
    return [shlex.join(command) for command in commands]


class RankResult(Record):
    rank: int
    exit_code: int
    stdout: str = ""
    error: str | None = None

    @property
    def env(self) -> dict[str, str]:
        """The ``KEY=VALUE`` lines of ``stdout``; a later line wins."""
        env = {}
        for line in self.stdout.splitlines():
            key, eq, value = line.partition("=")
            if eq:
                env[key] = value
        return env


def env_dump_command() -> list[str]:
    """A rank command that prints its distribution environment as KEY=VALUE."""
    keys = ("RANK", "SIZE", "LOCAL_RANK", "NODE_INDEX")
    # ${KEY+"KEY=$KEY"} is one word when KEY is set and none otherwise;
    # printf '%s' writes backslashes and % as they are
    words = " ".join(f'${{{key}+"{key}=${key}"}}' for key in keys)
    return ["/bin/sh", "-c", f"printf '%s\\n' {words}"]


def mock_run_ranks(
    plan: LaunchPlan,
    rank_command: list[str],
    timeout: float = 60.0,
) -> list[RankResult]:
    """Spawn one local process per rank, concurrently, and collect results.

    Each rank gets RANK (0-based), SIZE, LOCAL_RANK (rank mod GPUs/node),
    NODE_INDEX (rank div GPUs/node) plus the plan's valued exports.  The
    result's ``env`` reads the KEY=VALUE lines the rank printed.  Spawn
    failures are reported per rank; the full list is always returned.

    ``timeout`` is one deadline for the whole call, not one per rank: each
    rank still running at the deadline is marked ``error="timeout"``.  Every
    rank runs in its own session, and at the deadline its whole process
    group is killed, so a child that holds the rank's output open cannot
    outlive the deadline either.

    Raises:
        LaunchError: before any process starts, when the plan has more than
            ``MAX_MOCK_RANKS`` ranks.
    """
    if plan.total_ranks > MAX_MOCK_RANKS:
        nodes, rest = divmod(plan.total_ranks, plan.slots_per_node)
        grid = "the plan" if rest else f"a {nodes} x {plan.slots_per_node} grid"
        raise LaunchError(
            f"{grid} has {plan.total_ranks} ranks; the mock runtime spawns at most {MAX_MOCK_RANKS}"
        )
    # imported here: ``job gen`` and ``run dry`` load this module for dry_run
    import signal
    import subprocess

    deadline = time.monotonic() + timeout
    # each rank's process, or the result of its failed spawn
    spawned: list[subprocess.Popen | RankResult] = []
    shared_env = dict(os.environ)
    shared_env.update((k, v) for k, v in plan.env_exports.items() if v is not None)
    for rank in range(plan.total_ranks):
        env = {
            **shared_env,
            "RANK": str(rank),
            "SIZE": str(plan.total_ranks),
            "LOCAL_RANK": str(rank % plan.slots_per_node),
            "NODE_INDEX": str(rank // plan.slots_per_node),
        }
        try:
            spawned.append(
                subprocess.Popen(
                    rank_command,
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                    start_new_session=True,
                )
            )
        except OSError as exc:
            spawned.append(RankResult(rank=rank, exit_code=127, error=str(exc)))

    results = []
    for rank, proc in enumerate(spawned):
        if isinstance(proc, RankResult):
            results.append(proc)
            continue
        error = None
        try:
            stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
        except subprocess.TimeoutExpired:
            # a rank that had already exited when its turn came is no timeout
            if proc.poll() is None:
                error = "timeout"
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # the rank and its children are gone
                pass
            stdout, _ = proc.communicate()
        results.append(
            RankResult(rank=rank, exit_code=proc.returncode, stdout=stdout or "", error=error)
        )
    return results
