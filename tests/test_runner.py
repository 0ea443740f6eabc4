from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcflow.launch import grid_plan
from hpcflow.recon import reconcile
from hpcflow.runner import (
    _parse_env_lines,
    all_ranks_succeeded,
    dry_run,
    env_dump_command,
    mock_run_ranks,
)

# the Python rank program that the default ``/bin/sh`` command replaced,
# kept as the reference for what the rank prints
_PYTHON_ENV_DUMP = [
    sys.executable,
    "-I",
    "-S",
    "-c",
    "import os\n"
    "for key in ('RANK', 'SIZE', 'LOCAL_RANK', 'NODE_INDEX'):\n"
    "    if key in os.environ:\n"
    "        print(f'{key}={os.environ[key]}')\n",
]
_GRID_ENV = {"RANK": "3", "SIZE": "8", "LOCAL_RANK": "1", "NODE_INDEX": "1"}


def _alive(pid: int, grace: float = 0.5) -> bool:
    """Whether ``pid`` still runs after ``grace`` seconds; a killed orphan
    may linger as a zombie until it is reaped, which counts as dead."""
    end = time.monotonic() + grace
    while True:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except FileNotFoundError:
            return False
        if stat.rpartition(")")[2].split()[0] == "Z":
            return False
        if time.monotonic() > end:
            return True
        time.sleep(0.01)


class TestDryRun:
    def test_setup_sequence_transcript(self, csic_profile, entrypoint_spec):
        from hpcflow.launch import render_udocker_setup

        plan = reconcile(entrypoint_spec, csic_profile)
        commands = render_udocker_setup(plan, "tfbench")
        transcript = dry_run(commands)
        assert len(transcript) == 4
        assert transcript[0].startswith("udocker pull ")
        assert transcript[-1] == "udocker run tfbench 4.0.1 0.21.3"

    def test_empty(self):
        assert dry_run([]) == []

    def test_byte_identical_across_calls(self):
        commands = [["echo", "a b"], ["udocker", "pull", "x:1"]]
        assert dry_run(commands) == dry_run(commands)


class TestMockRunRanks:
    def test_2x2_rank_grid(self):
        results = mock_run_ranks(grid_plan(2, 2), env_dump_command())
        assert [r.rank for r in results] == [0, 1, 2, 3]
        assert [r.env["RANK"] for r in results] == ["0", "1", "2", "3"]
        assert [r.env["LOCAL_RANK"] for r in results] == ["0", "1", "0", "1"]
        assert [r.env["NODE_INDEX"] for r in results] == ["0", "0", "1", "1"]
        assert all(r.env["SIZE"] == "4" for r in results)
        assert all_ranks_succeeded(results)

    def test_1x1(self):
        (result,) = mock_run_ranks(grid_plan(1, 1), env_dump_command())
        assert result.env["RANK"] == "0"
        assert result.env["SIZE"] == "1"

    def test_failing_rank_collected_with_others(self):
        command = [
            sys.executable,
            "-c",
            "import os, sys; sys.exit(1 if os.environ['RANK'] == '1' else 0)",
        ]
        results = mock_run_ranks(grid_plan(2, 2), command)
        assert len(results) == 4
        assert not all_ranks_succeeded(results)
        assert [r.exit_code for r in results] == [0, 1, 0, 0]

    def test_env_exports_with_values_forwarded(self):
        plan = grid_plan(1, 2, env={"FOO": "bar", "PATH": None})
        command = [sys.executable, "-I", "-S", "-c", "import os; print('FOO=' + os.environ['FOO'])"]
        results = mock_run_ranks(plan, command)
        assert all(r.env["FOO"] == "bar" for r in results)

    def test_spawn_failure_reported_per_rank(self):
        results = mock_run_ranks(grid_plan(1, 2), ["/nonexistent/binary"])
        assert len(results) == 2
        assert all(r.exit_code == 127 and r.error for r in results)

    def test_one_deadline_for_all_hung_ranks(self):
        # with a 2 s timeout per rank in turn, three hung ranks take 6 s
        command = [sys.executable, "-I", "-S", "-c", "import time; time.sleep(30)"]
        start = time.monotonic()
        results = mock_run_ranks(grid_plan(1, 3), command, timeout=2)
        assert time.monotonic() - start < 5
        assert [r.error for r in results] == ["timeout"] * 3
        assert all(r.exit_code != 0 for r in results)

    def test_ranks_done_before_deadline_are_not_timeouts(self):
        # rank 0 holds the collection loop until the deadline; ranks 1 and 2
        # exited long before it and are collected after it
        command = [
            sys.executable,
            "-I",
            "-S",
            "-c",
            "import os, time; time.sleep(30 if os.environ['RANK'] == '0' else 0)",
        ]
        results = mock_run_ranks(grid_plan(1, 3), command, timeout=2)
        assert [r.error for r in results] == ["timeout", None, None]
        assert [r.exit_code for r in results][1:] == [0, 0]

    def test_deadline_bounds_a_child_holding_the_output_open(self):
        # the rank exits at once, but its background child keeps stdout open
        command = ["sh", "-c", "sleep 3 & echo $!"]
        start = time.monotonic()
        (result,) = mock_run_ranks(grid_plan(1, 1), command, timeout=1)
        assert time.monotonic() - start < 2.5
        assert result.error is None
        assert result.exit_code == 0
        assert not _alive(int(result.stdout))

    def test_env_dump_starts_no_python(self):
        command = env_dump_command()
        assert command[:2] == ["/bin/sh", "-c"]
        assert not any(sys.executable in word for word in command)

    @pytest.mark.parametrize(
        "env",
        [
            _GRID_ENV,
            {"RANK": "0", "NODE_INDEX": "2"},
            {"SIZE": "4", "OTHER": "x"},
            {},
            {"RANK": "a b", "SIZE": "k=v=w", "LOCAL_RANK": "C:\\n\\t\\", "NODE_INDEX": "%s %d %%"},
            {"RANK": "", "LOCAL_RANK": "  two  spaces ", "NODE_INDEX": "*"},
        ],
        ids=["all", "some", "one", "none", "odd-values", "empty-and-glob"],
    )
    def test_env_dump_matches_the_python_program(self, env):
        def dump(command):
            child = subprocess.run(command, env=env, capture_output=True, text=True, timeout=30)
            assert (child.returncode, child.stderr) == (0, "")
            return _parse_env_lines(child.stdout)

        expected = dump(_PYTHON_ENV_DUMP)
        assert expected == {k: v for k, v in env.items() if k in _GRID_ENV}
        assert dump(env_dump_command()) == expected

    @settings(max_examples=8, deadline=None)
    @given(nodes=st.integers(1, 3), gpus=st.integers(1, 3))
    def test_grid_cover_property(self, nodes, gpus):
        results = mock_run_ranks(grid_plan(nodes, gpus), env_dump_command())
        grid = {(r.env["NODE_INDEX"], r.env["LOCAL_RANK"]) for r in results}
        expected = {(str(n), str(g)) for n in range(nodes) for g in range(gpus)}
        assert grid == expected
