from __future__ import annotations

import sys
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hpcflow.launch import grid_plan
from hpcflow.recon import reconcile
from hpcflow.runner import (
    all_ranks_succeeded,
    dry_run,
    env_dump_command,
    mock_run_ranks,
)


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
        results = mock_run_ranks(plan, env_dump_command(extra_keys=("FOO",)))
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

    def test_env_dump_skips_site(self):
        assert env_dump_command()[1:3] == ["-I", "-S"]

    @settings(max_examples=8, deadline=None)
    @given(nodes=st.integers(1, 3), gpus=st.integers(1, 3))
    def test_grid_cover_property(self, nodes, gpus):
        results = mock_run_ranks(grid_plan(nodes, gpus), env_dump_command())
        grid = {(r.env["NODE_INDEX"], r.env["LOCAL_RANK"]) for r in results}
        expected = {(str(n), str(g)) for n in range(nodes) for g in range(gpus)}
        assert grid == expected
