"""hpcflow benchmark: one command, three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload job_lifecycle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout; the program under test is the
checkout's ``src/hpcflow``.  With ``--trace 0`` the workload is measured
end to end (CLI ops as child processes, library calls in one warm
worker) and the last stdout line is a JSON object with the end-to-end
metrics.  With ``--trace 1`` the ops of every workload are replayed
in-process with spans around hpcflow's public functions, and the JSON
holds the per-layer metrics.  ``--smoke`` runs every workload and the
traced replay briefly, on a smaller ladder, and exits 0 only if every
output checked out.  See README.md in this directory for the reasoning.
"""

from __future__ import annotations

import argparse
import compileall
import functools
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
import workloads as wl

WORKLOADS = ("job_lifecycle", "lint_ladder", "library_batch")
WORK = wl.ROOT / ".perfbench_work"
SETUP_REPS = 5
WORKER_DEADLINE_S = 120.0
LIBWORKER = Path(__file__).resolve().parent / "libworker.py"
TAIL_BEYOND = 10


class Failures:
    """Failed ops with their reasons; every one is listed, none filtered."""

    def __init__(self) -> None:
        self.items: list[str] = []
        self.count = 0

    def add(self, where: str, problems: list[str], times: int = 1) -> None:
        self.count += times
        suffix = f" (x{times})" if times > 1 else ""
        self.items.append(f"{where}{suffix}: " + "; ".join(problems))


# ------------------------------------------------------------ provenance

def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True)
    except OSError:
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "hpcflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# ------------------------------------------------------------ statistics

def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(ms: list[float], wall_s: float, rss_kb: int, setups: list[float],
               failed: int) -> dict:
    value, pct = tail(ms)
    return {
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_tail_ms": {"value": value, "unit": "ms", "percentile": round(pct, 3),
                       "samples": len(ms)},
        "ops_per_s": {"value": len(ms) / wall_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        "failed_op_ratio": {"value": failed / len(ms), "unit": "ratio",
                            "base": f"{failed} failed of {len(ms)} attempted"},
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "runs": [round(s, 4) for s in setups]},
    }


# ------------------------------------------------------------ CLI workloads

def compile_sources() -> None:
    """The .pyc compilation a fresh install pays once."""
    compileall.compile_dir(str(wl.SRC / "hpcflow"), force=True, quiet=1)


def build_rounds(workload: str, seed: int, work: Path, smoke: bool) -> list[list[wl.Op]]:
    if workload == "job_lifecycle":
        return wl.job_lifecycle_rounds(seed, work)
    return wl.lint_rounds(seed, work, smoke)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_cli(workload: str, seed: int, seconds: float, failures: Failures,
            smoke: bool) -> tuple[dict, dict]:
    env = wl.child_env()
    setups = []
    for _ in range(1 if smoke else SETUP_REPS):
        start = time.perf_counter()
        work = fresh_dir(WORK / workload)
        rounds = build_rounds(workload, seed, work, smoke)
        compile_sources()
        seen = set()
        for op in rounds[0]:  # one untimed run of each distinct command
            if op.kind not in seen:
                seen.add(op.kind)
                result = wl.spawn_op(op, env, work)
                if not result.ok:
                    failures.add(f"set-up {op.kind}", result.problems)
        setups.append(time.perf_counter() - start)

    results: list[wl.OpResult] = []
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < seconds:  # whole rounds keep the op mix fixed
        for op in rounds[r % len(rounds)]:
            result = wl.spawn_op(op, env, work)
            results.append(result)
            if not result.ok:
                failures.add(f"round {r} {op.kind} {' '.join(op.argv[2:4])}", result.problems)
        r += 1
    wall_s = time.perf_counter() - start
    metrics = end_to_end([x.ms for x in results], wall_s, max(x.rss_kb for x in results), setups,
                         sum(not x.ok for x in results))
    mocks = [x for x in results if x.kind == "run mock"]
    metrics["rank_failures"] = {"value": sum(wl.rank_failures(x.stdout) for x in mocks),
                                "unit": "count"}
    return metrics, by_kind(results, rounds)


def by_kind(results: list[wl.OpResult], rounds: list[list[wl.Op]]) -> dict:
    """Median ms and count per op kind and size, to read where the time goes."""
    groups: dict[str, list[float]] = {}
    ops = [op for ops in rounds for op in ops]
    flat = [ops[i % len(ops)] for i in range(len(results))]
    for op, result in zip(flat, results):
        if "ladder" in op.meta:
            label = f"{op.meta['ladder']} {op.meta['instructions']}x{op.meta['run_commands']}"
        else:
            label = f"{op.meta.get('ranks', '')}"
        groups.setdefault(f"{op.kind} {label}".strip(), []).append(result.ms)
    return {k: {"median_ms": round(statistics.median(v), 3), "n": len(v)}
            for k, v in sorted(groups.items())}


# ------------------------------------------------------------ library_batch

class Worker:
    """The warm library process; it answers one JSON line per request."""

    def __init__(self, plan_path: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(LIBWORKER), str(plan_path)], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=wl.child_env(), cwd=wl.ROOT, text=True,
        )
        self.ready = self.read(WORKER_DEADLINE_S)

    def read(self, deadline: float) -> dict:
        if not select.select([self.proc.stdout], [], [], deadline)[0]:
            self.close()
            raise RuntimeError(f"library worker gave no answer within {deadline:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"library worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request: dict, deadline: float) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.read(deadline)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd": "exit"}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def start_worker(seed: int, work: Path) -> tuple[Worker, list[dict]]:
    ops, expected = wl.library_plan(seed)
    plan = work / "plan.json"
    plan.write_text(json.dumps(ops), encoding="utf-8")
    worker = Worker(plan)
    if not Path(worker.ready["hpcflow"]).resolve().is_relative_to(wl.SRC):
        worker.close()
        raise RuntimeError(f"worker imported hpcflow from {worker.ready['hpcflow']}")
    return worker, expected


def check_library(reply: dict, expected: list[dict], failures: Failures) -> int:
    """Failed ops in a worker reply: wrong first outputs count on every round."""
    rounds = len(reply["ms"]) // reply["ops"]
    failed = 0
    for i, (want, got) in enumerate(zip(expected, reply["first"])):
        problems = wl.check_library_output(want, got)
        if problems:
            failed += rounds
            failures.add(f"chain {i} ({want['kind']})", problems, rounds)
    if reply["mismatches"]:
        failed += reply["mismatch_count"]
        failures.add("chains", reply["mismatches"], reply["mismatch_count"])
    return failed


def run_library(seed: int, seconds: float, failures: Failures, smoke: bool) -> tuple[dict, dict]:
    setups = []
    worker = None
    for _ in range(1 if smoke else SETUP_REPS):
        if worker is not None:
            worker.close()
        start = time.perf_counter()
        work = fresh_dir(WORK / "library_batch")
        compile_sources()
        worker, expected = start_worker(seed, work)
        setups.append(time.perf_counter() - start)
    try:
        reply = worker.ask({"cmd": "run", "seconds": seconds}, seconds + WORKER_DEADLINE_S)
    finally:
        worker.close()
    failed = check_library(reply, expected, failures)
    groups: dict[str, list[float]] = {}
    for i, ms in enumerate(reply["ms"]):
        want = expected[i % len(expected)]
        size = f" {want['summary'][2]}" if want["kind"] == "bench" else ""
        groups.setdefault(want["kind"] + size, []).append(ms)
    detail = {k: {"median_ms": round(statistics.median(v), 4), "n": len(v)}
              for k, v in sorted(groups.items())}
    return end_to_end(reply["ms"], reply["wall_s"], reply["peak_rss_kb"], setups, failed), detail


# ------------------------------------------------------------ traced run

def start_probes(times: int, failures: Failures) -> tuple[float, float, int]:
    """Median ms of a bare interpreter and of ``import hpcflow.cli``, interleaved.

    Returns the two medians and the number of probes run.
    """
    env, bare, imported = wl.child_env(), [], []
    clean = lambda code, out, err: wl._expect(code, 0, err, [])  # noqa: E731
    for _ in range(times):
        for argv, samples in ((["-c", "pass"], bare), (["-c", "import hpcflow.cli"], imported)):
            result = wl.spawn_op(wl.Op("probe", argv, clean), env, WORK, [sys.executable])
            if not result.ok:
                failures.add(f"start-up probe {argv[1]!r}", result.problems)
            samples.append(result.ms)
    return statistics.median(bare), statistics.median(imported), 2 * times


def _import_cli():
    if str(wl.SRC) not in sys.path:
        sys.path.insert(0, str(wl.SRC))
    from hpcflow import cli

    if not Path(cli.__file__).resolve().is_relative_to(wl.SRC):
        raise RuntimeError(f"hpcflow imported from {cli.__file__}, not from {wl.SRC}")
    return cli


def trace_cli(workload: str, seed: int, tracer: spans.Tracer, op_meta: dict,
              failures: Failures, smoke: bool) -> dict:
    """Untraced child-process sample, then untraced and traced in-process replays."""
    cli = _import_cli()
    work = fresh_dir(WORK / workload)
    rounds = build_rounds(workload, seed, work, smoke)
    if smoke:
        rounds = rounds[:1]
    env = wl.child_env()
    # the child-process sample: one lint round, or every job (a job is a round)
    sampled = [op for ops in rounds for op in ops] if workload == "job_lifecycle" else rounds[0]
    sample = [wl.spawn_op(op, env, work) for op in sampled]
    for op, result in zip(sampled, sample):
        if not result.ok:
            failures.add(f"traced-run sample {op.kind}", result.problems)
    for op in rounds[0]:  # warm this process: imports, first scipy call
        result = wl.call_op(op, cli.main)
        if not result.ok:
            failures.add(f"in-process warm-up {op.kind}", result.problems)

    # Each op runs untraced and traced back to back, the order alternating
    # from op to op, so the machine's drift falls on both sides alike.
    untraced_ms = traced_ms = 0.0
    ids = []
    for r, ops in enumerate(rounds):
        for op in ops:
            op_id = len(op_meta)
            op_meta[op_id] = dict(op.meta, workload=workload, kind=op.kind, round=r)
            for traced in ((False, True) if len(ids) % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                try:
                    result = wl.call_op(op, cli.main, tracer if traced else None, op_id)
                finally:
                    tracer.uninstall()
                if traced:
                    traced_ms += result.ms
                else:
                    untraced_ms += result.ms
                if not result.ok:
                    failures.add(f"in-process {op.kind}", result.problems)
            ids.append(op_id)
    return {
        "checked": len(sample) + len(rounds[0]) + 2 * len(ids),
        "sample_p50_ms": statistics.median(x.ms for x in sample),
        "sample_ops": len(sample),
        "sample_ids": ids[: len(sampled)],
        "untraced_ms": untraced_ms,
        "traced_ms": traced_ms,
        "rank_failures": sum(wl.rank_failures(x.stdout) for x in sample if x.kind == "run mock"),
    }


def trace_library(seed: int, failures: Failures, smoke: bool) -> dict:
    work = fresh_dir(WORK / "library_batch")
    worker, expected = start_worker(seed, work)
    try:
        reply = worker.ask({"cmd": "trace", "passes": 2 if smoke else 200,
                            "spans": str(work / "spans.jsonl")}, WORKER_DEADLINE_S)
    finally:
        worker.close()
    for i, (want, got) in enumerate(zip(expected, reply["first"])):
        problems = wl.check_library_output(want, got)
        if problems:
            failures.add(f"traced chain {i} ({want['kind']})", problems)
    reply["checked"] = len(expected)
    return reply


def per_layer(seed: int, failures: Failures, smoke: bool) -> tuple[dict, dict]:
    WORK.mkdir(exist_ok=True)
    interpreter, imported, probes = start_probes(1 if smoke else 7, failures)
    first_calls = []
    for _ in range(1 if smoke else 3):
        out = subprocess.run([sys.executable, str(LIBWORKER), "--first-call"], env=wl.child_env(),
                             cwd=wl.ROOT, check=True, capture_output=True, text=True).stdout
        first_calls.append(json.loads(out)["first_ms"])

    tracer = spans.Tracer()
    op_meta: dict[int, dict] = {}
    cli_runs = {w: trace_cli(w, seed, tracer, op_meta, failures, smoke)
                for w in ("job_lifecycle", "lint_ladder")}
    tracer.write(WORK / "cli_spans.jsonl")
    lib = trace_library(seed, failures, smoke)

    agg = spans.aggregate(tracer.spans)
    for name, entry in lib["aggregate"].items():
        mine = agg.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
        for key in mine:
            mine[key] += entry[key]
    counters = dict(tracer.counters)
    for key, value in lib["counters"].items():
        counters[key] = counters.get(key, 0) + value

    metrics: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    put("cli.interpreter_ms", interpreter, "ms")
    put("cli.import_ms", imported - interpreter, "ms")
    put("perf.summarize.first_call_ms", statistics.median(first_calls), "ms")
    for name in sorted(agg):
        entry = agg[name]
        put(f"{name}.calls", entry["calls"], "count")
        put(f"{name}.busy_ms", entry["busy_ms"], "ms")
        put(f"{name}.self_ms", entry["self_ms"], "ms")
    for key in ("dockerfile.lines_parsed", "lint.instructions_linted", "lint.findings",
                "perf.samples_parsed", "runner.ranks_spawned"):
        put(key, counters.get(key, 0), "count")
    # ranks that failed, from the traced calls and the sample's run mock tables
    put("runner.rank_failures", counters.get("runner.rank_failures", 0)
        + sum(run["rank_failures"] for run in cli_runs.values()), "count")

    # size-ladder slopes: log-log fit of busy time against input size
    points: dict[str, list] = {}
    for name, start, end, _, op, size in tracer.spans:
        if size is not None:
            points.setdefault(name, []).append((size, end - start, op_meta.get(op, {})))
    for name, pts in lib["points"].items():
        points.setdefault(name, []).extend((size, sec, {}) for size, sec in pts)

    def on_ladder(name: str, ladder: str, size_key: str | None = None) -> list:
        return [(meta[size_key] if size_key else size, sec)
                for size, sec, meta in points.get(name, []) if meta.get("ladder") == ladder]

    parse_pts = on_ladder("dockerfile.parse_dockerfile", "instructions")
    parse_pts += on_ladder("dockerfile.parse_dockerfile", "commands")
    slopes = {
        "dockerfile.parse_dockerfile.slope": parse_pts,
        "lint.lint.slope": on_ladder("lint.lint", "instructions"),
        "lint.lint.commands_slope": on_ladder("lint.lint", "commands", "run_commands"),
        "perf.parse_bench_log.slope": [(s, t) for s, t, _ in points.get("perf.parse_bench_log", [])],
        "perf.summarize.slope": [(s, t) for s, t, _ in points.get("perf.summarize", [])],
        "runner.mock_run_ranks.slope": [(s, t) for s, t, _ in points.get("runner.mock_run_ranks", [])],
    }
    for name, pts in slopes.items():
        put(name, spans.loglog_slope(pts), "1")
    ranks = [(s, t * 1e3) for s, t, _ in points.get("runner.mock_run_ranks", [])]
    put("runner.mock_run_ranks.ms_per_rank", spans.linear_slope(ranks), "ms")

    # what the spans explain of a child-process op, per CLI workload
    op_self = spans.op_self_ms(tracer.spans)
    for workload, run in cli_runs.items():
        # interpreter_ms + import_ms + the median op's summed span self time
        explained = imported + statistics.median(op_self.get(i, 0.0) for i in run["sample_ids"])
        put(f"{workload}.op_p50_ms", run["sample_p50_ms"], "ms")
        put(f"{workload}.explained_ms", explained, "ms")
        put(f"{workload}.unexplained_ms", run["sample_p50_ms"] - explained, "ms")

    untraced = sum(r["untraced_ms"] for r in cli_runs.values()) + lib["untraced_ms"]
    traced = sum(r["traced_ms"] for r in cli_runs.values()) + lib["traced_ms"]
    put("trace.overhead_ms", traced - untraced, "ms")
    put("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%")
    detail = {
        "checked": probes + sum(r["checked"] for r in cli_runs.values()) + lib["checked"],
        "replays": {w: {k: v for k, v in r.items() if k not in ("sample_ids", "checked")}
                    for w, r in cli_runs.items()},
        "library": {"untraced_ms": lib["untraced_ms"], "traced_ms": lib["traced_ms"]},
        "spans_written": [str(WORK / "cli_spans.jsonl"),
                          str(WORK / "library_batch" / "spans.jsonl")],
    }
    return metrics, detail


# ------------------------------------------------------------ entry point

def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    failures = Failures()
    prov = provenance(seed)
    started = time.perf_counter()
    if trace:
        metrics, detail = per_layer(seed, failures, smoke)
        attempted = detail["checked"]
        prov["tracing_overhead_ms"] = metrics["trace.overhead_ms"]["value"]
    else:
        run = run_library if workload == "library_batch" else functools.partial(run_cli, workload)
        metrics, detail = run(seed, seconds, failures, smoke)
        attempted = metrics["op_tail_ms"]["samples"]
    prov["loadavg_end"] = os.getloadavg()
    return {
        "workload": workload,
        "trace": trace,
        "wall_s": time.perf_counter() - started,
        "provenance": prov,
        "metrics": metrics,
        "detail": detail,
        "failures": failures.items,
        "failed": failures.count,
        "attempted": int(attempted),
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, names: list[str] | None) -> dict:
    """Print the metrics by name and unit; return the JSON result line."""
    mode = "traced" if result["trace"] else "untraced"
    print(f"# {result['workload']} ({mode}), seed {result['provenance']['seed']}, "
          f"{result['wall_s']:.1f} s")
    for name, m in result["metrics"].items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit")}
        note = f"  {extra}" if extra else ""
        print(f"  {name:<44} {_fmt(m['value']):>12} {m['unit']}{note}")
    print(f"# failed ops: {result['failed']} of {result['attempted']} attempted")
    for item in result["failures"]:
        print(f"  FAILED {item}")
    print("# provenance " + json.dumps(result["provenance"]))
    chosen = names if names is not None else list(result["metrics"])
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]}
                    for n in chosen if n in result["metrics"]},
    }


def benchmark_names(trace: bool) -> list[str] | None:
    spec = wl.ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    data = json.loads(spec.read_text(encoding="utf-8"))
    return [m["name"] for m in data["per_layer" if trace else "end_to_end"]]


def preflight() -> str | None:
    for needed in (wl.SRC / "hpcflow" / "cli.py", wl.FIXTURES / "golden", wl.FIXTURES / "profiles"):
        if not needed.exists():
            return f"missing {needed.relative_to(wl.ROOT)}: run from a full hpcflow checkout"
    return None


def smoke() -> int:
    ok = True
    for workload in WORKLOADS:
        result = measure(workload, 1, 1.0, False, smoke=True)
        report(result, None)
        ok &= result["failed"] == 0
    result = measure("job_lifecycle", 1, 1.0, True, smoke=True)
    report(result, None)
    ok &= result["failed"] == 0
    print("smoke:", "OK" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="brief run of everything")
    args = parser.parse_args(argv)
    problem = preflight()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    print(json.dumps(report(result, benchmark_names(bool(args.trace)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
