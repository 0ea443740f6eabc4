"""Warm library worker for the ``library_batch`` workload.

Usage: ``python libworker.py PLAN.json`` with hpcflow importable.  The
worker imports hpcflow once, runs every call chain of the plan once
(this pulls in the lazy scipy import), prints ``{"ready": ...}`` and
then answers one JSON command per stdin line:

* ``{"cmd": "run", "seconds": S}`` runs whole rounds of the plan, one
  chain at a time, until S seconds have passed;
* ``{"cmd": "trace", "passes": K, "spans": PATH}`` times K untraced and
  K traced passes and writes the spans to PATH;
* ``{"cmd": "exit"}``.

``python libworker.py --first-call`` instead times the first
``perf.summarize`` call of a fresh process, which includes the lazy
scipy import.
"""

from __future__ import annotations

import array
import json
import math
import resource
import sys
import time

from spans import Tracer, aggregate

import hpcflow
from hpcflow import dockerfile, launch, lint, perf, profiles, recon


def chain_lint(op):
    return lint.machine_report(lint.lint(dockerfile.parse_dockerfile(op["text"])))


def chain_job(op):
    cluster = profiles.parse_cluster_profile(op["profile"])
    spec = profiles.parse_env_spec(op["spec"])
    profiles.validate_profile(cluster)
    plan = recon.reconcile(spec, cluster, available_tags=op["tags"])
    r = op["request"]
    request = launch.JobRequest(
        nodes=r["nodes"], gpus_per_node=r["gpus_per_node"], container_name=r["container_name"],
        image_ref=plan.image_ref, workdir_mount=("$PWD", "/workdir"),
        user_command=tuple(r["user_command"]), job_name=r["job_name"], walltime=r["walltime"],
        extra_env=r["extra_env"],
    )
    script = launch.render_job_script(launch.plan_launch(cluster, plan, request), cluster, request)
    setup = launch.render_udocker_setup(plan, request.container_name)
    image = dockerfile.render_dockerfile(dockerfile.generate_dockerfile(spec))
    entry = recon.generate_entrypoint() if spec.strategy == "entrypoint" else None
    return {"script": script.text, "setup": setup, "dockerfile": image,
            "entrypoint": entry is not None}


def chain_bench(op):
    run = perf.parse_bench_log(op["text"], op["warmup"], gpus=op["gpus"])
    summary = perf.summarize(run)
    return [summary.mean, summary.ci95_half_width, summary.n]


def chain_predict(op):
    m = op["model"]
    link, intra = m["link_bandwidth"], m["intra_bandwidth"] or m["link_bandwidth"]
    latency = m["link_latency"]
    if m["ideal"]:
        link = intra = math.inf
        latency = 0.0
    inputs = perf.ScalingInputs(
        model=perf.ModelSpec("model", m["params"], m["batch"], m["bytes_per_param"]),
        single_gpu_images_per_sec=m["ips"], link_bandwidth=link, link_latency=latency,
        gpus_per_node=m["gpus_per_node"], intra_node_bandwidth=intra,
    )
    rows = []
    for p in range(1, m["p_max"] + 1):
        est = perf.predict(inputs, p)
        rows.append([est.predicted_images_per_sec, est.speedup,
                     est.comm_seconds_per_step, est.comp_seconds_per_step])
    return rows


CHAINS = {"lint": chain_lint, "job": chain_job, "bench": chain_bench, "predict": chain_predict}


def call(op):
    try:
        return CHAINS[op["kind"]](op)
    except Exception as exc:  # a failing chain is a failed op, reported with its reason
        return {"error": repr(exc)}


def run_rounds(ops, seconds):
    """Closed loop: one chain at a time, whole rounds, until time is up."""
    clock = time.perf_counter
    durations = array.array("d")  # compact, so the record adds little to the peak RSS
    first = [call(op) for op in ops]
    mismatches = []
    mismatch_count = 0
    begin = clock()
    stop = begin + seconds
    while clock() < stop:
        for i, op in enumerate(ops):
            start = clock()
            output = call(op)
            durations.append(clock() - start)
            if output != first[i]:
                mismatch_count += 1
                if len(mismatches) < 20:
                    mismatches.append(f"op {i} ({op['kind']}): output differs between rounds")
    wall_s = clock() - begin
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ms": [round(d * 1e3, 6) for d in durations],
        "wall_s": wall_s,
        "ops": len(ops),
        "first": first,
        "mismatches": mismatches,
        "mismatch_count": mismatch_count,
        "peak_rss_kb": peak_rss_kb,
    }


def trace_passes(ops, passes, spans_path):
    """Untraced and traced passes in turn, the order alternating, so drift cancels."""
    clock = time.perf_counter
    untraced = traced = 0.0
    tracer = Tracer()
    for p in range(passes):
        for with_spans in ((False, True) if p % 2 == 0 else (True, False)):
            if with_spans:
                tracer.install()
            try:
                outputs = []
                start = clock()
                for i, op in enumerate(ops):
                    tracer.op = i
                    outputs.append(call(op))
                elapsed = clock() - start
            finally:
                tracer.uninstall()
            if with_spans:
                traced += elapsed
            else:
                untraced += elapsed
    tracer.write(spans_path)
    points = {}
    for name, s, e, _, _, size in tracer.spans:
        if size is not None:
            points.setdefault(name, []).append([size, e - s])
    return {
        "untraced_ms": untraced * 1e3,
        "traced_ms": traced * 1e3,
        "first": outputs,
        "aggregate": aggregate(tracer.spans),
        "counters": dict(tracer.counters),
        "points": points,
    }


def first_call():
    text = "".join(f"iter {i}: {90 + i % 7}.5 images/sec\n" for i in range(1, 41))
    run = perf.parse_bench_log(text, 5)
    start = time.perf_counter()
    perf.summarize(run)
    first = time.perf_counter() - start
    start = time.perf_counter()
    perf.summarize(run)
    warm = time.perf_counter() - start
    print(json.dumps({"first_ms": first * 1e3, "warm_ms": warm * 1e3}))


def main(argv):
    if argv[:1] == ["--first-call"]:
        first_call()
        return 0
    with open(argv[0], encoding="utf-8") as f:
        ops = json.load(f)
    for op in ops:
        call(op)
    print(json.dumps({"ready": True, "hpcflow": hpcflow.__file__}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "run":
            reply = run_rounds(ops, request["seconds"])
        elif request["cmd"] == "trace":
            reply = trace_passes(ops, request["passes"], request["spans"])
        else:
            return 0
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
