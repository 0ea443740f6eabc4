"""Seeded benchmark inputs and the outputs they must produce.

Every expectation here is derived without importing hpcflow: lint labels
come from where the generator planted each smell, job layouts from the
closed-form rank grid, benchmark statistics from exact rational
arithmetic plus a Student-t quantile computed below, and the scaling
table from the ring all-reduce formula written out again.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------- lint

SEVERITY = {"TF1": "error", "TF2": "warning", "TF3": "warning", "P1": "warning", "E1": "info"}


@dataclass
class DockerfileCase:
    """Dockerfile text plus the (rule, line) findings planted in it."""

    name: str
    text: str
    labels: list[tuple[str, int]]
    instructions: int
    run_commands: int  # commands in the largest RUN
    ladder: str  # "corpus", "instructions" or "commands"

    def expected_findings(self) -> list[tuple[str, str, int]]:
        """Findings in report order: by line, then rule id."""
        return sorted(
            ((rule, SEVERITY[rule], line) for rule, line in self.labels),
            key=lambda f: (f[2], f[0]),
        )

    def expected_exit(self) -> int:
        return 3 if any(rule == "TF1" for rule, _ in self.labels) else 0


class _DockerfileWriter:
    """Appends instructions and remembers the line each one starts on."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.labels: list[tuple[str, int]] = []
        self.instructions = 0
        self.run_commands = 1

    def add(self, *physical: str, smell: str | None = None) -> None:
        if smell is not None:
            self.labels.append((smell, len(self.lines) + 1))
        self.lines.extend(physical)
        self.instructions += 1

    def comment(self, text: str) -> None:
        self.lines.append(f"# {text}")
        self.instructions += 1  # the parser keeps comments as nodes

    def case(self, name: str, ladder: str) -> DockerfileCase:
        return DockerfileCase(
            name=name,
            text="\n".join(self.lines) + "\n",
            labels=list(self.labels),
            instructions=self.instructions,
            run_commands=self.run_commands,
            ladder=ladder,
        )


_PINNED_BASES = ("ubuntu:20.04", "python:3.10-slim", "debian:11.6", "nvidia/cuda:11.8.0-base")
_UNPINNED_BASES = ("ubuntu", "ubuntu:latest", "python", "alpine:latest")


class _SmellPlanter:
    """Writes one smell shape from the lint corpus, or a clean filler.

    Shapes that create a file and remove it later are split in two: the
    creating RUN is written now and the removing RUN is queued, so the
    later layer that triggers TF1 comes after unrelated instructions.
    """

    def __init__(self, rng: random.Random, out: _DockerfileWriter) -> None:
        self.rng = rng
        self.out = out
        self.serial = 0
        self.pending: list[tuple[tuple[str, ...], str | None]] = []

    def _next(self) -> int:
        self.serial += 1
        return self.serial

    def filler(self) -> None:
        k = self._next()
        shape = self.rng.randrange(6)
        if shape == 0:
            self.out.add(f"RUN echo step{k} > /srv/log/step{k}.txt")
        elif shape == 1:
            self.out.add(f"ENV STEP_{k}=value{k}")
        elif shape == 2:
            self.out.add(f"WORKDIR /srv/work{k}")
        elif shape == 3:
            self.out.add(f"COPY src{k}.py /app/src{k}.py")
        elif shape == 4:
            self.out.add(f"RUN mkdir -p /srv/dir{k} && chmod 755 /srv/dir{k}")
        else:
            self.out.add(f"LABEL stage{k}=build{k}")

    def smell(self) -> None:
        k = self._next()
        shape = self.rng.randrange(9)
        add = self.out.add
        if shape == 0:  # 01: wget, later rm
            add(f"RUN wget http://example.com/a{k}.tgz")
            self.pending.append(((f"RUN rm a{k}.tgz",), "TF1"))
        elif shape == 1:  # 03: curl -o, later rm -rf
            add(f"RUN curl -o /tmp/tool{k}.tgz http://example.com/tool{k}.tgz")
            self.pending.append(((f"RUN rm -rf /tmp/tool{k}.tgz",), "TF1"))
        elif shape == 2:  # 11: extract dir, removed later
            add(
                f"RUN wget -O /tmp/pkg{k}.tgz http://example.com/pkg{k}.tgz"
                f" && tar xzf /tmp/pkg{k}.tgz -C /srv/tool{k} && rm /tmp/pkg{k}.tgz"
            )
            self.pending.append(((f"RUN rm -rf /srv/tool{k}",), "TF1"))
        elif shape == 3:  # 04: archive copied, extracted in another layer
            add(f"COPY bundle{k}.tar.gz /srv/", smell="TF2")
            self.pending.append(((f"RUN tar xzf /srv/bundle{k}.tar.gz",), None))
        elif shape == 4:  # 05: apt without cleanup
            add(f"RUN apt-get update && apt-get install -y pkg{k}", smell="TF3")
        elif shape == 5:  # 13: pip without --no-cache-dir
            add(f"RUN pip install mod{k}==1.{k}", smell="TF3")
        elif shape == 6:  # 06: apt with cleanup (clean)
            add(
                f"RUN apt-get update && apt-get install -y lib{k}"
                " && rm -rf /var/lib/apt/lists/*"
            )
        elif shape == 7:  # 02: same-layer delete (clean)
            add(f"RUN wget http://example.com/s{k}.tgz && tar xzf s{k}.tgz && rm s{k}.tgz")
        else:  # 15: archive copied, never extracted (clean)
            add(f"COPY data{k}.tar.gz /data/data{k}.tar.gz")

    def flush_one(self) -> bool:
        if not self.pending:
            return False
        physical, smell = self.pending.pop(0)
        self.out.add(*physical, smell=smell)
        return True

    def flush_all(self) -> None:
        while self.flush_one():
            pass


def _header(rng: random.Random, out: _DockerfileWriter) -> None:
    if rng.random() < 0.5:
        out.add(f"FROM {rng.choice(_UNPINNED_BASES)}", smell="P1")
    else:
        out.add(f"FROM {rng.choice(_PINNED_BASES)}")


def _tail(rng: random.Random, out: _DockerfileWriter) -> None:
    shape = rng.randrange(3)
    if shape == 0:  # 09: ENTRYPOINT without CMD
        out.add('ENTRYPOINT ["python"]', smell="E1")
    elif shape == 1:  # 10: ENTRYPOINT with CMD (clean)
        out.add('ENTRYPOINT ["python", "/app/app.py"]')
        out.add('CMD ["--help"]')
    # shape 2: no entrypoint at all


def instruction_dockerfile(rng: random.Random, name: str, instructions: int) -> DockerfileCase:
    """About ``instructions`` one-line instructions, one smell shape in four."""
    out = _DockerfileWriter()
    planter = _SmellPlanter(rng, out)
    _header(rng, out)
    if instructions > 40:
        out.comment(f"generated ladder rung, {instructions} instructions")
    while out.instructions < instructions - 3:
        roll = rng.random()
        if roll < 0.25:
            planter.smell()
        elif roll < 0.4 and planter.flush_one():
            pass
        else:
            planter.filler()
    planter.flush_all()
    _tail(rng, out)
    return out.case(name, "corpus" if instructions <= 40 else "instructions")


def run_dockerfile(rng: random.Random, name: str, commands: int) -> DockerfileCase:
    """One RUN of ``commands`` commands, one per continuation line.

    The RUN downloads and extracts archives and removes the downloads in
    the same layer (clean); later RUNs remove some extracted directories,
    which is TF1.  A package install without cleanup inside the big RUN
    makes it TF3 on some seeds.
    """
    out = _DockerfileWriter()
    _header(rng, out)
    parts: list[str] = []
    extracted: list[int] = []
    apt = rng.random() < 0.5
    for k in range(commands):
        shape = k % 4
        if shape == 0:
            parts.append(f"wget -O /tmp/c{k}.tgz http://example.com/c{k}.tgz")
        elif shape == 1:
            parts.append(f"tar -xzf /tmp/c{k - 1}.tgz -C /srv/x{k - 1}")
            extracted.append(k - 1)
        elif shape == 2:
            parts.append(f"rm -f /tmp/c{k - 2}.tgz")
        else:
            parts.append(f"echo unpacked{k}")
    if apt:
        parts[commands // 2] = "apt-get install -y buildtool"
        extracted = [k for k in extracted if k + 1 != commands // 2]
    physical = [f"RUN {parts[0]} \\"]
    physical += [f"    && {p} \\" for p in parts[1:-1]]
    physical.append(f"    && {parts[-1]}")
    out.add(*physical, smell="TF3" if apt else None)
    out.run_commands = commands
    removed = rng.sample(extracted, min(3, len(extracted)))
    for k in sorted(removed):
        out.add(f"RUN rm -rf /srv/x{k}", smell="TF1")
    _tail(rng, out)
    return out.case(name, "commands")


# ------------------------------------------------------ profiles, specs, jobs

@dataclass
class Cluster:
    name: str
    gpus_per_node: int
    gpu_nodes: int
    openmpi: str
    runtime: str
    module_loads: tuple[str, ...]
    partition: str | None
    account: str | None
    mounts: tuple[tuple[str, str], ...]
    unknown_keys: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"# generated cluster {self.name}", "[cluster]"]
        lines += [
            f"name = {self.name}",
            "scheduler = slurm",
            f"gpus_per_node = {self.gpus_per_node}",
            f"gpu_nodes = {self.gpu_nodes}",
            f"openmpi_version = {self.openmpi}",
            f"container_runtime_path = {self.runtime}",
        ]
        if self.module_loads:
            lines.append(f"module_loads = {', '.join(self.module_loads)}")
        if self.partition:
            lines.append(f"partition = {self.partition}")
        if self.account:
            lines.append(f"account = {self.account}")
        if self.mounts:
            lines.append("default_mounts = " + ", ".join(f"{s}:{d}" for s, d in self.mounts))
        for key in self.unknown_keys:
            lines.append(f"{key} = x")
        return "\n".join(lines) + "\n"

    def validate_stdout(self) -> str:
        if self.unknown_keys:
            return "".join(f"warning: unknown key {k!r} ignored\n" for k in self.unknown_keys)
        return f"profile {self.name}: OK\n"


# The two fixture clusters of the test suite, as the tests ship them.
FIXTURE_CLUSTERS = {
    "csic": Cluster(
        "csic-dl", 2, 20, "4.0.1", "/home/researcher/.local/udocker/udocker",
        ("openmpi/4.0.1",), "gpu", None, (("/scratch", "/scratch"),),
    ),
    "forhlr2": Cluster(
        "forhlr2", 4, 21, "4.0.2", "/home/researcher/.local/udocker/udocker",
        ("compiler/gnu/8.3", "mpi/openmpi/4.0"), "accelerated", "hk-project",
        (("/lustre", "/lustre"),),
    ),
}


@dataclass
class Spec:
    strategy: str
    base_image: str  # as written in the spec file
    horovod: str
    openmpi: str | None
    packages: tuple[str, ...]
    copies: tuple[tuple[str, str], ...]
    entrypoint_path: str | None
    registry: str | None = None

    def render(self) -> str:
        lines = ["# generated environment", "[environment]"]
        lines.append(f"base_image = {self.base_image}")
        lines.append(f"strategy = {self.strategy}")
        if self.openmpi is not None:
            lines.append(f"openmpi_version = {self.openmpi}")
        lines.append(f"horovod_version = {self.horovod}")
        if self.packages:
            lines.append(f"system_packages = {', '.join(self.packages)}")
        if self.copies:
            lines.append("code_copies = " + ", ".join(f"{s}:{d}" for s, d in self.copies))
        if self.entrypoint_path:
            lines.append(f"entrypoint_path = {self.entrypoint_path}")
        if self.registry:
            lines.append(f"registry = {self.registry}")
        return "\n".join(lines) + "\n"

    @property
    def normalized_base(self) -> str:
        if "@" in self.base_image:
            return self.base_image
        last = self.base_image.rsplit("/", 1)[-1]
        return self.base_image if ":" in last else self.base_image + ":latest"


FIXTURE_ENTRYPOINT_SPEC = Spec(
    "entrypoint", "nvidia/cuda:10.1-cudnn7-devel-ubuntu18.04", "0.21.3", "4.0.1",
    ("wget", "git"), (("train.py", "/workspace/train.py"),), "/usr/local/bin/entry.sh",
)


@dataclass
class Job:
    """One user's lifecycle on one cluster with one environment."""

    cluster: Cluster
    spec: Spec
    nodes: int
    gpus_per_node: int
    job_name: str
    walltime: str
    container: str
    tags: tuple[str, ...] | None
    env: tuple[tuple[str, str], ...]
    user_command: tuple[str, ...]
    golden: str | None = None  # the expected job.sh text, for a fixture job
    profile_text: str | None = None  # the fixture files, verbatim, for a fixture job
    spec_text: str | None = None

    def image_ref(self) -> str:
        spec = self.spec
        if spec.strategy == "tags":
            base = spec.normalized_base
            head, sep, last = base.rpartition("/")
            repo = last.rsplit(":", 1)[0] if ":" in last else last
            major, minor = self.cluster.openmpi.split(".")[:2]
            wanted = f"ompi{major}.{minor}"
            tag = min(t for t in self.tags or () if t == wanted or t.startswith(wanted + "-"))
            ref = f"{head}{sep}{repo}:{tag}"
        else:
            ref = spec.normalized_base
        if spec.registry and spec.registry != "docker.io":
            ref = f"{spec.registry}/{ref}"
        return ref

    def runtime_args(self) -> tuple[str, ...]:
        if self.spec.strategy == "entrypoint":
            return (self.cluster.openmpi, self.spec.horovod)
        return ()

    def setup_commands(self) -> list[list[str]]:
        ref = self.image_ref()
        commands = [
            ["udocker", "pull", ref],
            ["udocker", "create", f"--name={self.container}", ref],
            ["udocker", "setup", "--nvidia", self.container],
        ]
        if self.spec.strategy == "entrypoint":
            commands.append(["udocker", "run", self.container, *self.runtime_args()])
        return commands

    def job_lines(self) -> list[str]:
        """Every line of the batch script except the launcher."""
        n, g, c = self.nodes, self.gpus_per_node, self.cluster
        lines = [
            "#!/bin/sh",
            f"#SBATCH --job-name={self.job_name}",
            f"#SBATCH --nodes={n}",
            f"#SBATCH --ntasks-per-node={g}",
            f"#SBATCH --gres=gpu:{g}",
            f"#SBATCH --time={self.walltime}",
        ]
        if c.partition:
            lines.append(f"#SBATCH --partition={c.partition}")
        if c.account:
            lines.append(f"#SBATCH --account={c.account}")
        lines += [f"module load {m}" for m in c.module_loads]
        lines.append("export NCCL_DEBUG=INFO")
        lines += [f"export {k}={v}" for k, v in sorted(self.env)]
        return lines

    def launcher_tokens(self) -> list[str]:
        n, g, c = self.nodes, self.gpus_per_node, self.cluster
        tokens = [
            "mpirun", "-np", str(n * g), "--map-by", f"ppr:{g}:node", "-bind-to", "none",
            "-mca", "pml", "ob1", "-mca", "btl", "^openib",
        ]
        for key in ["NCCL_DEBUG", "PATH", "LD_LIBRARY_PATH", *sorted(k for k, _ in self.env)]:
            tokens += ["-x", key]
        tokens += [c.runtime, "run", "--hostauth", "--user=$USER", "--volume=$PWD:/workdir"]
        tokens += [f"--volume={s}:{d}" for s, d in c.mounts]
        tokens += [self.container, *self.runtime_args(), *self.user_command]
        return tokens


def _semver(rng: random.Random) -> str:
    return f"4.{rng.choice((0, 1))}.{rng.randrange(1, 6)}"


def _generated_cluster(rng: random.Random, k: int) -> Cluster:
    like = FIXTURE_CLUSTERS["csic" if k % 2 == 0 else "forhlr2"]
    openmpi = _semver(rng)
    return Cluster(
        name=f"{like.name}-{k}",
        gpus_per_node=like.gpus_per_node,
        gpu_nodes=rng.randrange(4, 64),
        openmpi=openmpi,
        runtime=f"/home/user{k}/.local/udocker/udocker",
        module_loads=(f"openmpi/{openmpi}",) + (("cuda/11.8",) if rng.random() < 0.5 else ()),
        partition=rng.choice((None, "gpu", "accelerated")),
        account=rng.choice((None, f"proj{k}")),
        mounts=((f"/scratch{k}", "/scratch"),) if rng.random() < 0.7 else (),
        unknown_keys=("site",) if rng.random() < 0.3 else (),
    )


def _generated_spec(rng: random.Random, strategy: str, cluster: Cluster, k: int) -> Spec:
    horovod = f"0.{rng.choice((21, 22, 28))}.{rng.randrange(0, 4)}"
    packages = tuple(rng.sample(("wget", "git", "curl", "vim", "cmake"), rng.randrange(0, 3)))
    copies = ((f"train{k}.py", f"/workspace/train{k}.py"),)
    registry = rng.choice((None, None, "registry.example.org"))
    if strategy == "tags":
        base = rng.choice(("example/horovod-multi", "lab/train-base:base", "lab/train-base"))
        return Spec("tags", base, horovod, None, packages, copies, None, registry)
    if strategy == "ngc":
        major, minor = cluster.openmpi.split(".")[:2]
        base = f"nvcr.io/nvidia/tensorflow:2{rng.randrange(0, 3)}.0{rng.randrange(1, 9)}-tf2-py3"
        # a stated patch level must equal the cluster's to match
        openmpi = cluster.openmpi if rng.random() < 0.3 else f"{major}.{minor}"
        return Spec("ngc", base, horovod, openmpi, packages, copies, None)
    base = rng.choice(("nvidia/cuda:11.8.0-devel-ubuntu22.04", "ubuntu:22.04", "ubuntu"))
    return Spec("entrypoint", base, horovod, _semver(rng), packages, copies,
                f"/usr/local/bin/entry{k}.sh", registry)


def _tags_for(cluster: Cluster, rng: random.Random) -> tuple[str, ...]:
    major, minor = cluster.openmpi.split(".")[:2]
    tags = [f"ompi{major}.{minor}", f"ompi{major}.{minor}-slim", "latest", "ompi3.1", "ompi4.9"]
    rng.shuffle(tags)
    return tuple(tags)


def fixture_jobs(fixture_dir) -> list[Job]:
    """The two golden jobs of the test suite, on their fixture files."""
    def read(rel: str) -> str:
        return (fixture_dir / rel).read_text(encoding="utf-8")

    entry = read("specs/entrypoint.spec")
    return [
        Job(FIXTURE_CLUSTERS["csic"], FIXTURE_ENTRYPOINT_SPEC, 2, 2,
            "tfbench", "02:00:00", "tfbench", None, (), ("python", "/workspace/train.py"),
            golden=read("golden/csic_2x2_job.sh"), profile_text=read("profiles/csic.profile"),
            spec_text=entry),
        Job(FIXTURE_CLUSTERS["forhlr2"], FIXTURE_ENTRYPOINT_SPEC, 2, 4,
            "downscaling", "02:00:00", "downscaling", None, (),
            ("python", "/workspace/train.py"), golden=read("golden/forhlr2_2x4_job.sh"),
            profile_text=read("profiles/forhlr2.profile"), spec_text=entry),
    ]


def generated_jobs(rng: random.Random, count: int) -> list[Job]:
    """Jobs on generated clusters; strategies cycle so all three appear."""
    jobs = []
    for k in range(count):
        strategy = ("tags", "ngc", "entrypoint")[k % 3]
        cluster = _generated_cluster(rng, k)
        spec = _generated_spec(rng, strategy, cluster, k)
        nodes = rng.randrange(1, min(cluster.gpu_nodes, 16) + 1)
        gpn = rng.randrange(1, cluster.gpus_per_node + 1)
        env = tuple((f"BENCH_VAR{i}", f"v{rng.randrange(1000)}") for i in range(rng.randrange(0, 3)))
        jobs.append(Job(
            cluster=cluster,
            spec=spec,
            nodes=nodes,
            gpus_per_node=gpn,
            job_name=f"bench-{k}",
            walltime=f"{rng.randrange(0, 48):02d}:{rng.randrange(60):02d}:00",
            container=f"ctr{k}",
            tags=_tags_for(cluster, rng) if strategy == "tags" else None,
            env=env,
            user_command=("python", f"/workspace/train{k}.py", f"--epochs={rng.randrange(1, 90)}"),
        ))
    return jobs


# ------------------------------------------------------------ bench logs

@dataclass
class BenchLog:
    gpus: int
    warmup: int
    values: list[str]  # decimal text of every iteration, warm-up included

    def text(self) -> str:
        return "".join(f"iter {i}: {v} images/sec\n" for i, v in enumerate(self.values, 1))

    def kept(self) -> list[Fraction]:
        return [Fraction(v) for v in self.values[self.warmup:]]


def bench_log(rng: random.Random, gpus: int, samples: int, warmup: int) -> BenchLog:
    level = 95.0 * gpus * rng.uniform(0.8, 0.98)
    values = []
    for i in range(samples):
        ramp = 0.85 + 0.15 * min(1.0, i / max(warmup, 1)) if i < warmup else 1.0
        values.append(f"{level * ramp * rng.uniform(0.97, 1.03):.2f}")
    return BenchLog(gpus, warmup, values)


def exact_mean(values: list[Fraction]) -> Fraction:
    return sum(values, Fraction(0)) / len(values)


def exact_stdev(values: list[Fraction]) -> float:
    mean = exact_mean(values)
    ss = sum(((v - mean) ** 2 for v in values), Fraction(0))
    return math.sqrt(ss / (len(values) - 1))


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def t_quantile(prob: float, df: int) -> float:
    """Student-t quantile for prob in (0.5, 1), by bisection on the CDF."""
    def upper_tail(t: float) -> float:  # P(T > t) for t >= 0
        return 0.5 * _reg_inc_beta(df / 2.0, 0.5, df / (df + t * t))

    target = 1.0 - prob
    lo, hi = 0.0, 1.0
    while upper_tail(hi) > target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if upper_tail(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def expected_summary(log: BenchLog) -> tuple[float, float, int]:
    """(mean, 95% CI half-width, n) of the samples kept after warm-up."""
    kept = log.kept()
    n = len(kept)
    mean = exact_mean(kept)
    if n == 1:
        return float(mean), 0.0, 1
    return float(mean), t_quantile(0.975, n - 1) * exact_stdev(kept) / math.sqrt(n), n


def expected_report(logs: list[BenchLog]) -> list[tuple[int, float, float, float]]:
    """Rows of ``bench report``: gpus, mean, ci95, speedup vs the 1-GPU log."""
    base = exact_mean(next(log for log in logs if log.gpus == 1).kept())
    rows = []
    for log in sorted(logs, key=lambda log: log.gpus):
        mean, ci, _ = expected_summary(log)
        rows.append((log.gpus, mean, ci, float(exact_mean(log.kept()) / base)))
    return rows


# ------------------------------------------------------------ scaling model

@dataclass
class Scaling:
    params: int
    batch: int
    ips: float
    bytes_per_param: int = 4
    link_bandwidth: float = 1.25e9
    link_latency: float = 5e-6
    gpus_per_node: int = 2
    intra_bandwidth: float | None = None
    p_max: int = 6
    ideal: bool = False

    def argv(self) -> list[str]:
        argv = [
            "perf", "predict", "--params", str(self.params), "--batch-per-gpu", str(self.batch),
            "--single-gpu-ips", repr(self.ips), "--bytes-per-param", str(self.bytes_per_param),
            "--link-bandwidth", repr(self.link_bandwidth),
            "--link-latency", repr(self.link_latency),
            "--gpus-per-node", str(self.gpus_per_node), "--p-max", str(self.p_max),
        ]
        if self.intra_bandwidth is not None:
            argv += ["--intra-bandwidth", repr(self.intra_bandwidth)]
        if self.ideal:
            argv.append("--ideal")
        return argv

    def row(self, p: int) -> tuple[float, float, float, float]:
        """(images/s, speedup, comm s, comp s) at p workers: ring all-reduce.

        Each worker moves 2(p-1)/p of the gradient bytes over the
        intra-node link while p fits on one node, else over the network,
        and pays the link latency on each of the 2(p-1) ring steps.
        """
        comp = self.batch / self.ips
        if self.ideal:
            comm = 0.0
        else:
            intra = self.intra_bandwidth if self.intra_bandwidth is not None else self.link_bandwidth
            bandwidth = intra if p <= self.gpus_per_node else self.link_bandwidth
            volume = Fraction(2 * (p - 1), p) * self.params * self.bytes_per_param
            comm = float(volume) / bandwidth + 2 * (p - 1) * self.link_latency
        step = comp + comm
        speedup = float(p) if comm == 0.0 else p * comp / step
        return p * self.batch / step, speedup, comm, comp


def scaling(rng: random.Random, p_max: int) -> Scaling:
    link = rng.choice((1.25e9, 1.25e10, 2.5e10))
    return Scaling(
        params=rng.choice((23_851_784, 25_636_712, 138_357_544, 5_000_000 + rng.randrange(10**7))),
        batch=rng.choice((32, 64, 128, 256)),
        ips=round(rng.uniform(50.0, 900.0), 1),
        bytes_per_param=rng.choice((2, 4)),
        link_bandwidth=link,
        link_latency=rng.choice((0.0, 2e-6, 5e-6)),
        gpus_per_node=rng.choice((2, 4, 8)),
        intra_bandwidth=rng.choice((None, link * 4)),
        p_max=p_max,
        ideal=rng.random() < 0.15,
    )


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want) + 1e-12
