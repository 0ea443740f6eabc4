"""Multi-GPU scaling prediction and benchmark statistics.

The scaling model prices each optimizer step as compute plus a ring
all-reduce of the gradient payload: with p workers each sends and
receives 2(p-1)/p of the payload (the bandwidth-optimal ring volume),
plus a latency term proportional to the 2(p-1) ring steps.  Bandwidth is
two-tier: intra-node while the job fits on one node, the inter-node link
beyond that.

Confidence intervals use the Student t quantile, computed with the
standard library alone: for integer df the upper tail P(T > t) is a finite
series in sin and cos of atan(t / sqrt(df)) (Abramowitz & Stegun 26.7.3
and 26.7.4), inverted by Newton's method started at t = 0.
"""

from __future__ import annotations

import math
import re

from hpcflow.errors import BenchLogError, Record

_LOG_LINE_RE = re.compile(r"iter\s+(\d+):\s*([0-9]*\.?[0-9]+(?:[eE][+-]?\d+)?)\s+images/sec")


class ModelSpec(Record):
    """Size and batching of one trainable model."""

    name: str
    param_count: int
    batch_per_gpu: int
    bytes_per_param: int = 4

    def __post_init__(self) -> None:
        # NaN and inf are not integral, so this rejects them too
        for value in (self.param_count, self.batch_per_gpu, self.bytes_per_param):
            if not (float(value).is_integer() and value > 0):
                raise ValueError(
                    "param_count, batch_per_gpu and bytes_per_param must be positive integers"
                )

    @property
    def payload_bytes(self) -> int:
        return self.param_count * self.bytes_per_param


class ScalingInputs(Record):
    """Model plus machine characteristics feeding the prediction.

    Bandwidths are bytes/second and may be ``math.inf`` to model the
    zero-communication ideal; latency is seconds per ring step.  NaN is
    rejected everywhere, infinity everywhere but in the bandwidths.
    """

    model: ModelSpec
    single_gpu_images_per_sec: float
    link_bandwidth: float
    link_latency: float
    gpus_per_node: int
    intra_node_bandwidth: float

    def __post_init__(self) -> None:
        # each test is "not ok", so NaN, which fails every comparison, is rejected
        if not 0 < self.single_gpu_images_per_sec < math.inf:
            raise ValueError("single_gpu_images_per_sec must be finite and positive")
        if not (self.link_bandwidth > 0 and self.intra_node_bandwidth > 0):
            raise ValueError("bandwidths must be positive")
        if not 0 <= self.link_latency < math.inf:
            raise ValueError("link_latency must be finite and non-negative")
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.intra_node_bandwidth < self.link_bandwidth:
            raise ValueError("intra_node_bandwidth must be >= link_bandwidth")


class ScalingEstimate(Record):
    predicted_images_per_sec: float
    speedup: float
    comm_seconds_per_step: float
    comp_seconds_per_step: float


class BenchRun(Record):
    """Measured throughput samples for one GPU configuration."""

    label: str
    gpus: int
    samples: tuple[float, ...]
    warmup_count: int = 0


class BenchSummary(Record):
    mean: float
    ci95_half_width: float
    n: int
    ci_undefined: bool = False


def allreduce_bytes(p: int, payload: float) -> float:
    """Per-worker ring all-reduce volume: 2(p-1)/p of the payload.

    Strictly increasing in p, bounded above by twice the payload; a single
    worker communicates nothing.
    """
    if p < 1:
        raise ValueError(f"worker count must be >= 1, got {p}")
    if payload < 0:
        raise ValueError("payload must be non-negative")
    return 2.0 * (p - 1) / p * payload


def _comm_seconds(inputs: ScalingInputs, p: int) -> float:
    bandwidth = (
        inputs.intra_node_bandwidth if p <= inputs.gpus_per_node else inputs.link_bandwidth
    )
    volume = allreduce_bytes(p, inputs.model.payload_bytes)
    return volume / bandwidth + 2.0 * (p - 1) * inputs.link_latency


def predict(inputs: ScalingInputs, p: int) -> ScalingEstimate:
    """Predict throughput and speedup at p workers.

    comp = batch / single-GPU throughput; comm is the ring all-reduce
    transfer plus latency; throughput = p * batch / (comp + comm).
    Speedup is normalized so speedup(1) = 1 exactly, and a zero
    communication cost gives speedup = p exactly (the ideal line).

    Raises:
        ValueError: when p < 1 or a predicted value is not finite.
    """
    if p < 1:
        raise ValueError(f"worker count must be >= 1, got {p}")
    comp = inputs.model.batch_per_gpu / inputs.single_gpu_images_per_sec
    comm = _comm_seconds(inputs, p)
    predicted = p * inputs.model.batch_per_gpu / (comp + comm)
    if comm == 0.0:
        speedup = float(p)
    else:
        speedup = p * comp / (comp + comm)
    _require_finite(
        f"the {p}-GPU prediction",
        images_per_sec=predicted,
        speedup=speedup,
        comm_seconds=comm,
        comp_seconds=comp,
    )
    return ScalingEstimate(
        predicted_images_per_sec=predicted,
        speedup=speedup,
        comm_seconds_per_step=comm,
        comp_seconds_per_step=comp,
    )


def parse_bench_log(text: str, warmup_count: int, gpus: int = 1) -> BenchRun:
    """Parse ``iter <k>: <float> images/sec`` lines, dropping warm-up.

    Blank lines are ignored; anything else must match the grammar.

    Raises:
        BenchLogError: on a malformed line or a non-finite value (with its
            number), or when the warm-up count consumes every sample.
    """
    if warmup_count < 0:
        raise BenchLogError("warmup_count must be non-negative")
    values: list[float] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        m = _LOG_LINE_RE.fullmatch(line)
        if m is None:
            raise BenchLogError(f"malformed log line {line!r}", line=lineno)
        value = float(m.group(2))
        if not math.isfinite(value):  # the grammar admits only overflow, e.g. 1e999
            raise BenchLogError(f"throughput {m.group(2)} is not finite", line=lineno)
        values.append(value)
    if warmup_count >= len(values):
        raise BenchLogError(
            f"warm-up of {warmup_count} consumes all {len(values)} samples"
        )
    return BenchRun(
        label="",
        gpus=gpus,
        samples=tuple(values[warmup_count:]),
        warmup_count=warmup_count,
    )


def _t_upper_tail(t: float, df: int) -> float:
    """P(T > t) for t >= 0, by the finite series of Abramowitz & Stegun 26.7.3-4.

    With theta = atan(t / sqrt(df)) and S = sin(theta) times a sum of
    df // 2 powers of cos(theta), each term the last times
    cos^2(theta) k / (k + 1), P(|T| <= t) is S for even df and
    2 (theta + S) / pi for odd df.
    """
    odd = df % 2
    cos2 = df / (df + t * t)
    term = math.sqrt(cos2) if odd else 1.0
    total = 0.0
    for k in range(1 + odd, df, 2):
        total += term
        term *= cos2 * k / (k + 1)
    inside = t / math.sqrt(df + t * t) * total
    if odd:
        inside = 2.0 / math.pi * (math.atan(t / math.sqrt(df)) + inside)
    return 0.5 * (1.0 - inside)


def _t_density(t: float, df: int) -> float:
    return math.exp(
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
        - (df + 1) / 2.0 * math.log1p(t * t / df)
    )


def _t_quantile(prob: float, df: int) -> float:
    """The ``prob`` quantile of Student's t with ``df`` degrees of freedom, prob >= 0.5.

    Newton's method on the upper tail, started at t = 0.  The tail is
    convex and decreasing for t > 0, so from any start at or below the
    root, as 0 is for prob >= 0.5, the iterates rise monotonically to it.

    The tail is formed as 1 - P(|T| <= t), which cancels far out: against
    scipy the relative error is about 1e-12 at prob = 1 - 1e-5, 1e-10 at
    1 - 1e-7 and 1e-8 at 1 - 1e-9.  From 1 - 1e-9 on Newton may not
    converge (ArithmeticError): at 1 - 1e-9 it fails for df = 2, near
    1 - 1e-13 for about half of df.  The one caller, ``summarize``, passes 0.975.
    """
    if not 0.5 <= prob < 1.0 or df < 1:
        raise ValueError(f"need 0.5 <= prob < 1 and df >= 1, got prob={prob}, df={df}")
    tail = 1.0 - prob
    t = 0.0
    for _ in range(100):
        step = (_t_upper_tail(t, df) - tail) / _t_density(t, df)
        t += step
        # convergence is quadratic: after a step below 1e-8 * t the relative
        # error left is of order 1e-16, under the rounding noise of the tail
        if abs(step) <= 1e-8 * t:
            return t
    raise ArithmeticError(f"t quantile did not converge (prob={prob}, df={df})")


def _require_finite(what: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} of {what} is not finite ({value})")


def _mean(run: BenchRun) -> float:
    """``fsum / n``, the float that ``statistics.fmean`` returns."""
    if not run.samples:
        raise ValueError("run has no samples")
    try:
        mean = math.fsum(run.samples) / len(run.samples)
    except OverflowError:  # the exact sum is beyond the float range
        mean = math.inf
    _require_finite(f"the {run.gpus}-GPU run", mean=mean)
    return mean


def summarize(run: BenchRun) -> BenchSummary:
    """Mean and 95% Student-t confidence half-width of a run.

    Uses the n-1 sample standard deviation and the t quantile with n-1
    degrees of freedom.  A single-sample run has no defined interval; it
    is reported as 0 with ``ci_undefined`` set.

    Raises:
        ValueError: on a run with no samples, or when the mean or the
            half-width is not finite.
    """
    n = len(run.samples)
    mean = _mean(run)
    ci = 0.0
    # equal samples give exactly 0, though fsum / n may round the mean off them
    if min(run.samples) < max(run.samples):
        # hypot scales internally, so no square of a deviation overflows
        sd = math.hypot(*[x - mean for x in run.samples]) / math.sqrt(n - 1)
        ci = _t_quantile(0.975, n - 1) * sd / math.sqrt(n)
        _require_finite(f"the {run.gpus}-GPU run", ci95=ci)
    return BenchSummary(mean=mean, ci95_half_width=ci, n=n, ci_undefined=n == 1)


def speedup_table(runs: list[BenchRun]) -> list[tuple[int, float]]:
    """Rows of (gpus, speedup vs the 1-GPU baseline), ordered by gpus.

    Raises:
        ValueError: without exactly one 1-GPU run, on duplicate GPU
            counts, when the baseline's mean throughput is 0, or when a
            mean or a speedup is not finite.
    """
    baselines = [r for r in runs if r.gpus == 1]
    if len(baselines) != 1:
        raise ValueError(
            f"need exactly one 1-GPU baseline run, got {len(baselines)}"
        )
    counts = [r.gpus for r in runs]
    if len(set(counts)) != len(counts):
        raise ValueError("duplicate GPU counts in runs")
    base_mean = _mean(baselines[0])
    if base_mean == 0.0:
        raise ValueError("the 1-GPU baseline's mean throughput is 0, so no speedup is defined")
    rows = []
    for run in sorted(runs, key=lambda r: r.gpus):
        speedup = _mean(run) / base_mean
        _require_finite(f"the {run.gpus}-GPU run", speedup=speedup)
        rows.append((run.gpus, speedup))
    return rows
