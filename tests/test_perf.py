from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_stats
from conftest import FIXTURES
from hpcflow.errors import BenchLogError
from hpcflow.perf import (
    BenchRun,
    ModelSpec,
    ScalingInputs,
    _t_quantile,
    _t_upper_tail,
    allreduce_bytes,
    parse_bench_log,
    predict,
    speedup_table,
    summarize,
)

# model characteristics used throughout: name -> (parameters, batch per GPU)
MODELS = {
    "inceptionv3": (23_851_784, 256),
    "resnet50": (25_636_712, 256),
    "resnet101": (44_707_176, 128),
}

WORKED_SAMPLES = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]


def make_inputs(
    param_count: int = MODELS["resnet50"][0],
    batch_per_gpu: int = 256,
    single_gpu_ips: float = 380.0,
    link_bandwidth: float = 1.25e9,
    link_latency: float = 5e-6,
    gpus_per_node: int = 2,
    intra_node_bandwidth: float = 2.5e10,
) -> ScalingInputs:
    return ScalingInputs(
        model=ModelSpec("m", param_count, batch_per_gpu),
        single_gpu_images_per_sec=single_gpu_ips,
        link_bandwidth=link_bandwidth,
        link_latency=link_latency,
        gpus_per_node=gpus_per_node,
        intra_node_bandwidth=intra_node_bandwidth,
    )


IDEAL = dict(link_bandwidth=math.inf, link_latency=0.0, intra_node_bandwidth=math.inf)


class TestAllreduceBytes:
    def test_single_worker_communicates_nothing(self):
        assert allreduce_bytes(1, 12345) == 0.0

    def test_resnet50_payload_at_four_workers(self):
        payload = MODELS["resnet50"][0] * 4  # 102,546,848 bytes of gradients
        assert allreduce_bytes(4, payload) == 153_820_272.0

    def test_strictly_increasing_bounded_by_2n(self):
        payload = 1e8
        previous = 0.0
        for p in range(1, 200):
            volume = allreduce_bytes(p, payload)
            if p > 1:
                assert volume > previous
            assert volume < 2 * payload
            previous = volume

    def test_zero_worker_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            allreduce_bytes(0, 100)

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError, match="payload must be non-negative"):
            allreduce_bytes(2, -1)


class TestPredict:
    def test_single_worker_exact(self):
        est = predict(make_inputs(), 1)
        assert est.speedup == 1.0
        assert est.comm_seconds_per_step == 0.0

    def test_zero_comm_limit_is_ideal(self):
        inputs = make_inputs(**IDEAL)
        for p in range(1, 9):
            assert predict(inputs, p).speedup == float(p)

    def test_speedup_bounded_by_p(self):
        inputs = make_inputs()
        for p in range(1, 13):
            assert predict(inputs, p).speedup <= p

    def test_more_parameters_scale_worse(self):
        # equal compute time per step across models isolates the payload effect
        comp = 0.1
        estimates = {}
        for name, (params, batch) in MODELS.items():
            inputs = make_inputs(
                param_count=params, batch_per_gpu=batch, single_gpu_ips=batch / comp
            )
            estimates[name] = predict(inputs, 6).speedup
        assert estimates["inceptionv3"] > estimates["resnet50"] > estimates["resnet101"]

    def test_two_tier_bandwidth_switches_at_node_boundary(self):
        inputs = make_inputs(gpus_per_node=2)
        within = predict(inputs, 2)
        beyond = predict(inputs, 3)
        payload = inputs.model.payload_bytes
        assert within.comm_seconds_per_step == pytest.approx(
            allreduce_bytes(2, payload) / inputs.intra_node_bandwidth
            + 2 * inputs.link_latency
        )
        assert beyond.comm_seconds_per_step == pytest.approx(
            allreduce_bytes(3, payload) / inputs.link_bandwidth
            + 4 * inputs.link_latency
        )

    @settings(max_examples=200)
    @given(
        params=st.integers(1_000_000, 50_000_000),
        batch=st.integers(32, 512),
        comp=st.floats(0.01, 1.0),
        link_bw=st.floats(1e9, 1e11),
        lat=st.floats(0, 1e-4),
        gpn=st.integers(1, 8),
        intra_factor=st.floats(1.0, 20.0),
        p=st.integers(1, 16),
    )
    def test_speedup_bounds_property(self, params, batch, comp, link_bw, lat, gpn, intra_factor, p):
        inputs = make_inputs(
            param_count=params,
            batch_per_gpu=batch,
            single_gpu_ips=batch / comp,
            link_bandwidth=link_bw,
            link_latency=lat,
            gpus_per_node=gpn,
            intra_node_bandwidth=link_bw * intra_factor,
        )
        # the lower bound holds in the compute-dominated regime, where one
        # step's worth of compute covers the per-step communication
        comp_actual = inputs.model.batch_per_gpu / inputs.single_gpu_images_per_sec
        assume(comp_actual >= inputs.model.payload_bytes / link_bw + 2 * lat)
        est = predict(inputs, p)
        assert 1.0 <= est.speedup <= p

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            predict(make_inputs(), 0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"link_bandwidth": 1e-320, "intra_node_bandwidth": 1e-320},
                "comm_seconds of the 2-GPU prediction",
            ),
            ({"single_gpu_ips": 1e308, **IDEAL}, "images_per_sec of the 2-GPU prediction"),
        ],
    )
    def test_non_finite_prediction_rejected(self, overrides, message):
        inputs = make_inputs(
            **{"param_count": 1, "batch_per_gpu": 1, "single_gpu_ips": 1.0, **overrides}
        )
        assert predict(inputs, 1).speedup == 1.0
        with pytest.raises(ValueError, match=f"^{message} is not finite"):
            predict(inputs, 2)

    def test_inputs_validation(self):
        with pytest.raises(ValueError, match="intra_node_bandwidth"):
            make_inputs(intra_node_bandwidth=1.0)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("single_gpu_ips", math.nan, "single_gpu_images_per_sec"),
            ("single_gpu_ips", math.inf, "single_gpu_images_per_sec"),
            ("single_gpu_ips", 0.0, "single_gpu_images_per_sec"),
            ("link_bandwidth", math.nan, "bandwidths"),
            ("intra_node_bandwidth", math.nan, "bandwidths"),
            ("link_bandwidth", 0.0, "bandwidths"),
            ("link_latency", math.nan, "link_latency"),
            ("link_latency", math.inf, "link_latency"),
            ("link_latency", -1e-6, "link_latency"),
        ],
    )
    def test_non_finite_or_out_of_range_inputs_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            make_inputs(**{field: value})


class TestModelSpec:
    @pytest.mark.parametrize("field", ["param_count", "batch_per_gpu", "bytes_per_param"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 0, -4])
    def test_non_finite_or_non_integral_rejected(self, field, value):
        values = {"param_count": 1000, "batch_per_gpu": 32, "bytes_per_param": 4, field: value}
        with pytest.raises(ValueError, match="positive integers"):
            ModelSpec("m", **values)

    def test_integral_values_accepted(self):
        assert ModelSpec("m", 1000, 32.0).payload_bytes == 4000


class TestParseBenchLog:
    def test_warmup_protocol(self, fixtures):
        text = (fixtures / "logs" / "bench_1gpu.log").read_text()
        run = parse_bench_log(text, warmup_count=10, gpus=1)
        assert len(run.samples) == 10
        assert list(run.samples) == WORKED_SAMPLES

    def test_warmup_zero_keeps_everything(self, fixtures):
        text = (fixtures / "logs" / "bench_1gpu.log").read_text()
        assert len(parse_bench_log(text, 0).samples) == 20

    def test_warmup_consuming_all_samples_is_error(self, fixtures):
        text = (fixtures / "logs" / "bench_1gpu.log").read_text()
        with pytest.raises(BenchLogError, match="consumes all"):
            parse_bench_log(text, 20)

    def test_malformed_line_reports_number(self):
        with pytest.raises(BenchLogError, match="line 2"):
            parse_bench_log("iter 1: 10.0 images/sec\nnot a log line\n", 0)

    def test_negative_warmup_rejected(self):
        with pytest.raises(BenchLogError, match="warmup_count must be non-negative"):
            parse_bench_log("iter 1: 10.0 images/sec\n", -1)

    def test_non_finite_value_reports_number(self):
        # 1e999 matches the grammar but overflows to inf
        with pytest.raises(BenchLogError, match="line 2: .*not finite"):
            parse_bench_log("iter 1: 10.0 images/sec\niter 2: 1e999 images/sec\n", 0)


class TestSummarize:
    def test_worked_example(self):
        run = BenchRun("x", 1, tuple(WORKED_SAMPLES))
        summary = summarize(run)
        assert summary.mean == 100.0
        assert summary.ci95_half_width == pytest.approx(1.262, abs=1e-3)
        assert summary.n == 10

    def test_zero_variance(self):
        summary = summarize(BenchRun("x", 1, (50.0,) * 10))
        assert summary.mean == 50.0
        assert summary.ci95_half_width == 0.0
        assert not summary.ci_undefined

    def test_single_sample_flagged(self):
        summary = summarize(BenchRun("x", 1, (42.0,)))
        assert summary.ci95_half_width == 0.0
        assert summary.ci_undefined

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="run has no samples"):
            summarize(BenchRun("x", 1, ()))

    def test_matches_statistics_module(self):
        # the standard library's statistics as the reference; perf uses math alone
        import statistics

        rng = random.Random(11)
        for _ in range(300):
            n = rng.choice([2, 3, 10, 32, 100, 316, 1000])
            centre = 10 ** rng.uniform(-3, 6)
            spread = centre * rng.uniform(0.001, 1.0)
            samples = tuple(rng.uniform(centre, centre + spread) for _ in range(n))
            summary = summarize(BenchRun("x", 1, samples))
            assert summary.mean == statistics.fmean(samples)
            expected = _t_quantile(0.975, n - 1) * statistics.stdev(samples) / math.sqrt(n)
            assert summary.ci95_half_width == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("value", [0.1, 1e-300, 7.3, 1e300])
    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_equal_samples_give_exactly_zero(self, value, n):
        # fsum / n rounds three samples of 0.1 to 0.10000000000000002
        summary = summarize(BenchRun("x", 1, (value,) * n))
        assert summary.ci95_half_width == 0.0
        assert not summary.ci_undefined

    def test_deviations_beyond_the_square_range(self):
        # a square of 1e200 overflows; the half-width does not
        summary = summarize(BenchRun("x", 1, (1e200, 3e200)))
        assert (f"{summary.mean:.6g}", f"{summary.ci95_half_width:.6g}") == (
            "2e+200",
            "1.27062e+201",
        )

    @pytest.mark.parametrize(
        "samples, message",
        [
            ((1.7e308, 1.7e308), "mean of the 1-GPU run"),
            ((1e308, 1e-308), "ci95 of the 1-GPU run"),
        ],
    )
    def test_non_finite_result_rejected(self, samples, message):
        with pytest.raises(ValueError, match=f"^{message} is not finite"):
            summarize(BenchRun("x", 1, samples))

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 25)
            samples = [rng.uniform(1.0, 1000.0) for _ in range(n)]
            summary = summarize(BenchRun("x", 1, tuple(samples)))
            mean = oracle_stats.brute_mean(samples)
            ci = oracle_stats.brute_ci95_half_width(samples)
            assert summary.mean == pytest.approx(mean, rel=1e-9)
            assert summary.ci95_half_width == pytest.approx(ci, rel=1e-9)


# scipy.stats.t.ppf(0.975, df), computed once with scipy 1.17.1
T_975 = {
    1: 12.706204736174694,
    2: 4.302652729749462,
    3: 3.1824463052837078,
    5: 2.5705818356363146,
    10: 2.228138851986274,
    29: 2.045229642132703,
    30: 2.0422724563012378,
    100: 1.9839715185235518,
    316: 1.9674995188240583,
    999: 1.9623414611334493,
    10000: 1.960201239890626,
}


class TestTQuantile:
    @pytest.mark.parametrize("df", sorted(T_975))
    def test_matches_reference_values(self, df):
        assert _t_quantile(0.975, df) == pytest.approx(T_975[df], rel=1e-9)

    def test_median_is_zero(self):
        assert _t_quantile(0.5, 7) == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 2.0, 4.0, 10.0, 1e3])
    def test_tail_closed_forms(self, t):
        assert _t_upper_tail(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi, rel=1e-14)
        assert _t_upper_tail(t, 2) == pytest.approx(
            0.5 * (1.0 - t / math.sqrt(2.0 + t * t)), rel=1e-12
        )

    @pytest.mark.parametrize("df", range(1, 41))
    def test_tail_matches_simpson_oracle(self, df):
        # both sides subtract from 0.5, so each carries ~1e-16 absolute error:
        # tails far below 1e-7 (t = 10 at large df) agree only to that
        for t in (0.1, 1.0, 2.0, 4.0, 10.0):
            expected = 0.5 - oracle_stats._t_cdf_upper_half(t, df)
            assert _t_upper_tail(t, df) == pytest.approx(expected, rel=1e-9, abs=1e-15), t

    @pytest.mark.parametrize("prob, df", [(0.025, 5), (1.0, 5), (math.nan, 5), (0.975, 0)])
    def test_rejects_out_of_range(self, prob, df):
        with pytest.raises(ValueError):
            _t_quantile(prob, df)

    def test_bench_report_does_not_import_scipy(self):
        logs = FIXTURES / "logs"
        code = (
            "import sys\n"
            "from hpcflow.cli import main\n"
            "code = main(['bench', 'report', '--warmup', '10', *sys.argv[1:]])\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
            "sys.exit(code)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        runs = [f"{gpus}:{logs / f'bench_{gpus}gpu.log'}" for gpus in (1, 2, 3)]
        proc = subprocess.run(
            [sys.executable, "-c", code, *runs],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("gpus,mean,ci95,speedup\n1,")


class TestSpeedupTable:
    def test_six_configurations(self):
        runs = [
            BenchRun(f"g{p}", p, tuple(float(100 * p + d) for d in (-1, 0, 1)))
            for p in range(1, 7)
        ]
        table = speedup_table(runs)
        assert len(table) == 6
        assert table[0] == (1, 1.0)
        assert [gpus for gpus, _ in table] == [1, 2, 3, 4, 5, 6]

    def test_single_baseline_only(self):
        assert speedup_table([BenchRun("b", 1, (10.0,))]) == [(1, 1.0)]

    def test_speedup_against_baseline(self):
        base = BenchRun("b", 1, (100.0,) * 5)
        run = BenchRun("r", 2, (190.0,) * 5)
        assert speedup_table([base, run])[1] == (2, 1.9)

    def test_doubled_mean_gives_speedup_two(self):
        runs = [BenchRun("b", 1, (100.0,) * 3), BenchRun("r", 2, (200.0,) * 3)]
        assert speedup_table(runs)[1] == (2, 2.0)

    def test_missing_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            speedup_table([BenchRun("r", 2, (10.0,))])

    def test_zero_baseline_is_error(self):
        runs = [BenchRun("b", 1, (0.0,) * 3), BenchRun("r", 2, (10.0,) * 3)]
        with pytest.raises(ValueError, match="baseline's mean throughput is 0"):
            speedup_table(runs)

    def test_non_finite_speedup_rejected(self):
        runs = [BenchRun("b", 1, (1e-200,)), BenchRun("r", 2, (1e200, 3e200))]
        with pytest.raises(ValueError, match="^speedup of the 2-GPU run is not finite"):
            speedup_table(runs)

    def test_mean_overflow_rejected(self):
        runs = [BenchRun("b", 1, (1.0,)), BenchRun("r", 2, (1.7e308, 1.7e308))]
        with pytest.raises(ValueError, match="^mean of the 2-GPU run is not finite"):
            speedup_table(runs)

    def test_duplicate_gpu_counts(self):
        runs = [BenchRun("a", 1, (1.0,)), BenchRun("b", 2, (2.0,)), BenchRun("c", 2, (2.0,))]
        with pytest.raises(ValueError, match="duplicate"):
            speedup_table(runs)
