"""Cross-check: the calibrated roofline GPU baselines vs the independent
kernel-level GPU simulator, on the same FISA workload programs.

Two substitution strategies for the paper's GPU testbeds must agree on the
verdict (Cambricon-F wins every benchmark) even though they were built
differently: `repro.model.gpu` is calibrated to the paper's reported
observations; `repro.gpusim` times library-kernel streams from first
principles (cuBLAS tiling, launch latency, host link).
"""

from conftest import show
from repro.gpusim import GTX_1080TI_DEVICE, V100_DEVICE, GPUSimulator
from repro.model.gpu import DGX1, GTX1080TI
from repro.workloads import PAPER_BENCHMARKS, paper_benchmark


def build_table(f1_suite, f100_suite):
    gtx = GPUSimulator(GTX_1080TI_DEVICE)
    dgx = GPUSimulator(V100_DEVICE, n_gpus=8, host_bandwidth=84.24 * 2 ** 30)
    rows = [f"{'benchmark':11s} {'1080Ti cal':>11s} {'1080Ti sim':>11s} "
            f"{'launch%':>8s} {'DGX cal':>9s} {'DGX sim':>9s} "
            f"{'F1 wins':>8s} {'F100 wins':>10s}"]
    verdicts = []
    for name in PAPER_BENCHMARKS:
        w = paper_benchmark(name)
        sim1 = gtx.simulate(w.program)
        sim8 = dgx.simulate(w.program)
        f1_wins = f1_suite[name].attained_ops > sim1.attained_ops
        f100_wins = f100_suite[name].attained_ops > sim8.attained_ops
        verdicts.append((name, f1_wins, f100_wins))
        rows.append(
            f"{name:11s} {GTX1080TI.attained(name) / 1e12:9.2f} T "
            f"{sim1.attained_ops / 1e12:9.2f} T {sim1.launch_fraction:8.1%} "
            f"{DGX1.attained(name) / 1e12:7.1f} T "
            f"{sim8.attained_ops / 1e12:7.1f} T "
            f"{'yes' if f1_wins else 'NO':>8s} {'yes' if f100_wins else 'NO':>10s}"
        )
    rows.append("(cal = roofline model calibrated to the paper; "
                "sim = first-principles kernel simulator)")
    return rows, verdicts


def test_gpusim_crosscheck(benchmark, f1_suite, f100_suite):
    rows, verdicts = benchmark.pedantic(
        build_table, args=(f1_suite, f100_suite), rounds=1, iterations=1)
    show("Cross-check -- calibrated GPU model vs kernel simulator", rows)
    # Fig 15's verdict must hold under the independent substrate too.
    for name, f1_wins, f100_wins in verdicts:
        assert f1_wins, f"F1 lost {name} under the kernel simulator"
        assert f100_wins, f"F100 lost {name} under the kernel simulator"
