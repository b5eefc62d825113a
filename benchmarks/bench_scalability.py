"""Section 7 scalability claims.

1. Traffic: "By analysis of memory bounded operational intensity,
   Cambricon-F reduces 73.4%~98.8% of the memory traffic between DRAM and
   chips when compared to graphics memory traffic in GPU."  Measured here
   as the F1 root-port traffic vs the 1080Ti's DRAM traffic for the same
   FISA programs (kernel-level GPU simulator).

2. Batch size: "The operational intensity benefits from greater
   sub-problem scale, i.e. from larger batch size used" -- Cambricon-F's
   OI must grow with batch as weights amortize.

3. Scale-out: a task that fits the machine should scale near-linearly
   with more cards (the fractal pipeline keeps every level busy).
"""

from conftest import show
from repro import cambricon_f1, cambricon_f100
from repro.core.machine import CORE_PEAK_OPS, GB, KB, MB, LevelSpec, Machine
from repro.gpusim import GTX_1080TI_DEVICE
from repro.gpusim.kernels import lower_to_kernels
from repro.sim import FractalSimulator
from repro.workloads import PAPER_BENCHMARKS, paper_benchmark, vgg16


def traffic_comparison():
    rows = [f"{'benchmark':11s} {'F1 root':>10s} {'GPU DRAM':>10s} {'cut':>8s}"]
    cuts = {}
    f1 = cambricon_f1()
    for name in PAPER_BENCHMARKS:
        w = paper_benchmark(name)
        rep = FractalSimulator(f1, collect_profiles=False).simulate(w.program)
        gpu_bytes = sum(k.dram_bytes
                        for k in lower_to_kernels(w.program, GTX_1080TI_DEVICE))
        cut = 1 - rep.root_traffic / gpu_bytes
        cuts[name] = cut
        rows.append(f"{name:11s} {rep.root_traffic / 2**30:8.2f}Gi "
                    f"{gpu_bytes / 2**30:8.2f}Gi {cut:8.1%}")
    rows.append("(paper: 73.4%~98.8% traffic reduction)")
    return rows, cuts


def batch_sweep():
    rows = [f"{'batch':>6s} {'F100 OI':>9s} {'F100 attained':>14s}"]
    ois = []
    for batch in (4, 8, 16, 32, 64):
        w = vgg16(batch=batch)
        rep = FractalSimulator(cambricon_f100(),
                               collect_profiles=False).simulate(w.program)
        ois.append(rep.operational_intensity)
        rows.append(f"{batch:6d} {rep.operational_intensity:9.1f} "
                    f"{rep.attained_ops / 1e12:12.2f} T")
    rows.append("(OI grows with batch: weights amortize across images)")
    return rows, ois


def _with_cards(n_cards: int) -> Machine:
    """An F100-style server with a variable card count."""
    return Machine(
        name=f"F100-{n_cards}card",
        levels=[
            LevelSpec("Server", n_cards, 1, 1 << 40,
                      32 * GB * n_cards, n_cards * 512 * CORE_PEAK_OPS),
            LevelSpec("Card", 2, 0, 32 * GB, 512 * GB, 512 * CORE_PEAK_OPS),
            LevelSpec("Chip", 8, 16, 256 * MB, 512 * GB, 256 * CORE_PEAK_OPS),
            LevelSpec("FMP", 32, 16, 8 * MB, 512 * GB, 32 * CORE_PEAK_OPS),
            LevelSpec("Core", 0, 0, 256 * KB, 80 * GB, CORE_PEAK_OPS),
        ],
    )


def scale_out():
    from repro.workloads import matmul_workload
    w = matmul_workload(16384)
    rows = [f"{'cards':>6s} {'peak':>8s} {'time':>10s} {'attained':>10s} "
            f"{'scaling':>8s}"]
    base_time = None
    times = []
    for cards in (1, 2, 4, 8):
        m = _with_cards(cards)
        rep = FractalSimulator(m, collect_profiles=False).simulate(w.program)
        if base_time is None:
            base_time = rep.total_time
        speedup = base_time / rep.total_time
        times.append((cards, speedup))
        rows.append(f"{cards:6d} {m.peak_ops / 1e12:6.0f} T "
                    f"{rep.total_time * 1e3:8.2f}ms "
                    f"{rep.attained_ops / 1e12:8.1f} T {speedup:7.2f}x")
    rows.append("(per-card bandwidth held constant; compute-bound MATMUL "
                "should scale near-linearly)")
    return rows, times


def test_traffic_reduction(benchmark):
    rows, cuts = benchmark.pedantic(traffic_comparison, rounds=1, iterations=1)
    show("Section 7 -- DRAM traffic: Cambricon-F1 vs GPU", rows)
    # the paper's claim: substantial cuts on compute-shaped benchmarks
    big = [name for name, c in cuts.items() if c > 0.7]
    assert len(big) >= 4, cuts
    assert max(cuts.values()) > 0.9


def test_batch_size_helps_oi(benchmark):
    rows, ois = benchmark.pedantic(batch_sweep, rounds=1, iterations=1)
    show("Section 6 -- batch size vs operational intensity (VGG-16)", rows)
    assert ois[-1] > ois[0] * 1.5


def test_scale_out(benchmark):
    rows, times = benchmark.pedantic(scale_out, rounds=1, iterations=1)
    show("Section 7 -- scale-out with card count (MATMUL 16384)", rows)
    by_cards = dict(times)
    assert by_cards[8] > 3.0  # at least half-efficient at 8 cards
