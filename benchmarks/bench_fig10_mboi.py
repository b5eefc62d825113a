"""Fig 10: Memory-Bounded Operational Intensity, measured vs theoretical,
for three representative algorithms on a Cambricon-F node.

Paper's shape: MatMul's MBOI rises with memory (~sqrt), convolution rises
then saturates, pooling stays flat near zero -- which is why memory helps
compute-intense primitives and the average (MBOI_ref) drives node sizing.
"""

from conftest import show
from repro.model.mboi import measured_mboi, theoretical_mboi

MB = 1 << 20
SIZES = [256 << 10, 512 << 10, MB, 2 * MB, 4 * MB, 8 * MB, 16 * MB, 32 * MB]


def build_table():
    algos = ["MatMul", "Conv2D", "Pool2D"]
    rows = [f"{'Memory':>8s}  " + "  ".join(
        f"{a + ' meas':>12s} {a + ' theo':>12s}" for a in algos)]
    curves = {a: [] for a in algos}
    for m in SIZES:
        cells = [f"{m / MB:6.2f}MB"]
        for a in algos:
            meas = measured_mboi(a, m)
            theo = theoretical_mboi(a, m)
            curves[a].append((m, meas, theo))
            cells.append(f"{meas:12.1f} {theo:12.1f}")
        rows.append("  ".join(cells))
    return rows, curves


def test_fig10_mboi(benchmark):
    rows, curves = benchmark.pedantic(build_table, rounds=1, iterations=1)
    show("Figure 10 -- MBOI(M), measured vs theoretical (ops/byte)", rows)
    mm = curves["MatMul"]
    # MatMul MBOI grows monotonically with memory
    assert mm[-1][1] > mm[0][1] * 3
    # Pooling is memory-insensitive
    pool = curves["Pool2D"]
    assert pool[-1][1] < pool[0][1] * 3
    # measured tracks theory within a small factor everywhere
    for _m, meas, theo in mm:
        assert theo / 8 < meas < theo * 8
