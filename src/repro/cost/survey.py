"""Published survey data: accelerator power-efficiency trend (Fig 1) and
NVIDIA GPU cores/bandwidth growth (Fig 16), plus growth-rate fits.

These figures are literature summaries, not measurements of the authors'
system; the data points below are the published numbers the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class AcceleratorPoint:
    """One accelerator on the Fig-1 efficiency timeline."""

    year: int
    name: str
    tops_per_watt: float
    technology: str


#: Fig 1: the most efficient accelerator proposed in each year 2012-2018.
ACCELERATOR_EFFICIENCY_TREND: List[AcceleratorPoint] = [
    AcceleratorPoint(2012, "NeuFlow", 0.23, "IBM 45nm"),
    AcceleratorPoint(2013, "QP-Vector", 0.48, "45nm"),
    AcceleratorPoint(2014, "DianNao", 0.93, "65nm"),  # 4.05x over NeuFlow
    AcceleratorPoint(2015, "ShiDianNao", 2.55, "65nm"),
    AcceleratorPoint(2016, "Eyeriss", 3.62, "65nm"),
    AcceleratorPoint(2017, "Envision", 10.0, "28nm FDSOI"),
    AcceleratorPoint(2018, "Conv-RAM", 28.1, "65nm"),  # 1213x over 2012
]


@dataclass(frozen=True)
class GPUPoint:
    """One GPU on the Fig-16 growth chart."""

    year: int
    name: str
    cores: int
    bandwidth_gb_s: float


#: Fig 16: NVIDIA flagship GPUs since 2009.
NVIDIA_GPU_TREND: List[GPUPoint] = [
    GPUPoint(2009, "GTX 285", 240, 159.0),
    GPUPoint(2010, "GTX 480", 480, 177.4),
    GPUPoint(2011, "GTX 580", 512, 192.4),
    GPUPoint(2012, "GTX 680", 1536, 192.3),
    GPUPoint(2013, "GTX 780 Ti", 2880, 336.0),
    GPUPoint(2014, "GTX 980", 2048, 224.0),
    GPUPoint(2015, "GTX 980 Ti", 2816, 336.5),
    GPUPoint(2016, "GTX 1080", 2560, 320.0),
    GPUPoint(2017, "GTX 1080 Ti", 3584, 484.0),
    GPUPoint(2018, "RTX 2080 Ti", 4352, 616.0),
]


def annual_growth(points: Sequence[Tuple[int, float]]) -> float:
    """Geometric-mean annual growth factor of (year, value) samples."""
    if len(points) < 2:
        raise ValueError("need at least two samples")
    pts = sorted(points)
    (y0, v0), (y1, v1) = pts[0], pts[-1]
    if y1 == y0 or v0 <= 0 or v1 <= 0:
        raise ValueError("degenerate samples")
    return (v1 / v0) ** (1.0 / (y1 - y0))


def efficiency_growth() -> float:
    """Fig 1's headline: efficiency grows ~3.2x per year."""
    return annual_growth([(p.year, p.tops_per_watt)
                          for p in ACCELERATOR_EFFICIENCY_TREND])


def gpu_core_growth(first_year: int, last_year: int) -> float:
    """Core-count growth over a year span (67.6%/yr 2009-13; 8.8%/yr after)."""
    pts = [(p.year, float(p.cores)) for p in NVIDIA_GPU_TREND
           if first_year <= p.year <= last_year]
    return annual_growth(pts)


def gpu_bandwidth_growth() -> float:
    """Bandwidth growth over the whole span (~15% annually)."""
    return annual_growth([(p.year, p.bandwidth_gb_s) for p in NVIDIA_GPU_TREND])
