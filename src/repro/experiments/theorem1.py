"""Experiment E1 — Theorem 1: the asynchronous time is bounded by the synchronous time plus ``log n``.

Claim (Theorem 1 / Theorem 4): for every connected graph ``G`` and source
``u``, ``T_{1/n}(pp-a, G, u) = O(T_{1/n}(pp, G, u) + log n)``.

The experiment sweeps a broad suite of graph families and sizes, estimates
both high-probability spreading times by Monte Carlo, and reports the
empirical constant

    c₁(G) = T_{1/n}(pp-a) / (T_{1/n}(pp) + ln n).

Theorem 1 predicts that ``c₁`` stays bounded by a universal constant across
all families and sizes (whereas the superseded multiplicative ``log n`` bound
of Acan et al. would allow it to grow).  The headline conclusions are the
largest observed constant and whether the constant grows with ``n`` within
each family.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.analysis.bounds import acan_multiplicative_upper_bound, theorem1_constant
from repro.analysis.comparison import sweep_family
from repro.analysis.montecarlo import BatchSpec
from repro.experiments.presets import get_preset
from repro.experiments.records import ExperimentResult
from repro.randomness.rng import SeedLike

__all__ = ["run", "DEFAULT_FAMILIES"]

#: Families used by default: broad coverage of regular/irregular, sparse/
#: dense, low/high conductance, deterministic/random topologies.
DEFAULT_FAMILIES: tuple[str, ...] = (
    "star",
    "double_star",
    "cycle",
    "complete",
    "hypercube",
    "binary_tree",
    "barbell",
    "erdos_renyi",
    "random_regular_3",
    "async_gap",
)


def run(
    preset: str = "quick",
    *,
    seed: SeedLike = 20160725,
    families: Optional[Sequence[str]] = None,
    sizes: Optional[Sequence[int]] = None,
    batch: BatchSpec = True,
    parallel: bool = False,
    num_workers: Optional[int] = None,
) -> ExperimentResult:
    """Run experiment E1 and return its result table.

    Args:
        preset: ``"smoke"``, ``"quick"`` or ``"full"`` (controls sizes/trials).
        seed: master seed.
        families: override the default family list.
        sizes: override the preset's size sweep.
        batch: Monte Carlo dispatch mode.  The default ``True`` forces every
            sweep through the 2-D batch kernels (``pp`` and ``pp-a`` always
            batch), which is exactly seed-equivalent to the serial path and
            keeps even small presets off the per-trial Python loop; pass
            ``False`` to force serial runs or ``"auto"``/``"pooled"`` for
            the other :func:`~repro.analysis.montecarlo.run_trials` modes.
        parallel: shard every sweep cell's trials across the session's
            persistent process pool (:mod:`repro.analysis.pool`); the pool
            and the per-graph shared CSR segments are reused across all
            grid points of the sweep, and each chunk returns its sample.
            Changes the per-trial seed spawning (reproducible, but a
            different draw than the serial sweep).
        num_workers: worker override for the parallel path.
    """
    config = get_preset(preset)
    family_names = tuple(families) if families is not None else DEFAULT_FAMILIES
    size_sweep = tuple(sizes) if sizes is not None else config.sizes

    rows: list[dict[str, object]] = []
    worst_constant = 0.0
    worst_setting = ""
    growth_flags: list[bool] = []

    for family_name in family_names:
        sweep = sweep_family(
            family_name,
            ["pp", "pp-a"],
            sizes=size_sweep,
            trials=config.trials,
            seed=seed,
            batch=batch,
            parallel=parallel,
            num_workers=num_workers,
        )
        constants_for_family: list[float] = []
        for comparison in sweep.comparisons:
            n = comparison.num_vertices
            sync_hp = comparison.measurement("pp").high_probability
            async_hp = comparison.measurement("pp-a").high_probability
            constant = theorem1_constant(async_hp, sync_hp, n)
            acan_bound = acan_multiplicative_upper_bound(sync_hp, n)
            constants_for_family.append(constant)
            if constant > worst_constant:
                worst_constant = constant
                worst_setting = f"{family_name}(n={n})"
            rows.append(
                {
                    "family": family_name,
                    "n": n,
                    "T_hp(pp)": sync_hp,
                    "T_hp(pp-a)": async_hp,
                    "sync+ln(n)": sync_hp + math.log(n),
                    "c1 = async/(sync+ln n)": constant,
                    "Acan mult. bound": acan_bound,
                }
            )
        # "Grows" means the constant at the largest size exceeds the one
        # at the smallest size by more than 75% — a loose flag for
        # unbounded growth that logarithmic-in-n behaviour would trip.
        if len(constants_for_family) >= 2 and constants_for_family[0] > 0:
            growth_flags.append(
                constants_for_family[-1] > 1.75 * constants_for_family[0] + 0.25
            )
        else:
            growth_flags.append(False)

    conclusions = {
        "max_constant_c1": worst_constant,
        "max_constant_setting": worst_setting,
        "families_with_growing_constant": sum(growth_flags),
        "num_families": len(family_names),
        "theorem1_consistent": worst_constant < 4.0 and sum(growth_flags) <= max(1, len(family_names) // 5),
    }
    notes = [
        f"preset={config.name}, trials={config.trials} per cell, sizes={list(size_sweep)}",
        "T_hp is the Monte Carlo estimate of the 1-1/n quantile of the spreading time",
        "Theorem 1 predicts c1 bounded by a universal constant across families and sizes",
    ]
    return ExperimentResult(
        experiment_id="E1",
        title="Theorem 1: asynchronous push-pull time vs synchronous time + log n",
        claim="T_{1/n}(pp-a, G, u) = O(T_{1/n}(pp, G, u) + log n) for every connected graph",
        columns=[
            "family",
            "n",
            "T_hp(pp)",
            "T_hp(pp-a)",
            "sync+ln(n)",
            "c1 = async/(sync+ln n)",
            "Acan mult. bound",
        ],
        rows=rows,
        conclusions=conclusions,
        notes=notes,
    )
