"""Per-template nprobe tuning to a target recall (S10).

§6.1: "nprobe, the number of posting lists scanned, is tuned for each
query template to reach the target recall [0.8 at k = 10]." We tune all
templates jointly: run once with the current per-template configuration,
measure per-template recall on a query sample, double nprobe for the
templates still below target, repeat. Templates that cannot reach the
target at the nprobe cap (PostFilter on selective filters) are reported
with their best achieved recall — the paper's "-" entries.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.types import Workload
from repro.exec.recall import recall_by_template


@dataclass
class TuneOutcome:
    nprobe_by_tid: dict[int, int]
    recall_by_tid: dict[int, float] = field(default_factory=dict)
    reached: bool = True


def sample_workload(
    workload: Workload, per_template: int, seed: int = 0
) -> Workload:
    """Up to ``per_template`` queries of each template, for cheap tuning."""
    rng = np.random.default_rng(seed)
    keep = []
    for tid in np.unique(workload.qtemplates):
        qpos = workload.queries_of_template(int(tid))
        if len(qpos) > per_template:
            qpos = rng.choice(qpos, size=per_template, replace=False)
        keep.append(np.sort(qpos))
    return workload.subset(np.concatenate(keep))


def tune_nprobe(
    run_fn,  # (nprobe_by_tid) -> RunResult over the sample workload
    sample: Workload,
    gt,  # RunResult ground truth covering the sample's qids
    *,
    target: float = 0.8,
    max_nprobe: int = 4096,
) -> TuneOutcome:
    tids = [int(t) for t in np.unique(sample.qtemplates)]
    nprobe = {t: 1 for t in tids}
    pending = set(tids)
    best_recall: dict[int, float] = {t: 0.0 for t in tids}
    while True:
        result = run_fn(dict(nprobe))
        recalls = recall_by_template(result, gt, sample)
        for t in list(pending):
            best_recall[t] = recalls.get(t, 0.0)
            if best_recall[t] >= target:
                pending.discard(t)
        still = [t for t in pending if nprobe[t] < max_nprobe]
        if not still:
            break
        for t in still:
            nprobe[t] = min(nprobe[t] * 2, max_nprobe)
    return TuneOutcome(
        nprobe_by_tid=nprobe,
        recall_by_tid=best_recall,
        reached=not pending,
    )
