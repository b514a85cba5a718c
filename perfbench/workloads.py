"""The benchmark's workloads: generated inputs plus the approach that
serves them.

The corpus of each workload is fixed (generator seed ``CORPUS_SEED``, as
the paper's datasets are fixed) and so is the index built over it; the
workload seed draws the query log, and through it the tuning and
ground-truth samples. With a seed-dependent corpus the tuned nprobe of
the rarest RelatedQS template flips between 64 and 128 from one corpus to
the next, which halves or doubles a batch's work, so seed-to-seed spread
would measure the corpus rather than the program.

- ``msturing-hqi``: BIGANN-lite MSTuring (L2), 20 range templates x the
  query vectors; HQI qd-tree layout, Algorithm 3 batching, local engine.
  Time sits in ``core.distance`` and ``IVFIndex.batch_search``.
- ``relatedqs-prefilter``: synthetic KG, RelatedQS split t0 (IP), ten
  IN / IS NOT NULL templates; PreFilter (flat global IVF, per-query
  ``IVFIndex.search``, bitmap pushdown), local engine. Time sits in the
  per-query scan loop, ``search_partition``, routing and masks.

The traced run (``--trace 1``) of each workload also runs its batch on
the Spark engine against the cached Spark-built layout, with the same
inputs and tuned nprobe; that is where ``exec.spark_engine`` is measured.
"""
from __future__ import annotations

from dataclasses import dataclass

CORPUS_SEED = 0


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    dataset: str  # "msturing" | "relatedqs"
    approach: str  # repro.exec.strategies approach


WORKLOADS = {
    w.name: w
    for w in (
        WorkloadSpec("msturing-hqi", "msturing", "hqi"),
        WorkloadSpec("relatedqs-prefilter", "relatedqs", "prefilter"),
    )
}


def make_inputs(spec: WorkloadSpec, scale, seed: int):
    """``(dataset, workload, index_workload)``; the index workload is the
    historical log HQI builds its qd-tree from (None for the baselines)."""
    if spec.dataset == "msturing":
        from repro.bench.datasets import bigann_lite, bigann_workload

        dataset = bigann_lite("msturing", n=scale.bigann_n, seed=CORPUS_SEED)
        # Query vectors come from their own mixture, as in the Table 3
        # harness (corpus seed 0, query seed 1 at workload seed 0).
        workload = bigann_workload(dataset, nq=scale.bigann_nq, seed=CORPUS_SEED + 1 + seed)
    else:
        from repro.kg.entities import kg_entities
        from repro.kg.workload import relatedqs_workload

        dataset = kg_entities(n=scale.kg_n, dim=scale.kg_dim, seed=CORPUS_SEED)
        workload = relatedqs_workload(
            dataset, n_queries_per_split=scale.relatedqs_per_split, seed=seed
        )[0]
    return dataset, workload, workload if spec.approach == "hqi" else None
