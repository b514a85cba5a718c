"""Repository benchmark: batch throughput at the recall target, set-up
time and memory on hybrid-query workloads, plus a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload msturing-hqi --seed 1 --seconds 15 --trace 0

Workloads are listed in ``perfbench/workloads.py``. Each run is a closed
loop in one process: the whole workload is submitted as one batch through
``exec.strategies.run_queries``, and the next batch goes only after the
previous one returned. A run

1. generates the inputs from ``--seed`` and the exhaustive ground truth
   (``exec.recall.exhaustive_local``) for a seeded quarter of the
   queries plus the tuning sample;
2. sets up ``SETUP_REPS`` times: ``build_index`` plus ``tune_nprobe``
   (per-template nprobe doubled until recall 0.8 on the tuning sample,
   §6.1 of the paper); ``setup_s`` and ``build_s`` are the medians;
3. checks full-probe exactness: at nprobe = #lists the tuning sample
   must return exactly the exhaustive ids;
4. runs one warm-up batch, then timed batches for ``--seconds`` of batch
   time, checking every answer of every batch (``checks.py``) and that
   the answers and work counters repeat exactly.

Every wrong answer counts as a failed query; a batch that raises fails
all its queries. The last stdout line is the result object; the line
before it holds the environment stamp and run details.

``--trace 1`` alternates untraced and traced batches and reports
per-layer metrics instead (``tracing.py``, ``layers.py``). It then runs
the same batch on the Spark engine against a Spark-built layout: full
probe again, one warm-up and ``SPARK_TIMED_BATCHES`` traced batches whose
answers and counters must be bit-identical to the local batches'. Spans
and run records are written to ``.perfbench/``. ``--quick`` uses the
test-scale inputs, for a smoke check of the benchmark itself.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"  # run records, spans, Spark scratch space

BLAS_THREADS = 1
SETUP_REPS = 3
MIN_TIMED_BATCHES = 3
SPARK_WARMUP_BATCHES = 1
SPARK_TIMED_BATCHES = 3
SPARK_SHUFFLE_PARTITIONS = 16
SPARK_MEMORY = "2g"


def _prepare_env() -> None:
    """Process environment that must be fixed before numpy or the JVM load."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    sys.path.insert(0, str(SRC))


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _git_commit() -> str:
    """HEAD of the checkout when it is a git repository, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_build() -> str:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')} ({cfg.get('openblas configuration', '')})"
    except (TypeError, KeyError):
        return "unknown"


def _reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark (VmHWM) so the peak covers only what
    follows; False where /proc does not support it."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- Spark
def _start_spark(n_cores: int):
    """Local-mode SparkSession whose scratch files stay under WORK."""
    local_dir = WORK / "spark-local"
    local_dir.mkdir(parents=True, exist_ok=True)
    # Every JVM the launcher starts keeps its temp and perf-data files
    # out of /tmp; SPARK_LOCAL_DIRS would override spark.local.dir.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={WORK / 'tmp'} -XX:-UsePerfData"
    )
    os.environ["SPARK_LOCAL_DIRS"] = str(local_dir)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{n_cores}]",
            f"--driver-memory {SPARK_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SPARK_SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        # Workers get this process's BLAS thread count: threaded OpenBLAS
        # rounds differently per thread count, and the local/Spark parity
        # check compares results bit for bit.
        .config("spark.executorEnv.OPENBLAS_NUM_THREADS", str(BLAS_THREADS))
        .config("spark.executorEnv.OMP_NUM_THREADS", str(BLAS_THREADS))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _stop_spark(spark) -> None:
    """Stop the session, then the JVM and its Python workers, and wait
    until every one of those processes has ended."""
    import signal
    import subprocess

    sc = spark.sparkContext
    proc = sc._gateway.proc
    others = _descendants(proc.pid)
    spark.stop()
    proc.stdin.close()  # the launcher JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 30
    while any(_alive(p) for p in others) and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in others:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    while any(_alive(p) for p in others):
        time.sleep(0.1)


# ---------------------------------------------------------------- run
def _sample_positions(workload, per_template: int, seed: int):
    import numpy as np

    from repro.exec.tuning import sample_workload

    sub = sample_workload(workload, per_template, seed=seed)
    return sub, np.flatnonzero(np.isin(workload.qids, sub.qids))


def _n_lists(built) -> int:
    plan = built.plan
    if plan.lists_are_global:
        return len(plan.global_centroids)
    return max(len(p.centroids) for p in built.parts.values())


class BatchRunner:
    """Submits one batch at a time, checks every answer, keeps the records.

    A query fails when its batch raised or its answer fails a check in
    ``checks.py``. All queries of a batch fail when its work counters
    differ from the first batch's. Once ``reference`` is set, an answer
    that is not bit-identical to the reference answer fails too.
    """

    def __init__(self, workload, checker, gt, gt_sample, tracer):
        self.workload, self.checker, self.tracer = workload, checker, tracer
        self.gt, self.gt_qids = gt, gt_sample.qids
        self.records: list[dict] = []
        self.attempted = self.failed = 0
        self.first_counters = None
        self.reference = None
        self.last_result = None

    def count(self, n_attempted: int, n_failed: int) -> None:
        self.attempted += n_attempted
        self.failed += n_failed

    def run(self, phase: str, run_fn, *, traced: bool, spark=None) -> dict:
        import numpy as np

        from checks import counters, mismatched
        from repro.exec.recall import recall_at_k

        workload = self.workload
        i = len(self.records)
        if spark is not None:
            spark.sparkContext.setJobGroup(f"batch-{i}", "perfbench batch")
        self.tracer.batch, self.tracer.enabled = i, traced
        t0 = time.perf_counter()
        try:
            res = run_fn()
        except Exception:  # a failed batch fails all its queries
            traceback.print_exc()
            res = None
        wall = time.perf_counter() - t0
        self.tracer.enabled = False
        rec = {"batch": i, "phase": phase, "traced": traced, "wall_s": wall}
        if res is None:
            bad = np.ones(workload.nq, dtype=bool)
        else:
            bad = self.checker.failed(res, workload, full_probe=False)
            ctr = counters(res)
            if self.first_counters is None:
                self.first_counters = ctr
            elif ctr != self.first_counters:
                bad[:] = True
            if self.reference is not None:
                bad |= mismatched(res, self.reference, workload)
            rec.update(
                recall=recall_at_k(res, self.gt, qids=self.gt_qids),
                short_answers=self.checker.short_answers(res, workload),
                tuples_scanned=res.tuples_scanned,
                distance_computations=res.distance_computations,
            )
        if spark is not None:
            rec.update(_spark_job_counts(spark, f"batch-{i}"))
        rec["failed"] = int(bad.sum())
        self.count(workload.nq, rec["failed"])
        self.records.append(rec)
        self.last_result = res
        return rec


def _spark_job_counts(spark, group: str) -> dict:
    tracker = spark.sparkContext.statusTracker()
    stages = [
        s
        for j in tracker.getJobIdsForGroup(group)
        if (info := tracker.getJobInfo(j)) is not None
        for s in info.stageIds
    ]
    tasks = sum(
        st.numTasks for s in stages if (st := tracker.getStageInfo(s)) is not None
    )
    return {"spark_stages": len(stages), "spark_tasks": tasks}


def run(args) -> dict:
    import numpy as np
    import pandas as pd
    import pyspark

    from checks import AnswerChecker, ids_mismatched
    from repro.bench.config import SCALES
    from repro.exec.recall import exhaustive_local
    from repro.exec.strategies import build_index, run_queries
    from repro.exec.tuning import tune_nprobe
    from tracing import Tracer
    from workloads import CORPUS_SEED, WORKLOADS, make_inputs

    spec = WORKLOADS[args.workload]
    scale = SCALES["test" if args.quick else "bench"]
    k, seed, trace = scale.k, args.seed, bool(args.trace)
    # Spark task slots x BLAS threads per task stays within nproc (<= 4).
    spark_cores = max(1, min(4, _nproc()) // BLAS_THREADS)
    log = lambda *a: print(*a, file=sys.stderr, flush=True)  # noqa: E731

    # ---- inputs and ground truth (not part of any metric)
    dataset, workload, index_workload = make_inputs(spec, scale, seed)
    nq = workload.nq
    n_templates = len(np.unique(workload.qtemplates))
    tune_sample, tune_pos = _sample_positions(workload, scale.tune_per_template, seed)
    gt_sample, gt_pos = _sample_positions(
        workload, max(scale.tune_per_template, nq // (4 * n_templates)), seed
    )
    gt = exhaustive_local(dataset, workload.subset(np.union1d(tune_pos, gt_pos)), k)
    checker = AnswerChecker(dataset, workload, k)
    log(f"[perfbench] {spec.name}: n={dataset.n} d={dataset.dim} nq={nq} "
        f"gt_queries={len(gt.ids_by_qid)}")
    build_args = dict(min_size=scale.min_size, n_buckets=scale.n_buckets, seed=CORPUS_SEED)

    tracer = Tracer()
    runner = BatchRunner(workload, checker, gt, gt_sample, tracer)
    if trace:
        tracer.install()
    spark = None
    try:
        peak_reset = _reset_peak_rss()

        # ---- set-up, repeated; medians reported
        setup_s, build_s = [], []
        max_nprobe = int(np.sqrt(dataset.n)) + 1  # >= lists in any partition
        for rep in range(SETUP_REPS):
            tracer.batch, tracer.enabled = f"setup-{rep}", trace
            t0 = time.perf_counter()
            built = build_index(spec.approach, dataset, index_workload, **build_args)
            t_build = time.perf_counter() - t0

            def tune_round(cfg, built=built):
                with tracer.span("tuning.round"):
                    return run_queries(built, tune_sample, k=k, nprobe_by_tid=cfg)

            with tracer.span("tuning"):
                outcome = tune_nprobe(
                    tune_round, tune_sample, gt, target=scale.target_recall,
                    max_nprobe=max_nprobe,
                )
            setup_s.append(time.perf_counter() - t0)
            build_s.append(t_build)
            tracer.enabled = False
        nprobe = outcome.nprobe_by_tid
        full_probe = {t: _n_lists(built) for t in nprobe}
        log(f"[perfbench] setup_s={setup_s} nprobe={nprobe} "
            f"tuned_recall_reached={outcome.reached}")

        def full_probe_check(index, **engine_args) -> int:
            """Failed queries of the tuning sample at nprobe = #lists."""
            fp = run_queries(index, tune_sample, k=k, nprobe_by_tid=full_probe, **engine_args)
            bad = ids_mismatched(fp, gt, tune_sample)
            bad |= checker.failed(fp, tune_sample, full_probe=True)
            runner.count(tune_sample.nq, int(bad.sum()))
            return int(bad.sum())

        full_probe_failed = {"local": full_probe_check(built)}

        # ---- closed loop of local batches
        def local_batch():
            return run_queries(built, workload, k=k, nprobe_by_tid=nprobe)

        runner.run("warmup", local_batch, traced=False)
        runner.reference = runner.last_result
        timed_total, n_timed = 0.0, 0
        while timed_total < args.seconds or n_timed < MIN_TIMED_BATCHES * (1 + trace):
            rec = runner.run("timed", local_batch, traced=trace and n_timed % 2 == 1)
            timed_total += rec["wall_s"]
            n_timed += 1
        peak_rss = _peak_rss_mb()

        # ---- traced run only: the same batch on the Spark engine
        spark_build_s = None
        if trace:
            spark = _start_spark(spark_cores)
            tracer.batch, tracer.enabled = "spark-setup", True
            t0 = time.perf_counter()
            sbuilt = build_index(
                spec.approach, dataset, index_workload, engine="spark", spark=spark,
                **build_args,
            )
            spark_build_s = time.perf_counter() - t0
            tracer.enabled = False
            full_probe_failed["spark"] = full_probe_check(sbuilt, engine="spark", spark=spark)

            def spark_batch():
                return run_queries(
                    sbuilt, workload, k=k, nprobe_by_tid=nprobe, engine="spark", spark=spark
                )

            for b in range(SPARK_WARMUP_BATCHES + SPARK_TIMED_BATCHES):
                runner.run(
                    "spark-warmup" if b < SPARK_WARMUP_BATCHES else "spark",
                    spark_batch, traced=b >= SPARK_WARMUP_BATCHES, spark=spark,
                )
    finally:
        tracer.uninstall()
        if spark is not None:
            _stop_spark(spark)

    records = runner.records
    timed = [r for r in records if r["phase"] == "timed"]
    if not trace:
        walls = [r["wall_s"] for r in timed]
        recalls = [r["recall"] for r in timed if "recall" in r]
        metrics = {
            "qps": (nq / statistics.median(walls), "1/s"),
            "recall": (statistics.median(recalls) if recalls else 0.0, "frac"),
            "setup_s": (statistics.median(setup_s), "s"),
            "build_s": (statistics.median(build_s), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    else:
        from layers import layer_metrics

        metrics = layer_metrics(
            tracer.spans, records, nq=nq, n_parts=built.plan.n_parts,
            qdtree_leaves=built.plan.tree.n_leaves if built.plan.tree else 0,
            spark_build_s=spark_build_s,
            failed_frac=runner.failed / runner.attempted,
        )

    env = {
        "workload": spec.name,
        "seed": seed,
        "scale": scale.name,
        "n": dataset.n,
        "dim": dataset.dim,
        "nq": nq,
        "nproc": _nproc(),
        "blas_threads": BLAS_THREADS,
        "blas_build": _blas_build(),
        "numpy": np.__version__,
        "pandas": pd.__version__,
        "pyspark": pyspark.__version__,
        "python": platform.python_version(),
        "spark_master": f"local[{spark_cores}]" if trace else None,
        "spark_shuffle_partitions": SPARK_SHUFFLE_PARTITIONS if trace else None,
        "git_commit": _git_commit(),
        "peak_rss_reset": peak_reset,
    }
    details = {
        "env": env,
        "nprobe_by_tid": {str(t): v for t, v in sorted(nprobe.items())},
        "tuned_recall_by_tid": {str(t): r for t, r in sorted(outcome.recall_by_tid.items())},
        "setup_s": setup_s,
        "build_s": build_s,
        "spark_build_s": spark_build_s,
        "full_probe_failed": full_probe_failed,
        "batches": records,
    }
    stem = f"{spec.name}-seed{seed}-trace{int(trace)}{'-quick' if args.quick else ''}"
    with open(WORK / f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    if trace:
        tracer.write(WORK / f"{stem}-spans.json")
    print(json.dumps({
        "env": env,
        "nprobe_by_tid": details["nprobe_by_tid"],
        "timed_batch_walls_s": [round(r["wall_s"], 4) for r in timed],
    }))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="test-scale inputs")
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    _prepare_env()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
