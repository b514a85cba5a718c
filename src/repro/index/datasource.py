"""Custom Python DataSource over the persisted HQI index layout (S7).

The built layout — one ``PartitionData.pack`` row per index partition —
can be persisted to the local filesystem as Parquet partitioned by
qd-tree leaf (``pid``), plus a JSON sidecar holding the layout kind and
the stored pids. ``HQIDataSource`` (PySpark 4 Python Data Source API)
serves those rows back as ``spark.read.format("hqi")`` with **partition
pruning pushed into the scan**: the ``pids`` option — produced by
routing a query workload through the qd-tree's semantic descriptions —
limits the ``InputPartition`` list, so pruned partitions are never
opened, mirroring how the paper's index skips partitions before any
tuple is scanned. The rows carry each partition's centroids, so a loaded
DataFrame serves as ``SparkLayout.df`` as it is.

A true JVM DataSourceV2 would need Scala; the Python Data Source API is
the supported pure-Python equivalent (see DESIGN.md §3).
"""
from __future__ import annotations

import json
import os

from pyspark.sql import SparkSession
from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition

from repro.exec.engine import PACKED_SCHEMA
from repro.index.layout import SparkLayout

META_FILE = "_hqi_meta.json"


def save_layout(layout: SparkLayout, path: str) -> None:
    """Persist a built layout: packed rows as Parquet partitioned by pid,
    plus metadata."""
    layout.df.write.mode("overwrite").partitionBy("pid").parquet(
        os.path.join(path, "data")
    )
    pids = sorted(int(r["pid"]) for r in layout.df.select("pid").collect())
    with open(os.path.join(path, META_FILE), "w") as f:
        json.dump({"kind": layout.plan.kind, "pids": pids}, f)


def load_meta(path: str) -> dict:
    with open(os.path.join(path, META_FILE)) as f:
        return json.load(f)


class HQIDataSource(DataSource):
    """``spark.read.format("hqi").option("path", p).option("pids", "0,3")``.

    Options:
      - ``path`` (required): directory produced by :func:`save_layout`;
      - ``pids`` (optional): comma-separated partition ids to scan — the
        scan-level pruning hook fed by qd-tree routing.
    """

    @classmethod
    def name(cls) -> str:
        return "hqi"

    def schema(self):
        return PACKED_SCHEMA

    def reader(self, schema):
        return _HQIReader(self.options, schema)


class _HQIReader(DataSourceReader):
    def __init__(self, options, schema):
        self.path = options["path"]
        self.schema = schema
        available = load_meta(self.path)["pids"]
        if options.get("pids") is not None:
            wanted = {int(x) for x in str(options["pids"]).split(",") if x != ""}
            self.pids = [p for p in available if p in wanted]
        else:
            self.pids = available

    def partitions(self):
        # One Spark input partition per physical index partition; pruned
        # pids simply never appear here.
        return [InputPartition(int(p)) for p in self.pids]

    def read(self, partition: InputPartition):
        import pyarrow as pa
        import pyarrow.dataset as pads

        if partition is None:  # zero pruned partitions: Spark still runs one task
            return
        pid = int(partition.value)
        part_dir = os.path.join(self.path, "data", f"pid={pid}")
        cols = [f.name for f in self.schema.fields if f.name != "pid"]
        table = pads.dataset(part_dir, format="parquet").to_table(columns=cols)
        for batch in table.to_batches():
            pid_col = pa.array([pid] * batch.num_rows, type=pa.int64())
            yield pa.RecordBatch.from_arrays(
                [pid_col, *batch.columns], names=["pid", *batch.schema.names]
            )


def register(spark: SparkSession) -> None:
    spark.dataSource.register(HQIDataSource)


def read_layout(
    spark: SparkSession, path: str, pids: list[int] | None = None
):
    """Read a persisted layout back as a DataFrame, optionally pruned."""
    register(spark)
    reader = spark.read.format("hqi").option("path", path)
    if pids is not None:
        reader = reader.option("pids", ",".join(str(p) for p in sorted(pids)))
    return reader.load()
