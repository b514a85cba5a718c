"""The ``hqi`` Python DataSource: how Spark reads the index layout (S7).

``write_layout`` stores a built layout in one directory: each index
partition's ``PartitionData.pack`` row once, as one Arrow IPC file, plus a
JSON sidecar holding the layout kind and the *slots*, the pid lists of the
Spark input partitions. ``HQIDataSource`` (PySpark 4 Python Data Source
API) serves the rows back as ``spark.read.format("hqi")``: one
``InputPartition`` per slot, so the rows arrive partitioned as the slots
say, with no shuffle. **Partition pruning is pushed into the scan**: the
``pids`` option — produced by routing queries through the qd-tree's
semantic descriptions — prunes the slots' pid lists and drops the slots it
empties, so pruned partitions are never opened, mirroring how the paper's
index skips partitions before any tuple is scanned.

``layout.materialize_spark`` is the one writer; the DataFrame it caches is
``SparkLayout.df``. Every Spark task reads the directory by path, so
outside local mode it must be on storage the executors share.

A true JVM DataSourceV2 would need Scala; the Python Data Source API is
the supported pure-Python equivalent (see DESIGN.md §3).
"""
from __future__ import annotations

import json
import os

import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.datasource import DataSource, DataSourceReader, InputPartition

from repro.exec.engine import PACKED_SCHEMA, PartitionData

META_FILE = "_hqi_meta.json"


def _part_file(path: str, pid: int) -> str:
    return os.path.join(path, f"pid={pid}.arrow")


def write_layout(
    path: str, kind: str, parts: dict[int, PartitionData], slots: list[list[int]]
) -> None:
    """Write every partition's packed row and the sidecar into ``path``."""
    for pid, part in parts.items():
        table = pa.Table.from_pylist([part.pack()])
        with pa.OSFile(_part_file(path, pid), "wb") as sink:
            with pa.ipc.new_file(sink, table.schema) as writer:
                writer.write_table(table)
    with open(os.path.join(path, META_FILE), "w") as f:
        json.dump({"kind": kind, "slots": slots}, f)


def load_meta(path: str) -> dict:
    with open(os.path.join(path, META_FILE)) as f:
        return json.load(f)


class HQIDataSource(DataSource):
    """``spark.read.format("hqi").option("path", p).option("pids", "0,3")``.

    Options:
      - ``path`` (required): a directory written by :func:`write_layout`;
      - ``pids`` (optional): comma-separated partition ids to scan — the
        scan-level pruning hook fed by qd-tree routing.
    """

    @classmethod
    def name(cls) -> str:
        return "hqi"

    def schema(self):
        return PACKED_SCHEMA

    def reader(self, schema):
        return _HQIReader(self.options)


class _HQIReader(DataSourceReader):
    def __init__(self, options):
        self.path = options["path"]
        self.slots = load_meta(self.path)["slots"]
        if options.get("pids") is not None:
            wanted = {int(x) for x in str(options["pids"]).split(",") if x != ""}
            pruned = ([p for p in slot if p in wanted] for slot in self.slots)
            self.slots = [slot for slot in pruned if slot]

    def partitions(self):
        return [InputPartition(slot) for slot in self.slots]

    def read(self, partition: InputPartition):
        if partition is None:  # zero pruned partitions: Spark still runs one task
            return
        for pid in partition.value:
            with pa.OSFile(_part_file(self.path, pid)) as source:
                yield from pa.ipc.open_file(source).read_all().to_batches()


def read_layout(
    spark: SparkSession, path: str, pids: list[int] | None = None
) -> DataFrame:
    """The layout in ``path`` as a DataFrame, optionally pruned to ``pids``."""
    spark.dataSource.register(HQIDataSource)
    reader = spark.read.format("hqi").option("path", path)
    if pids is not None:
        reader = reader.option("pids", ",".join(str(p) for p in sorted(pids)))
    return reader.load()
