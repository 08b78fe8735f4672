"""Shared spark-submit plumbing for the jobs/ entrypoints.

Each job builds its own SparkSession (spark-submit context) with the
same settings as the test fixture, runs one figure's experiments at a
moderate scale, and prints the result tables that EXPERIMENTS.md
records.
"""
from __future__ import annotations

import atexit
import shutil
import tempfile

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def workdir() -> str:
    """A fresh directory for the job's indexes, removed when the job exits."""
    path = tempfile.mkdtemp(prefix="coconut_job_")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path
