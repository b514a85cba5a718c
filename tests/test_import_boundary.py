"""The driver-side core imports no pyspark: building indexes, tuning and
checking results against DuckDB run without a JVM."""
import subprocess
import sys


def test_core_modules_do_not_import_pyspark():
    code = (
        "import sys\n"
        "import repro.core.types, repro.exec.recall, repro.exec.tuning, repro.oracle\n"
        "assert 'pyspark' not in sys.modules, sorted(m for m in sys.modules if 'spark' in m)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
