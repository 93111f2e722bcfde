"""The package root exports what its ``__all__`` names, and importing it
costs no more than the commands need."""

import subprocess
import sys
import textwrap
from pathlib import Path

import weightpred


def test_every_exported_name_resolves():
    missing = [name for name in weightpred.__all__ if not hasattr(weightpred, name)]
    assert missing == []


def test_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert f'\nversion = "{weightpred.__version__}"\n' in pyproject.read_text(encoding="utf-8")


def test_numpy_random_is_imported_only_to_sample(tmp_path):
    # Importing numpy.random takes 6-9 ms of wall time per process; a command
    # that never samples should not pay it.  A fresh process, since this one
    # may have imported it already.
    path = tmp_path / "edges.csv"
    path.write_text("a,x,1,5\nb,x,-2,6\na,y,3,7\n", encoding="utf-8")
    code = textwrap.dedent(f"""
        import sys
        import weightpred, weightpred.cli
        from weightpred.ingest import DatasetSpec, build_snapshot, make_rng
        build_snapshot(DatasetSpec({str(path)!r}, (-10.0, 10.0), True)).digest()
        print("numpy.random" in sys.modules)
        make_rng(0)
        print("numpy.random" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout.split(), proc.stderr) == (0, ["False", "True"], "")
