"""Wiring guard: every module, job and benchmark trace point still resolves.

No other test imports the ``jobs/`` entrypoints or the benchmark's span
recorder, so a deleted or moved function they use would otherwise go
unnoticed until a job or a benchmark run fails.
"""
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)
JOBS = sorted(p.name for p in (ROOT / "jobs").glob("*.py"))


def _load(path: Path, name: str):
    """Import a file as module ``name`` (its ``__main__`` block not run)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_src_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize("job", JOBS)
def test_job_imports(job):
    _load(ROOT / "jobs" / job, f"_wiring_job_{Path(job).stem}")


def test_span_patch_targets_resolve():
    """Each name the benchmark's tracer replaces is still where callers
    look it up."""
    spans = _load(ROOT / "perfbench" / "spans.py", "_wiring_spans")
    assert spans.PATCHES
    for target, attr, *_ in spans.PATCHES:
        assert hasattr(spans._resolve(target), attr), f"{target}.{attr}"
