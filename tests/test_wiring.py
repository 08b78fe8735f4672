"""Wiring guard: every module, job and benchmark trace point still
resolves, and every trace point is still called.

No other test imports the ``jobs/`` entrypoints or the benchmark's span
recorder, so a deleted or moved function they use would otherwise go
unnoticed until a job or a benchmark run fails.
"""
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import numpy as np
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


def test_span_patch_targets_are_called(spark, tmp_path, monkeypatch):
    """Each traced name is still *called* where it is looked up: a tiny
    CTree, a CTreeFull with one merged batch, a CTrie, and one
    approximate and one exact query reach every trace point.  A target
    that still resolves but is no longer called would silently zero its
    layer in the benchmark's per-layer figures."""
    from repro.core import coconut_tree, coconut_trie, query
    from repro.synth_data import series_collection

    spans = _load(ROOT / "perfbench" / "spans.py", "_wiring_spans")
    calls = {}
    for target, attr, *_ in spans.PATCHES:
        owner = spans._resolve(target)
        key = f"{target}.{attr}"
        calls[key] = 0

        def counted(*args, _fn=getattr(owner, attr), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    df = series_collection(spark, n_series=60, length=16, seed=3)
    batch = series_collection(spark, n_series=10, length=16, seed=3, id_offset=60)
    kw = dict(w=4, bits=4, leaf_capacity=10)
    ctree = coconut_tree.build_coconut_tree(spark, df, path=str(tmp_path / "t"), **kw)
    full = coconut_tree.build_coconut_tree(
        spark, df, path=str(tmp_path / "f"), materialized=True, **kw
    )
    coconut_tree.merge_batch(full, batch, path=str(tmp_path / "m")).close()
    coconut_trie.build_coconut_trie(spark, df, path=str(tmp_path / "r"), **kw)
    q = np.linspace(-1.0, 1.0, 16)
    query.approximate_search(ctree, q)
    query.exact_search(ctree, q)
    ctree.close()
    assert [k for k, n in calls.items() if n == 0] == []
