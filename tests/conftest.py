import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(relpath):
    """The module at ``relpath`` of this checkout, loaded once by path.

    It is registered under its file's stem, with its own directory on
    ``sys.path`` while it loads, so that a perfbench module and the sibling
    modules it imports by that name are one module each.  ``sys.path`` and
    ``os.environ`` are put back afterwards: perfbench/run.py and
    tools/bench_record.py pin the BLAS thread counts in ``os.environ`` when
    imported, and the test process's subprocesses must not inherit that.
    """
    path = ROOT / relpath
    if getattr(sys.modules.get(path.stem), "__file__", None) == str(path):
        return sys.modules[path.stem]
    saved_path, saved_env = list(sys.path), dict(os.environ)
    sys.path.insert(0, str(path.parent))
    try:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[path.stem] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[path.stem]
            raise
    finally:
        sys.path[:] = saved_path
        for name in set(os.environ) - set(saved_env):
            del os.environ[name]
        os.environ.update(saved_env)
    return module


@pytest.fixture(scope="session")
def load_module():
    """``load_module(relpath)``: a perfbench or tools module, by path."""
    return _load
