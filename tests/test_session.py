"""Tests for ``forget_zip_finders`` and ``python_task``, without Spark: a zip package on sys.path."""
import importlib
import sys
import zipfile
import zipimport
from types import SimpleNamespace

import pytest

from repro.core.spark_gbabs import granulate_partitions
from repro.harness.grid import run_grid
from repro.harness.session import forget_zip_finders, python_task


def _zip_finders() -> list:
    return [f for f in sys.path_importer_cache.values() if isinstance(f, zipimport.zipimporter)]


@pytest.fixture
def zip_package(tmp_path):
    """A package ``zpkg`` with modules ``first`` and ``second``, in a zip on sys.path."""
    path = str(tmp_path / "zpkg.zip")
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("zpkg/__init__.py", "")
        zf.writestr("zpkg/first.py", "VALUE = 1\n")
        zf.writestr("zpkg/second.py", "VALUE = 2\n")
    saved_path, saved_cache = list(sys.path), dict(sys.path_importer_cache)
    sys.path.insert(0, path)
    try:
        yield path
    finally:
        sys.path[:] = saved_path
        sys.path_importer_cache.clear()
        sys.path_importer_cache.update(saved_cache)
        for name in ("zpkg", "zpkg.first", "zpkg.second"):
            sys.modules.pop(name, None)


def test_forget_zip_finders(zip_package, monkeypatch):
    reads = []
    read_directory = zipimport._read_directory
    monkeypatch.setattr(
        zipimport, "_read_directory", lambda path: reads.append(path) or read_directory(path)
    )
    import zpkg.first

    assert zpkg.first.VALUE == 1 and _zip_finders()
    # The finders it left behind make invalidate_caches re-read the zip.
    importlib.invalidate_caches()
    assert reads.count(zip_package) >= 1

    forget_zip_finders()
    assert not _zip_finders()
    reads.clear()
    importlib.invalidate_caches()
    assert reads == []

    import zpkg.second

    assert zpkg.second.VALUE == 2
    assert zpkg.second.__file__.startswith(zip_package)
    assert isinstance(zpkg.second.__loader__, zipimport.zipimporter)
    # Its finder came from zipimport's shared directory cache, not the zip.
    assert reads == []


class _CapturedBody:
    """Stands in for a session and a DataFrame; keeps the ``mapInPandas`` body."""

    sparkContext = SimpleNamespace(defaultParallelism=1)
    columns = ["f0", "label", "_sid"]
    body = None

    def range(self, *args, **kwargs):
        return self

    def mapInPandas(self, body, schema):
        self.body = body
        return self


def _importing(batches):
    """The task's input, which imports from the zip while it is read."""
    import zpkg.first  # noqa: F401

    assert _zip_finders()
    yield from batches


@pytest.mark.parametrize("task", ["run_grid", "granulate_partitions"])
def test_task_body_leaves_no_zip_finder(zip_package, task):
    captured = _CapturedBody()
    if task == "run_grid":
        run_grid(captured, datasets=["S1"], n_splits=2)
    else:
        granulate_partitions(captured)
    assert list(captured.body(_importing([]))) == []
    assert not _zip_finders()


def test_failing_task_body_leaves_no_zip_finder(zip_package):
    """A body that raises mid-iteration still forgets the finders its imports built."""

    @python_task
    def failing(batches):
        for batch in _importing(batches):
            yield batch
            raise RuntimeError("task failed")

    task = failing(iter(["batch"]))
    assert next(task) == "batch"
    with pytest.raises(RuntimeError, match="task failed"):
        next(task)
    assert not _zip_finders()
