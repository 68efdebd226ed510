"""Shared fixtures: keep the persistent trace tier test-local.

The trace tier is persistent by design; without isolation one
test's published traces would warm another's "cold" run.  Results
stay byte-identical either way — only the executed/replayed split
moves — but the profile tests pin that split, so every test gets a
private tier directory.
"""

import pytest

from repro.fleet import tracetier


@pytest.fixture(autouse=True)
def _isolated_trace_tier(tmp_path_factory, monkeypatch):
    monkeypatch.setenv(
        "REPRO_TRACE_CACHE_DIR",
        str(tmp_path_factory.mktemp("trace-tier")))
    tracetier.clear_tier()
    yield
    tracetier.clear_tier()
