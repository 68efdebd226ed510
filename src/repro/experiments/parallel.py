"""Parallel fan-out of the paper's experiment suite.

Every experiment decomposes into *cells* that share nothing with each
other (fresh firmware, fresh machine, explicit arguments):

* Table 1 — one cell per isolation model,
* Figure 3 — one cell per model (the machine, and therefore app state,
  is shared across the three cases *within* a model),
* code size — one cell per model,
* Figure 2 — the ARP profiling chain is one sequential cell (its
  sensor arguments come from a single seeded LCG, so app order
  matters; see :func:`repro.experiments.figure2.profile_suite`), run
  concurrently with the Table 1 cells it combines with.

Cells run in worker processes via the shared pool helper
(:func:`repro.pool.worker_pool`, which the fleet executor reuses); the
parent merges results in the exact order the serial loops use, so the
output is byte-for-byte identical to ``--jobs 1``.  Workers share the
on-disk firmware build cache (:mod:`repro.aft.cache`), so each
firmware is compiled at most once across the whole fan-out.

Worker functions live at module level so they pickle under any start
method; all cell inputs (models, counts, ``AppSource`` lists) and
outputs (``ModelCosts``, ``ArpProfile``, plain dicts) are picklable
dataclasses or builtins.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Dict, List, Sequence, Tuple

from repro.aft.models import IsolationModel
from repro.aft.phases import AppSource
from repro.apps.catalog import SUITE_NAMES, load_suite
from repro.experiments import code_size as code_size_mod
from repro.experiments import figure2 as figure2_mod
from repro.experiments import figure3 as figure3_mod
from repro.experiments import table1 as table1_mod
from repro.experiments.code_size import SIZE_MODELS, CodeSizeResult
from repro.experiments.figure3 import CASES, Figure3Result
from repro.experiments.report import FullReport
from repro.experiments.table1 import DEFAULT_MODELS, Table1Result
from repro.pool import worker_pool


# -- module-level cell workers (must be picklable) ----------------------
def _table1_cell(model: IsolationModel, runs: int,
                 loop_iterations: int):
    return table1_mod.measure_model(model, runs, loop_iterations)


def _figure3_cell(model: IsolationModel, runs: int):
    return figure3_mod.measure_model(model, runs)


def _code_size_cell(model: IsolationModel, sources: List[AppSource]):
    return code_size_mod.measure_model(model, sources)


def _arp_cell(apps: Tuple[str, ...], arp_samples: int):
    return figure2_mod.profile_suite(apps, arp_samples)


# -- deterministic merges ----------------------------------------------
def _merge_table1(futures: Dict[IsolationModel, Future],
                  models: Sequence[IsolationModel], runs: int,
                  loop_iterations: int) -> Table1Result:
    result = Table1Result(runs=runs, loop_iterations=loop_iterations)
    for model in models:                 # serial iteration order
        result.costs[model] = futures[model].result()
    return result


def _merge_figure3(futures: Dict[IsolationModel, Future],
                   models: Sequence[IsolationModel],
                   runs: int) -> Figure3Result:
    result = Figure3Result(runs=runs)
    for label, _app, _handler in CASES:
        result.cycles[label] = {}
    for model in models:
        cell = futures[model].result()
        for label, avg in cell.items():
            result.cycles[label][model] = avg
    return result


def _merge_code_size(futures: Dict[IsolationModel, Future],
                     models: Sequence[IsolationModel]) -> CodeSizeResult:
    result = CodeSizeResult()
    for model in models:
        for name, size in futures[model].result().items():
            result.sizes.setdefault(name, {})[model] = size
    return result


# -- public entry point -------------------------------------------------
def run_all_parallel(jobs: int,
                     table1_runs: int = 100,
                     figure3_runs: int = 100,
                     arp_samples: int = 32,
                     include_code_size: bool = True) -> FullReport:
    """Parallel ``run_all``: every independent cell of every experiment
    is submitted to one shared pool up front, then merged in serial
    order — output identical to :func:`repro.experiments.report.run_all`.
    """
    from repro.experiments.report import run_all
    if jobs <= 1:
        return run_all(table1_runs=table1_runs,
                       figure3_runs=figure3_runs,
                       arp_samples=arp_samples,
                       include_code_size=include_code_size)
    sources = load_suite()
    with worker_pool(jobs) as pool:
        t1_futures = {m: pool.submit(_table1_cell, m, table1_runs, 64)
                      for m in DEFAULT_MODELS}
        arp_future = pool.submit(_arp_cell, tuple(SUITE_NAMES),
                                 arp_samples)
        f3_futures = {m: pool.submit(_figure3_cell, m, figure3_runs)
                      for m in DEFAULT_MODELS}
        cs_futures = {m: pool.submit(_code_size_cell, m, sources)
                      for m in SIZE_MODELS} if include_code_size else {}

        table1 = _merge_table1(t1_futures, DEFAULT_MODELS,
                               table1_runs, 64)
        profiles = arp_future.result()
        figure2 = figure2_mod.run_figure2(table1=table1,
                                          arp_samples=arp_samples,
                                          profiles=profiles)
        figure3 = _merge_figure3(f3_futures, DEFAULT_MODELS,
                                 figure3_runs)
        code_size = (_merge_code_size(cs_futures, SIZE_MODELS)
                     if include_code_size else None)
    return FullReport(table1, figure2, figure3, code_size)
