"""The bytes a fleet campaign must write, built without the executor.

A campaign's ``devices-<model>.jsonl`` and ``summary.json`` are a pure
function of its :class:`~repro.fleet.executor.FleetConfig`: unit
layout, transport, trace-tier state and kill-and-resume history are
execution details.  :func:`reference_campaign` writes those two kinds
of file from one plain :func:`~repro.fleet.device.simulate_device`
run per device and model — no unit planner, no lockstep, no trace
tier — so a campaign compared with it is checked against the
per-device reference rather than against another campaign, and
building it leaves no ``.tbx`` memo behind that the run under test
could adopt instead of executing.
"""

import json
from pathlib import Path

from repro.fleet.device import simulate_device
from repro.fleet.population import device_spec
from repro.fleet.telemetry import MODELS_BY_KEY, SummaryFold, \
    device_record, record_line


def reference_campaign(config, out) -> Path:
    """Write ``config``'s expected ``devices-<model>.jsonl`` files and
    ``summary.json`` into ``out``; returns ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    fold = SummaryFold()
    for model_key in config.models:
        for device_id in range(config.devices):
            spec = device_spec(config.seed, device_id,
                               config.rogue_fraction, config.homogeneous)
            run = simulate_device(spec, MODELS_BY_KEY[model_key],
                                  sim_ms=config.sim_ms,
                                  checkpoint_every_ms=config.checkpoint_ms)
            fold.add(model_key, device_record(run, model_key))
        (out / f"devices-{model_key}.jsonl").write_text(
            "".join(record_line(record)
                    for record in fold.records(model_key)))
    summary = fold.summary(
        {"devices": config.devices, "hours": config.hours,
         "models": list(config.models), "seed": config.seed,
         "rogue_fraction": config.rogue_fraction,
         "homogeneous": config.homogeneous})
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return out
