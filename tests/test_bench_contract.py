"""The names the benchmark traces must exist in the package.

`perfbench/spans.py` wraps every function its `TRACED` table names. A name
that no longer resolves turns the metrics that depend on it into null, and the
benchmark's result is then malformed. These tests read that table as it is,
without changing it, and check it against the package.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from bangbang import ModelParams, Regime, load_config, run_scenario, tabulate_kernel

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for package_module, _ in module.TRACED.values():
        importlib.import_module(package_module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    spans = load_spans()
    for span, (module, attr) in spans.TRACED.items():
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"span {span!r}: {module}.{attr} is not a callable"


@pytest.mark.parametrize("regime", list(Regime))
def test_kernel_table_evaluates_through_the_traced_integrands(regime):
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        # a grid and gamma no other test uses, so that the table cache is cold
        tabulate_kernel([0.0, 0.37, 0.74], ModelParams(regime=regime, gamma=0.37))
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.counts.get("kernels.integrand_nodes", 0) > 0


def clear_package_caches():
    """Empty every functools cache in the package, as the benchmark does before a cold round."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bangbang" and module is not None:
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def traced_calls(spans, call):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.active = True
        call()
    finally:
        tracer.active = False
        tracer.uninstall()
    return Counter(tracer.names[i] for i in tracer.name_of)


def test_a_run_solves_and_perturbs_once_per_step_and_tabulates_its_maps_once():
    # per-layer counts keep their meaning only while the maps come from one table
    # per run, written out from the free decay: no `evolve` call at all. After the
    # benchmark's cache sweep a run solves every step again (a cold round stays cold);
    # a second seed of the same scenario only draws its noise
    spans = load_spans()
    clear_package_caches()
    for seed, solves in ((1, 24), (2, 0)):
        calls = traced_calls(spans, lambda: run_scenario(
            load_config(preset="fig1b", num_steps=24, seed=seed)))
        assert calls["control.run"] == 1
        assert calls["control.solve_pulse"] == solves
        assert calls["noise.perturb"] == 24
        assert calls["evolution.evolve"] == 0
