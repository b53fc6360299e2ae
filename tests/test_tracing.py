"""The benchmark's tracer (perfbench/tracing.py) rebinds names in the

package's modules. Installing it fails if one of those names is gone,
so a rename shows here and not only in a traced benchmark run. The GA's
per-generation rollout time is read from the spans of that rebinding.
"""
import importlib.util
from pathlib import Path

import numpy as np

import aavtraj.baselines
from aavtraj import GaConfig, generate_scenario

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores_every_name():
    tracing = load_tracing()
    targets = [(module, attr) for module, attr, *_ in tracing.PATCHES + tracing.GA_PATCHES]
    originals = [getattr(module, attr) for module, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), orig in zip(targets, originals):
            wrapped = getattr(module, attr)
            assert wrapped is not orig and wrapped.__wrapped__ is orig, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for (module, attr), orig in zip(targets, originals):
        assert getattr(module, attr) is orig, f"{module.__name__}.{attr}"


def traced_ga(tracer, scn, cfg) -> list:
    """Run ga_optimize under the installed tracer; returns the steps of each fitness rollout."""
    traced_rollout = aavtraj.baselines.rollout
    steps = []

    def recording(*args):
        traj = traced_rollout(*args)
        steps.append(traj.steps)
        return traj

    aavtraj.baselines.rollout = recording
    try:
        tracer.active = True
        aavtraj.baselines.ga_optimize(scn, cfg)
        tracer.active = False
    finally:
        aavtraj.baselines.rollout = traced_rollout
    return steps


def test_ga_fitness_rollouts_are_recorded_as_open_loop_spans():
    # baselines.ga.rollout_ms_per_gen reads the env.rollout.open spans under
    # each GA run, so the fitness rollouts must keep reaching the traced name.
    # On these missions a member may end in its first segment, so each
    # member's first segment stays a rollout of its own.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    cfg = GaConfig(population=6, generations=3, chromosome_length=120, seed=0)
    try:
        steps = traced_ga(tracer, generate_scenario(0, k=4, demand_lo=4, demand_hi=8), cfg)
    finally:
        tracer.uninstall()

    spans = tracer.arrays()
    opened = spans["name_id"] == tracer.names.index("env.rollout.open")
    # generation 0 rolls out the whole population, later ones only the bred children
    bred = cfg.population - cfg.elitism
    assert opened.sum() == len(steps) == cfg.population + cfg.generations * bred
    assert spans["value"][opened].sum() == sum(steps)
    metrics = tracer.layer_metrics(rounds=1)
    per_gen = [sum(steps[cfg.population + g * bred:cfg.population + (g + 1) * bred]) for g in range(cfg.generations)]
    assert metrics["baselines.ga.rollout_steps_per_gen"][0] == np.median(per_gen)
    assert metrics["env.rollout.open_us_per_step"][0] > 0


def test_long_preset_ga_makes_no_fitness_rollout():
    # no member can end in its first segment, so the population pass runs
    # every step and baselines.ga.rollout_ms_per_gen has no span to read
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        steps = traced_ga(tracer, generate_scenario(0, k=4, demand_lo=20, demand_hi=40),
                          GaConfig(population=6, generations=3, chromosome_length=120, seed=0))
    finally:
        tracer.uninstall()
    assert steps == []
    assert "baselines.ga_optimize" in tracer.names and "env.rollout.open" not in tracer.names
