"""The benchmark's tracer (perfbench/tracing.py) rebinds names in the

package's modules. Installing it fails if one of those names is gone,
so a rename shows here and not only in a traced benchmark run.
"""
import importlib.util
from pathlib import Path

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
