"""The public API: the names ``entrot`` exports, that every module's
``__all__`` names something that exists, and that the benchmark's traced
functions are among them."""

import importlib
import importlib.util
import pathlib
import pkgutil

import entrot

PUBLIC_API = [
    "CaseLabel", "CheckResult", "EntanglementReport", "OptimumResult",
    "PovmSet", "PovmWeights", "ProtocolParams", "RunOutcome", "StateVector",
    "SummaryStats", "__version__", "all_passed", "apply_gate",
    "average_cost", "bell_conversion_prob", "binary_entropy", "build_povm",
    "controlled_rotation", "det_e3", "discriminant", "fidelity",
    "haar_state", "min_cost_over_alpha", "monte_carlo", "optimum",
    "pmax_oracle", "povm_vectors", "resource_entropy", "run_checks",
    "run_once", "threshold_theta", "tr_e3", "wrap_angle",
]


def test_package_exports_the_pinned_api():
    assert sorted(entrot.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    modules = [entrot] + [
        importlib.import_module(f"entrot.{info.name}")
        for info in pkgutil.iter_modules(entrot.__path__)
        if info.name != "__main__"]
    assert len(modules) >= 8
    for module in modules:
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """A perfbench module, loaded by path without running its main."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_traced_functions_are_public_functions():
    """``perfbench/run.py`` reports per-layer metrics under fixed names.
    Each must stay a plain function in its layer's ``__all__``: a
    removed name, or one wrapped by ``lru_cache`` (not
    ``inspect.isfunction``), drops out and breaks ``--trace 1``."""
    traced = _load("run").TRACED_FUNCTIONS
    public = _load("layertrace").public_functions()
    missing = [f"{layer}.{fn}" for layer, fns in traced.items()
               for fn in fns if f"{layer}.{fn}" not in public]
    assert not missing, f"missing {missing}"
