"""The public API: the names ``entrot`` exports, and that every module's
``__all__`` names something that exists."""

import importlib
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
