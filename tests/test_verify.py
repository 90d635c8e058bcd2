"""Self-consistency check runner."""

import subprocess
import sys
import zlib

import pytest

from entrot import verify
from entrot.verify import CheckResult, all_passed, run_checks


def test_quick_level_all_pass():
    results = run_checks("quick")
    assert results
    assert all_passed(results)
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.detail for r in results)
    names = [r.name for r in results]
    assert names == sorted(names)


def test_full_level_extends_quick_and_passes():
    quick = {r.name for r in run_checks("quick")}
    full = run_checks("full")
    assert all_passed(full)
    assert quick < {r.name for r in full}
    assert {"pmax_oracle_agreement", "monte_carlo_success_rate",
            "deterministic_completion", "break_even_angle"} <= \
        {r.name for r in full}


def test_results_are_seed_stable():
    a = run_checks("quick", seed=5)
    b = run_checks("quick", seed=5)
    assert a == b


@pytest.mark.parametrize("seed", range(10))
def test_each_check_reads_the_same_at_both_levels(seed):
    """Both levels pass, and a quick check's result does not depend on
    the full-only checks running beside it."""
    quick = run_checks("quick", seed=seed)
    full = {r.name: r for r in run_checks("full", seed=seed)}
    assert all_passed(quick) and all_passed(full.values())
    assert quick == [full[r.name] for r in quick]


def test_adding_a_check_moves_no_other_checks_draws(monkeypatch):
    names = list(verify._CHECKS)
    assert len({zlib.crc32(name.encode()) for name in names}) == len(names)
    before = run_checks("quick", seed=2)
    monkeypatch.setitem(verify._CHECKS, "a_first_check", (True, lambda rng: (
        True, f"drew {rng.uniform():.6f}")))
    after = run_checks("quick", seed=2)
    assert after[0].name == "a_first_check" and after[1:] == before


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        run_checks("medium")


def test_all_passed_flags_failures():
    good = CheckResult(name="x", passed=True, detail="d")
    bad = CheckResult(name="y", passed=False, detail="d")
    assert all_passed([good]) and not all_passed([good, bad])


@pytest.mark.parametrize("seed, error", [(-1, ValueError),
                                         (2 ** 64, ValueError),
                                         (True, TypeError),
                                         (1.5, TypeError)])
def test_seed_outside_the_stream_domain_rejected(seed, error):
    """Only integers in [0, 2**64) key a stream; -1 and 2**64 would
    otherwise alias other channels' streams."""
    with pytest.raises(error):
        run_checks("quick", seed=seed)


def test_a_raising_check_is_reported_as_failed(monkeypatch):
    def broken(rng):
        raise RuntimeError("boom")

    monkeypatch.setitem(verify._CHECKS, "tr_e3_formula", (True, broken))
    results = {r.name: r for r in run_checks("quick")}
    assert results["tr_e3_formula"] == CheckResult(
        "tr_e3_formula", False, "raised RuntimeError: boom")
    assert all(r.passed for name, r in results.items()
               if name != "tr_e3_formula")


def test_import_leaves_numpy_random_unloaded(checkout_env):
    """The check registry costs nothing at import: ``numpy.random`` (about
    5 MB of resident memory) loads only when a stream is drawn."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, entrot; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=checkout_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
