"""Tests for the reproduction checks of ``gamma4.verify`` beyond the acceptance gate."""

import sys

import gamma4.cfk
from gamma4 import verify


def _count_tensor_products(monkeypatch) -> list[int]:
    """Wrap every binding of ``cfk.tensor`` in the package; one entry per call."""
    original = gamma4.cfk.tensor
    calls: list[int] = []

    def counting(left, right):
        calls.append(1)
        return original(left, right)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gamma4" and getattr(module, "tensor", None) is original:
            monkeypatch.setattr(module, "tensor", counting)
    return calls


def test_staircase2n_tallies_from_one_run_of_five_tensor_products(monkeypatch):
    calls = _count_tensor_products(monkeypatch)
    checks = verify.check_staircase2n()
    assert len(calls) == 5  # steps 1..5, each once
    assert [check.id for check in checks] == [f"staircase2n/n={n}" for n in range(1, 7)]
    assert [check.expected for check in checks] == [
        f"{count} checks pass" for count in (0, 7, 14, 21, 28, 35)
    ]
    assert [check.computed for check in checks] == [
        f"{count}/{count} pass" for count in (0, 7, 14, 21, 28, 35)
    ]
    assert all(check.passed for check in checks)


def test_staircase2n_tally_names_the_first_failure_of_its_prefix(monkeypatch):
    def step(k):
        return [(f"step {k}: first", True), (f"step {k}: second", k != 3)]

    monkeypatch.setattr(verify, "_staircase_step", step)
    checks = verify.check_staircase2n()
    assert [check.passed for check in checks] == [True, True, True, False, False, False]
    assert checks[2].computed == "4/4 pass"
    assert checks[3].expected == "6 checks pass"
    assert checks[3].computed == "5/6 pass; first failure: step 3: second"
    assert checks[5].computed == "9/10 pass; first failure: step 3: second"
