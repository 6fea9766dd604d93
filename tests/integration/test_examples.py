"""Example scripts run end-to-end (they assert their own invariants)."""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def run_example(name: str) -> None:
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, f"{name}.py"))
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Examples import each other (amortized_policy reuses quickstart).
    sys.path.insert(0, os.path.abspath(EXAMPLES_DIR))
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.path.pop(0)


@pytest.mark.slow
def test_quickstart_example():
    run_example("quickstart")


@pytest.mark.slow
def test_safety_steering_example():
    run_example("safety_steering")


@pytest.mark.slow
def test_layered_overlay_example():
    run_example("layered_overlay")


@pytest.mark.slow
def test_model_checking_example():
    run_example("model_checking")


@pytest.mark.slow
def test_paxos_wan_example():
    run_example("paxos_wan")


@pytest.mark.slow
def test_amortized_policy_example():
    run_example("amortized_policy")
