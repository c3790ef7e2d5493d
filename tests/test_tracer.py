"""The benchmark tracer still finds every function and method it patches."""

import importlib
import pathlib
import sys

import pytest

from ghlin import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def bindings(tracer) -> dict:
    """Every attribute of the ghlin modules and of the classes the tracer patches."""
    owners = [m for name, m in sys.modules.items() if name == "ghlin" or name.startswith("ghlin.")]
    for modname, clsname, *_ in tracer.METHODS + [("ghlin.conjugacy", "ConjugacyMap")]:
        owners.append(getattr(importlib.import_module(modname), clsname))
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


@pytest.mark.parametrize("name", ["shift-conjugate", "quad-linearize"])
def test_tracer_installs_around_a_run_and_restores_every_target(tmp_path, bench, name):
    # a target deleted from ghlin would fail install; one left patched would fail the last assert
    tracer, workloads = bench
    workload = workloads.WORKLOADS[name]
    before = bindings(tracer)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert bindings(tracer) != before
        code = cli.run(workload.command, workload.config_for(0), str(tmp_path / "run"))
    finally:
        spans.uninstall()
    assert code == 0
    assert spans.calls["cli.run"] == 1 and spans.calls["conjugacy.solve"] >= 1
    after = bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
