"""Tripwire: one place builds a simulated deployment, and nothing keeps a tracer.

A register is the one-key case of the store, so ``KVStore`` is the only code
in ``src/`` that constructs a ``Simulator``, a ``Network`` or a ``Subnet``;
everything else (``create_register``, ``run_workload``, the explorer, the
parallel engine) deploys through it.  The simulator keeps one message log,
``MessageRecord``: no module reads a ``tracer`` attribute.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
DEPLOYMENT = SRC / "store" / "store.py"
CONSTRUCTORS = {"Simulator", "Network", "Subnet"}
LOG = "tracer"


def _findings(source: str, may_deploy: bool = False) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in CONSTRUCTORS and not may_deploy:
                found.append(f"line {node.lineno}: {name}(...)")
            if name == "getattr" and any(
                isinstance(arg, ast.Constant) and arg.value == LOG for arg in node.args
            ):
                found.append(f"line {node.lineno}: getattr(..., {LOG!r})")
        elif isinstance(node, ast.Attribute) and node.attr == LOG:
            found.append(f"line {node.lineno}: attribute {LOG}")
    return found


def test_only_the_store_builds_a_deployment_and_nothing_reads_a_tracer():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        found = _findings(path.read_text(), may_deploy=path == DEPLOYMENT)
        if found:
            offenders[str(path.relative_to(SRC))] = found
    assert offenders == {}


def test_the_tripwire_sees_what_it_forbids():
    store = DEPLOYMENT.read_text()
    assert _findings(store), "KVStore builds the Simulator, Network and Subnets"
    assert _findings(store, may_deploy=True) == []
    assert _findings(f"x = sim.network.Network(clock)\ny = clock.{LOG}\n") == [
        "line 1: Network(...)",
        f"line 2: attribute {LOG}",
    ]
    assert _findings(f"getattr(clock, {LOG!r}, None)") == [f"line 1: getattr(..., {LOG!r})"]
