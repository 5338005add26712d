"""Tripwire: one delay adversary — ``Network.send`` reshapes a delay in one place.

``Network.send`` asks one reshaper per message — ``link_policy.adjust`` —
and checks its answer once.  The explorer's schedule adversary, the
delivery chooser, reshapes no delay: it takes each message in flight at the
time the policy gave it and picks which message each such slot delivers.
Nothing in ``src/`` installs a perturbation beside the link policy: no
``install_perturbation`` and no ``perturbation`` attribute on a network or
subnet.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
NETWORK = SRC / "sim" / "network.py"
RESHAPERS = {"adjust", "perturb"}
NETWORK_NAMES = {"network", "subnet", "parent"}


def _send(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "Network":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "send":
                    return item
    raise AssertionError("Network.send not found")


def _reshapers(source):
    """The reshaping calls in ``Network.send`` and the times it compares with ``_INF``."""
    send = _send(source)
    calls = [
        node.func.attr
        for node in ast.walk(send)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in RESHAPERS
    ]
    checks = sum(isinstance(node, ast.Name) and node.id == "_INF" for node in ast.walk(send))
    return calls, checks


def _second_hooks(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "attr", None) or getattr(node, "id", None) or getattr(node, "name", None)
        if name == "install_perturbation":
            found.append((node.lineno, "install_perturbation"))
        elif isinstance(node, ast.Attribute) and node.attr == "perturbation":
            owner = node.value
            owner = getattr(owner, "attr", None) or getattr(owner, "id", None)
            if owner in NETWORK_NAMES:
                found.append((node.lineno, f"{owner}.perturbation"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_network_send_asks_one_reshaper_and_checks_it_once():
    assert _reshapers(NETWORK.read_text()) == (["adjust"], 1)


def test_src_installs_no_second_delay_hook():
    found = {
        str(path.relative_to(SRC)): _second_hooks(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {path: hits for path, hits in found.items() if hits} == {}


def test_the_tripwire_sees_what_it_forbids():
    source = (
        "class Network:\n"
        "    def send(self, src, dst, delay):\n"
        "        delay = self.link_policy.adjust(src, dst, 0.0, delay)\n"
        "        assert delay < _INF\n"
        "        delay = self.perturbation.perturb('', src, dst, 0.0, delay)\n"
        "        assert delay < _INF\n"
        "def install_perturbation(store, p):\n"
        "    store.network.perturbation = p\n"
    )
    assert _reshapers(source) == (["adjust", "perturb"], 2)
    assert _second_hooks(source) == [
        "line 7: install_perturbation",
        "line 8: network.perturbation",
    ]
