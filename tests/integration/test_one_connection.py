"""Tripwire: one live connection — ``Connection`` is the only socket code on the wire.

In ``transport/live.py`` only ``Connection`` opens a stream, reads from one
or builds a ``FrameDecoder``: the handshake, the replica's peer and client
streams and the client's replies all arrive through its one read loop, so a
broken stream has one place to surface.  A replica dials every peer before
it acks the port map, so nothing in the module parks frames in a queue.
"""

import ast
import pathlib

LIVE = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "transport" / "live.py"
OWNER = "Connection"
READS = {"read", "readexactly", "readline", "readuntil"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    return getattr(node, "attr", None)


def _findings(source, owner=OWNER):
    tree = ast.parse(source)
    owned = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == owner:
            owned.update(id(inner) for inner in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "Queue":
            found.append((node.lineno, "Queue"))
        if not isinstance(node, ast.Call) or id(node) in owned:
            continue
        name = _name(node.func)
        if name == "open_connection" or name == "FrameDecoder":
            found.append((node.lineno, f"{name}(...)"))
        elif name in READS and isinstance(node.func, ast.Attribute):
            found.append((node.lineno, f".{name}(...)"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_only_the_connection_touches_a_socket_and_nothing_queues_frames():
    assert _findings(LIVE.read_text()) == []


def test_the_tripwire_sees_what_it_forbids():
    live = LIVE.read_text()
    assert len(_findings(live, owner=None)) == 3, "Connection dials, reads and decodes"
    source = (
        "class Connection:\n"
        "    async def dial(self):\n"
        "        await asyncio.open_connection('127.0.0.1', 1)\n"
        "async def loop(reader):\n"
        "    await reader.read(10)\n"
        "    FrameDecoder()\n"
        "    await asyncio.open_connection('127.0.0.1', 1)\n"
        "queue = asyncio.Queue()\n"
    )
    assert _findings(source) == [
        "line 5: .read(...)",
        "line 6: FrameDecoder(...)",
        "line 7: open_connection(...)",
        "line 8: Queue",
    ]
