"""Both checkers against outputs recorded before they read columns.

See ``pinned_checker_outputs.py`` for the corpus and what is pinned.
"""

import json

from pinned_checker_outputs import PINNED_PATH, _distinct, corpus, pin

PINNED = json.loads(PINNED_PATH.read_text())


def test_checker_outputs_match_the_pinned_record():
    seen = []
    for name, history, spec in corpus():
        seen.append(name)
        assert json.loads(json.dumps(pin(history, spec))) == PINNED[name], name
    assert sorted(seen) == sorted(PINNED)


def test_the_corpus_exercises_every_path():
    methods = {entry["per_key"]["method"] for entry in PINNED.values()}
    assert methods == {"swmr-claims", "wing-gong", "wing-gong[smr]"}
    texts = [text for entry in PINNED.values() for text in entry["per_key"]["violations"]]
    for label in (
        "Claim 1",
        "Claim 2",
        "Claim 3",
        "program order (writer)",
        "program order (reader)",
    ):
        assert any(text.startswith(label) for text in texts), label
    assert any(entry["wing_gong"]["witness"] for entry in PINNED.values())


def test_distinct_compares_unhashable_values_pairwise():
    assert _distinct(["v0", "v1", "v2"])
    assert not _distinct(["v0", "v1", "v0"])
    assert _distinct([None, ["a"], ["b"]])
    assert not _distinct([None, ["a"], ["a"]])
