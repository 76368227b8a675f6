"""The datum corpus of `datum_corpus.py` against its checked-in digests:
loader outcomes and chi_n results stay the same, record by record."""

import json
from pathlib import Path

from datum_corpus import digests

DIGESTS = Path(__file__).with_name("datum_digests.json")


def test_datum_corpus_matches_its_digests(monkeypatch):
    monkeypatch.delenv("EULERKIT_BUDGET", raising=False)  # chi_n's witness cap
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want), (
        f"records missing: {sorted(want.keys() - got.keys())}, "
        f"records new: {sorted(got.keys() - want.keys())}")
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"outcomes changed: {changed}"
