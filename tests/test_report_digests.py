"""Corpus reports stay byte-identical to the recorded digests.

The digests in ``tests/data/report_digests.json`` were recorded by
``tests/record_report_digests.py``; a change that alters any report or
written file on the 50 corpus specs (fixed and f64 mode) fails here.
"""

import json

from record_report_digests import DIGESTS, report_digests


def test_corpus_reports_match_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = report_digests()
    want = json.loads(DIGESTS.read_text())
    assert sorted(got) == sorted(want)
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"{len(changed)} of {len(want)} ops changed, first: {changed[:5]}"
