"""The committed studies that fit tier-1's budget of about 2 s, run in process
against study/expected.json.  CI's ``python tests/study.py check`` runs them all."""

import json

import study

TIER1 = ("float-range", "traveling-wave")


def test_studies_match_the_expected_file():
    want = json.loads(study.EXPECTED.read_text(encoding="utf-8"))
    assert sorted(want) == sorted(study.STUDIES)
    for name in TIER1:
        assert study.STUDIES[name]() == want[name], name
