"""The committed studies that fit tier-1's budget of about 2 s, run in process
against study/expected.json.  CI's ``python tests/study.py check`` runs them all.

``convergence`` takes 0.32-0.52 s in process.  ``verify-gates`` takes 1.65-1.80 s,
so it stays CI-only until ``verify`` is cheaper."""

import json

import study

TIER1 = ("float-range", "traveling-wave", "strips", "convergence")


def test_studies_match_the_expected_file():
    want = json.loads(study.EXPECTED.read_text(encoding="utf-8"))
    assert sorted(want) == sorted(study.STUDIES)
    for name in TIER1:
        assert study.STUDIES[name]() == want[name], name


def test_check_names_the_first_differing_key_path():
    want = {"runs": 4, "counts": {"a": [1, 2, 3], "b": 0.5}}
    assert study.first_difference(want, want, "s") is None
    got = {"runs": 4, "counts": {"a": [1, 5], "b": 0.25}}
    assert study.first_difference(want, got, "s") == "s['counts']['a'][1]: expected 2, got 5"
    got = {"runs": 4, "counts": {"a": [1, 2, 3], "b": 0.5, "c": 1}}
    assert study.first_difference(want, got, "s") == "s['counts']['c']: expected nothing, got 1"
