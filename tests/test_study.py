"""The committed studies, run in process against study/expected.json."""

import json

import study


def test_studies_match_the_expected_file():
    want = json.loads(study.EXPECTED.read_text(encoding="utf-8"))
    assert sorted(want) == sorted(study.STUDIES)
    for name, run in study.STUDIES.items():
        assert run() == want[name], name
