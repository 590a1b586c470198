"""Acceptance gate: every headline guarantee, one pass/fail line each."""

import pytest

from stringcone.acceptance import run_full

SLUGS = {
    1: "string-count-identity",
    2: "injectivity-and-full-peel",
    3: "semigroup-closure",
    4: "cone-saturation",
    5: "demazure-faces",
    6: "separating-form",
    7: "hilbert-basis-soundness",
    8: "oracle-cross-validation",
    9: "determinism",
}


@pytest.fixture(scope="module")
def acceptance():
    text, results = run_full()
    return text, {r.index: r for r in results}


@pytest.mark.parametrize("index", sorted(SLUGS))
def test_criterion(acceptance, index, capsys):
    _, results = acceptance
    result = results[index]
    assert result.slug == SLUGS[index]
    status = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {index} {result.slug}: {status} ({result.detail})")
    assert result.passed, f"criterion {index} {result.slug}: {result.detail}"


REPORT = """\
criterion 1 string-count-identity: PASS (5 types, 11 words, 165 size checks)
criterion 2 injectivity-and-full-peel: PASS (165 images, 15358 strings, zero collisions)
criterion 3 semigroup-closure: PASS (2 types, 942 pair sums verified)
criterion 4 cone-saturation: PASS (certified levels A1:3 A2:3 A3:2 B2:3 G2:2)
criterion 5 demazure-faces: PASS (14 Weyl elements, 126 section counts)
criterion 6 separating-form: PASS (5 types, 9883 pairs separated)
criterion 7 hilbert-basis-soundness: PASS (basis sizes A1:2 A2:6 A3:14 B2:10 G2:33, A2 relation rank 1)
criterion 8 oracle-cross-validation: PASS (57 character comparisons, 1000 idempotence samples)
criterion 9 determinism: PASS (hash seeds 0 and 1, identical certificates)
overall: PASS
"""


def test_overall_report(acceptance):
    # the whole text, byte for byte: every count the criteria print
    text, results = acceptance
    assert len(results) == 9
    assert text == REPORT
