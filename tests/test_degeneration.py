import json

import pytest

import stringcone.degeneration
from stringcone.cartan import build_cartan, longest_word
from stringcone.degeneration import (
    build_pairs,
    degeneration_certificate,
    demazure_quotient,
    lattice_relations,
    report_to_json,
    separating_form,
)
from stringcone.errors import DegenerationError, WordError
from stringcone.strings import WeightedPoint


@pytest.fixture(scope="module")
def a2():
    return build_cartan("A", 2)


def test_build_pairs_multiplicity_free(a2):
    datum = build_cartan("A", 1)
    assert build_pairs(datum, (1,), 2) == ()
    assert build_pairs(a2, (1, 2, 1), 0) == ()


def test_build_pairs_a2_level_one(a2):
    pairs = build_pairs(a2, (1, 2, 1), 1)
    assert len(pairs) == 1
    a, b, lam = pairs[0]
    assert (a.entries, b.entries, lam) == ((0, 1, 1), (1, 1, 0), (1, 1))


def test_separating_form_worked_example():
    form = separating_form([((0, 1), (1, 0), None)], 2)
    assert form.coefficients == (2, 1)
    assert form.value((0, 1)) < form.value((1, 0))


def test_separating_form_unconstrained():
    assert separating_form((), 3).coefficients == (1, 1, 1)


def test_separating_form_from_crystal_pairs(a2):
    pairs = build_pairs(a2, (1, 2, 1), 1)
    form = separating_form(pairs, 3)
    assert form.coefficients == (4, 1, 1)
    for a, b, _ in pairs:
        assert form.value(a.entries) < form.value(b.entries)


def test_separating_form_rejections():
    with pytest.raises(DegenerationError):
        separating_form([((1, 0), (1, 0), None)], 2)
    with pytest.raises(DegenerationError):
        separating_form([((1, 0), (0, 1), None)], 2)
    with pytest.raises(DegenerationError):
        separating_form([((0, 1), (1, 0), None)], 3)


def test_lattice_relations():
    assert lattice_relations([(1, 0), (0, 1), (1, 1)]) == ((1, 1, -1),)
    assert lattice_relations([(1, 0), (0, 1)]) == ()
    assert lattice_relations([]) == ()


def test_demazure_quotient_simple_reflection(a2):
    q = demazure_quotient(a2, (1, 2, 1), (1,), 1)
    assert q.adapted and q.zero_tail and q.face
    assert q.normal == (0, 0, 0, 1, 0)
    assert [(lam, len(dem)) for lam, dem in q.sections] == [
        ((0, 0), 1), ((0, 1), 1), ((1, 0), 2), ((1, 1), 2)]


def test_demazure_quotient_identity(a2):
    q = demazure_quotient(a2, (1, 2, 1), (), 1)
    assert q.adapted and q.zero_tail and q.face
    assert all(len(dem) == 1 for _, dem in q.sections)


def test_demazure_quotient_unadapted_prefix(a2):
    # s2 is not a prefix of (1, 2, 1); the quotient is reported, not raised
    q = demazure_quotient(a2, (1, 2, 1), (2,), 1)
    assert not q.adapted
    assert not q.zero_tail


def test_demazure_quotient_word_validation(a2):
    with pytest.raises(WordError):
        demazure_quotient(a2, (1, 2, 1), (1, 1), 1)
    with pytest.raises(WordError):
        demazure_quotient(a2, (1, 2), (1,), 1)


def test_certificate_a1():
    datum = build_cartan("A", 1)
    report = degeneration_certificate(datum, (1,))
    assert report.passing
    assert report.certified_level == 3
    assert report.hilbert_basis == (
        WeightedPoint(lam=(1,), psi=(0,)), WeightedPoint(lam=(1,), psi=(1,)))
    assert report.relations == ()
    assert report.form.coefficients == (1,)


def test_certificate_a2(a2):
    report = degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2)
    assert report.passing
    assert report.certified_level == 2
    assert len(report.hilbert_basis) == 6
    assert report.relations == ((0, 1, -1, -1, 0, 1),)
    assert report.form.coefficients == (4, 1, 1)
    counts = {s.lam: s.count for s in report.sections}
    assert counts[(0, 0)] == 1
    assert counts[(1, 0)] == counts[(0, 1)] == 3
    assert counts[(1, 1)] == 8
    assert counts[(2, 2)] == 27
    assert all(s.match for s in report.sections)
    assert dict(report.checks) == {
        "saturation": True,
        "section_counts_match_weyl": True,
        "hilbert_basis_generates": True,
        "hilbert_basis_minimal": True,
        "relations_balance": True,
        "separating_form_strict": True,
    }


def test_certificate_with_demazure_word(a2):
    report = degeneration_certificate(a2, (1, 2, 1), (1,),
                                      level_bound=1, check_level=2)
    assert report.passing
    names = [name for name, _ in report.checks]
    assert names[-3:] == ["demazure_counts_match", "demazure_zero_tail",
                          "demazure_face"]
    assert all(s.demazure_match for s in report.sections)
    assert report.sections[0].demazure_count == 1


def test_certificate_level_validation(a2):
    with pytest.raises(DegenerationError):
        degeneration_certificate(a2, (1, 2, 1), level_bound=0)
    with pytest.raises(DegenerationError):
        degeneration_certificate(a2, (1, 2, 1), level_bound=2, check_level=1)


def test_report_json_shape(a2):
    report = degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2)
    text = report_to_json(report)
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data) == ["type", "rank", "word", "demazure_word", "rays",
                          "facets", "certified_level", "hilbert_basis",
                          "relations", "weight_form", "sections", "checks",
                          "timings_ms"]
    assert data["type"] == "A"
    assert data["rank"] == 2
    assert data["word"] == [1, 2, 1]
    assert data["demazure_word"] is None
    assert data["certified_level"] == 2
    assert data["timings_ms"] == {}
    assert all(data["checks"].values())


def test_report_json_deterministic(a2):
    first = report_to_json(
        degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2))
    second = report_to_json(
        degeneration_certificate(a2, (1, 2, 1), level_bound=1, check_level=2))
    assert first == second


def test_certificate_scans_sections_once(monkeypatch):
    # B2's level-1 hull misses data points, so the build level escalates
    calls = []
    original = stringcone.degeneration.saturation_check

    def counting(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(stringcone.degeneration, "saturation_check", counting)
    datum = build_cartan("B", 2)
    report = degeneration_certificate(datum, longest_word(datum), level_bound=1)
    assert calls == [2]
    assert report.certified_level == 2
    assert report.passing
