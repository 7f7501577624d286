"""The peak/diagonal rewriting maps and their exhaustive verification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delannoy import (
    BijectionReport,
    LatticePath,
    PathFamilySpec,
    delta_map,
    enumerate_paths,
    in_region,
    parse_path,
    pi_map,
    satisfies,
    tau_inverse,
    tau_map,
    verify_bijection,
)
from delannoy import bijections

ne_words = st.text(alphabet="NE", max_size=20)


def _ne_paths(n, m):
    return enumerate_paths(PathFamilySpec(target=(n, m), forbidden=frozenset({"D"})))


def _peak_free_paths(n, m):
    return enumerate_paths(PathFamilySpec(target=(n, m), forbidden=frozenset({"NE"})))


def test_pi_documented_example():
    assert pi_map(parse_path("ENNEENNNENEEN")).word == "ENDENNDDEN"


def test_delta_documented_example():
    assert delta_map(parse_path("ENDENNDDEN")).word == "ENNEENNNENEEN"


def test_pi_delta_preconditions():
    with pytest.raises(ValueError):
        pi_map(parse_path("END"))
    with pytest.raises(ValueError):
        delta_map(parse_path("ENE"))


def test_pi_preserves_endpoints():
    path = parse_path("NENNEE", start=(2, 5))
    image = pi_map(path)
    assert image.start == path.start
    assert image.end == path.end


@given(ne_words)
def test_pi_replaces_every_peak(word):
    path = LatticePath(word=word)
    image = pi_map(path)
    # NE occurrences cannot overlap, so their number is the D count of the image
    assert image.word.count("D") == word.count("NE")
    assert "NE" not in image.word
    assert image.end == path.end


@given(ne_words)
def test_delta_inverts_pi(word):
    path = LatticePath(word=word)
    assert delta_map(pi_map(path)) == path


def test_pi_delta_roundtrip_exhaustive():
    for n in range(7):
        for m in range(7):
            for path in _ne_paths(n, m):
                assert delta_map(pi_map(path)) == path
            for path in _peak_free_paths(n, m):
                assert pi_map(delta_map(path)) == path


def test_pi_preserves_region_membership():
    for n in range(5):
        for m in range(5):
            for path in _ne_paths(n, m):
                for k in (1, 2):
                    assert in_region(path, k) == in_region(pi_map(path), k)


def test_pi_bijection_between_claimed_families():
    for n in range(6):
        for m in range(6):
            domain = PathFamilySpec(target=(n, m), forbidden_aug=frozenset({"D", "EENN"}))
            codomain = PathFamilySpec(target=(n, m), forbidden=frozenset({"NE", "EN"}))
            report = verify_bijection(domain, pi_map, codomain)
            assert report.ok, (n, m, report.counterexamples[:3])
            back = verify_bijection(codomain, delta_map, domain)
            assert back.ok, (n, m, back.counterexamples[:3])


def test_pi_bijection_region_restricted():
    for k in (1, 2, 3):
        for n in range(5):
            for m in range(9):
                domain = PathFamilySpec(
                    target=(n, m), forbidden_aug=frozenset({"D", "EENN"}), region_k=k
                )
                codomain = PathFamilySpec(
                    target=(n, m), forbidden=frozenset({"NE", "EN"}), region_k=k
                )
                assert verify_bijection(domain, pi_map, codomain).ok, (k, n, m)


def test_tau_documented_examples():
    assert tau_map(parse_path("ENNEEN")).word == "NEEN"
    assert tau_map(parse_path("EEN")).word == "E"
    assert tau_map(parse_path("EN")).word == ""
    assert tau_inverse(parse_path("NEEN")).word == "ENNEEN"
    assert tau_inverse(parse_path("E")).word == "EEN"
    assert tau_inverse(parse_path("")).word == "EN"


def test_tau_tie_break_prefers_the_prefix_rule():
    # a word with both an ENN prefix and an EEN suffix loses its prefix; the
    # alternative (prepending E) would create the forbidden factor EENN
    image = tau_map(parse_path("ENNNEEN"))
    assert image.word == "NNEEN"
    assert "EENN" not in image.word


def test_tau_preconditions():
    with pytest.raises(ValueError):
        tau_map(parse_path("DN"))  # diagonal step
    with pytest.raises(ValueError):
        tau_map(parse_path("EENN"))  # contains the forbidden factor itself
    with pytest.raises(ValueError):
        tau_map(parse_path("NEN"))  # augmented word stays clean: not in the domain
    with pytest.raises(ValueError):
        tau_inverse(parse_path("EENNE"))


def test_tau_bijection_exhaustive():
    for n in range(1, 7):
        for m in range(1, 7):
            domain = PathFamilySpec(target=(n, m), forbidden=frozenset({"D", "EENN"}))
            exclude = PathFamilySpec(target=(n, m), forbidden_aug=frozenset({"D", "EENN"}))
            codomain = PathFamilySpec(
                target=(n - 1, m - 1), forbidden=frozenset({"D", "EENN"})
            )
            report = verify_bijection(domain, tau_map, codomain, domain_exclude=exclude)
            assert report.ok, (n, m, report.counterexamples[:3])


def test_tau_roundtrips_exhaustive():
    for n in range(1, 7):
        for m in range(1, 7):
            domain = PathFamilySpec(target=(n, m), forbidden=frozenset({"D", "EENN"}))
            exclude = PathFamilySpec(target=(n, m), forbidden_aug=frozenset({"D", "EENN"}))
            for path in enumerate_paths(domain):
                if satisfies(path, exclude):
                    continue
                assert tau_inverse(tau_map(path)) == path
            codomain = PathFamilySpec(
                target=(n - 1, m - 1), forbidden=frozenset({"D", "EENN"})
            )
            for path in enumerate_paths(codomain):
                grown = tau_inverse(path)
                assert tau_map(grown) == path
                assert satisfies(grown, domain) and not satisfies(grown, exclude)


def test_verify_bijection_reports_failures_with_witnesses():
    domain = PathFamilySpec(target=(1, 1), forbidden_aug=frozenset({"D", "EENN"}))
    codomain = PathFamilySpec(target=(1, 1), forbidden=frozenset({"NE", "EN"}))
    report = verify_bijection(domain, lambda p: p, codomain)  # identity is wrong here
    assert not report.ok and not report
    assert report.counterexamples
    reasons = {item[0] for item in report.counterexamples}
    assert "image outside codomain" in reasons
    assert "not hit" in reasons


def test_verify_bijection_detects_collisions():
    domain = PathFamilySpec(target=(1, 1))
    codomain = PathFamilySpec(target=(0, 0))
    collapse = lambda p: LatticePath(word="")  # noqa: E731 - three paths, one image
    report = verify_bijection(domain, collapse, codomain)
    assert not report.injective
    assert any(item[0] == "collision" for item in report.counterexamples)
    assert report.domain_size == 3
    assert report.codomain_size == 1


def _multi_pass_verify(domain, mapping, codomain, domain_exclude=None):
    """The verifier as it was written in separate passes: the reference."""
    domain_paths = [
        p
        for p in enumerate_paths(domain)
        if domain_exclude is None or not satisfies(p, domain_exclude)
    ]
    codomain_paths = list(enumerate_paths(codomain))
    counterexamples = []
    images = []
    images_in_codomain = True
    for p in domain_paths:
        q = mapping(p)
        images.append(q)
        if not satisfies(q, codomain):
            images_in_codomain = False
            counterexamples.append(("image outside codomain", p, q))
    seen = {}
    injective = True
    for p, q in zip(domain_paths, images):
        if q in seen:
            injective = False
            counterexamples.append(("collision", seen[q], p, q))
        else:
            seen[q] = p
    image_set = set(images)
    missed = [q for q in codomain_paths if q not in image_set]
    for q in missed:
        counterexamples.append(("not hit", q))
    return BijectionReport(
        domain_size=len(domain_paths),
        codomain_size=len(codomain_paths),
        injective=injective,
        surjective=not missed,
        images_in_codomain=images_in_codomain,
        counterexamples=tuple(counterexamples),
    )


# maps that never raise, so every spec pair yields a report
_TOTAL_MAPS = {
    "identity": lambda p: p,
    "drop first": lambda p: LatticePath(start=p.start, word=p.word[1:]),
    "reverse": lambda p: LatticePath(start=p.start, word=p.word[::-1]),
    "empty": lambda p: LatticePath(word=""),
}

_small_patterns = st.frozensets(st.text(alphabet="NED", min_size=1, max_size=3), max_size=2)


@st.composite
def _small_specs(draw):
    return PathFamilySpec(
        target=(draw(st.integers(0, 3)), draw(st.integers(0, 3))),
        forbidden=draw(_small_patterns),
        forbidden_aug=draw(_small_patterns),
        region_k=draw(st.none() | st.integers(1, 2)),
    )


@settings(deadline=None, max_examples=150)
@given(
    _small_specs(),
    st.sampled_from(sorted(_TOTAL_MAPS)),
    _small_specs(),
    st.none() | _small_specs(),
)
def test_one_pass_verifier_matches_the_multi_pass_reference(domain, name, codomain, exclude):
    mapping = _TOTAL_MAPS[name]
    got = verify_bijection(domain, mapping, codomain, domain_exclude=exclude)
    assert got == _multi_pass_verify(domain, mapping, codomain, domain_exclude=exclude)


def test_theorem_maps_match_the_multi_pass_reference():
    for n in range(5):
        for m in range(5):
            a = PathFamilySpec(target=(n, m), forbidden_aug=frozenset({"D", "EENN"}))
            h = PathFamilySpec(target=(n, m), forbidden=frozenset({"NE", "EN"}))
            cases = [(a, pi_map, h, None), (h, delta_map, a, None)]
            if n and m:
                b = PathFamilySpec(target=(n, m), forbidden=frozenset({"D", "EENN"}))
                b_lower = PathFamilySpec(target=(n - 1, m - 1), forbidden=frozenset({"D", "EENN"}))
                cases.append((b, tau_map, b_lower, a))
            for domain, mapping, codomain, exclude in cases:
                for f in (mapping, *_TOTAL_MAPS.values()):
                    got = verify_bijection(domain, f, codomain, domain_exclude=exclude)
                    want = _multi_pass_verify(domain, f, codomain, domain_exclude=exclude)
                    assert got == want, (n, m, mapping.__name__)


def test_size_check_catches_a_codomain_walk_that_drops_an_image(monkeypatch):
    a = PathFamilySpec(target=(3, 3), forbidden_aug=frozenset({"D", "EENN"}))
    h = PathFamilySpec(target=(3, 3), forbidden=frozenset({"NE", "EN"}))
    walk = bijections.enumerate_paths

    def drop_first_codomain_path(spec):
        paths = list(walk(spec))
        return paths[1:] if spec == h else paths

    monkeypatch.setattr(bijections, "enumerate_paths", drop_first_codomain_path)
    report = verify_bijection(a, pi_map, h)
    # the dropped path is still an image and still in h, so only the sizes disagree
    assert report.injective and report.surjective and report.images_in_codomain
    assert report.domain_size == report.codomain_size + 1
    assert not report.ok
