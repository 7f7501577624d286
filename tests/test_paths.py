"""Core path machinery: parsing, patterns, augment/diminish, enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delannoy import (
    LatticePath,
    PathFamilySpec,
    Step,
    augment,
    contains_pattern,
    count_bruteforce,
    diminish,
    enumerate_paths,
    in_region,
    parse_path,
    satisfies,
)

from conftest import naive_contains, naive_family

words = st.text(alphabet="NED", max_size=24)
ne_words = st.text(alphabet="NE", max_size=24)
patterns = st.text(alphabet="NED", min_size=1, max_size=4)
steps = st.sampled_from([None, "N", "E", "D"])


def test_step_values():
    assert Step.N.displacement == (0, 1)
    assert Step.E.displacement == (1, 0)
    assert Step.D.displacement == (1, 1)
    assert len(Step) == 3


def test_parse_and_endpoint():
    path = parse_path("ENDENNDDEN")
    assert path.start == (0, 0)
    assert path.end == (6, 7)
    assert parse_path("").end == (0, 0)
    assert parse_path("DD").end == (2, 2)


def test_parse_error_names_position():
    with pytest.raises(ValueError, match="position 2"):
        parse_path("ENXEN")


def test_vertices():
    assert parse_path("ND").vertices() == [(0, 0), (0, 1), (1, 2)]
    assert parse_path("", start=(3, 4)).vertices() == [(3, 4)]


def test_contains_pattern_examples():
    assert contains_pattern(parse_path("ENEN"), "NE")
    assert not contains_pattern(parse_path("ENNE"), "EE")
    assert contains_pattern(parse_path("EENN"), "EENN")
    assert not contains_pattern(parse_path("EN"), "EENN")
    with pytest.raises(ValueError):
        contains_pattern(parse_path("EN"), "")


def test_pattern_matcher_agrees_with_naive_scan():
    rng = random.Random(20240817)
    for _ in range(10_000):
        word = "".join(rng.choice("NED") for _ in range(rng.randrange(0, 30)))
        pattern = "".join(rng.choice("NED") for _ in range(rng.randrange(1, 5)))
        assert contains_pattern(LatticePath(word=word), pattern) == naive_contains(
            word, pattern
        )


def test_augment():
    aug = augment(parse_path("EN"))
    assert aug.start == (-1, 0)
    assert aug.word == "EENN"
    assert augment(parse_path("NE")).word == "ENEN"
    assert augment(parse_path("")).word == "EN"


def test_diminish():
    assert diminish(parse_path("EENN", start=(-1, 0))) == parse_path("EN")
    with pytest.raises(ValueError):
        diminish(parse_path("E"))
    with pytest.raises(ValueError):
        diminish(parse_path(""))


@given(words, st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_diminish_inverts_augment(word, start):
    path = LatticePath(start=start, word=word)
    assert diminish(augment(path)) == path


def test_in_region():
    assert in_region(parse_path("ND"), 1)
    assert not in_region(parse_path("EN"), 1)  # visits (1, 0)
    assert in_region(parse_path("NND"), 2)
    assert not in_region(parse_path("NDD"), 2)  # (2, 3) is below y = 2x
    with pytest.raises(ValueError):
        in_region(parse_path("N"), 0)


def test_satisfies():
    spec = PathFamilySpec(target=(1, 1), forbidden=frozenset({"NE", "EN"}))
    assert satisfies(parse_path("D"), spec)
    assert not satisfies(parse_path("NE"), spec)
    assert not satisfies(parse_path("D", start=(1, 1)), spec)  # wrong start
    assert not satisfies(parse_path("DD"), spec)  # wrong end
    aug_spec = PathFamilySpec(target=(1, 1), forbidden_aug=frozenset({"D", "EENN"}))
    assert satisfies(parse_path("NE"), aug_spec)
    assert not satisfies(parse_path("EN"), aug_spec)  # augmented word is EENN
    step_spec = PathFamilySpec(target=(1, 1), first_step="N", last_step="E")
    assert satisfies(parse_path("NE"), step_spec)
    assert not satisfies(parse_path("D"), step_spec)
    empty_spec = PathFamilySpec(target=(0, 0), last_step="E")
    assert not satisfies(parse_path(""), empty_spec)  # no last step to match


def test_spec_validation():
    with pytest.raises(ValueError):
        PathFamilySpec(target=(1, 1), forbidden=frozenset({""}))
    with pytest.raises(ValueError):
        PathFamilySpec(target=(1, 1), region_k=0)
    with pytest.raises(ValueError):
        PathFamilySpec(target=(1, 1), first_step="X")
    # a bare string would be read as its letters: "NE" would forbid N and E
    with pytest.raises(ValueError, match="collection"):
        PathFamilySpec(target=(2, 2), forbidden="NE")
    with pytest.raises(ValueError, match="collection"):
        PathFamilySpec(target=(2, 2), forbidden_aug="EENN")
    # a corner is never truncated to an integer
    with pytest.raises(ValueError, match="integers"):
        PathFamilySpec(target=(2.7, 1))
    with pytest.raises(ValueError, match="integers"):
        PathFamilySpec(target=(2, 0.5))
    assert PathFamilySpec(target=(2.0, 1)).target == (2, 1)


def test_enumerate_order_is_lexicographic_e_n_d():
    assert [p.word for p in enumerate_paths(PathFamilySpec(target=(1, 1)))] == [
        "EN",
        "NE",
        "D",
    ]
    spec = PathFamilySpec(target=(2, 2), forbidden=frozenset({"NE", "EN"}))
    assert [p.word for p in enumerate_paths(spec)] == ["EDN", "NDE", "DD"]


def test_enumerate_empty_target():
    assert [p.word for p in enumerate_paths(PathFamilySpec(target=(0, 0)))] == [""]
    # the empty path has no first step, so a first-step filter excludes it
    assert list(enumerate_paths(PathFamilySpec(target=(0, 0), first_step="E"))) == []


def test_enumerate_negative_target_is_an_error():
    with pytest.raises(ValueError):
        list(enumerate_paths(PathFamilySpec(target=(-1, 0))))
    with pytest.raises(ValueError):
        count_bruteforce(PathFamilySpec(target=(0, -2)))


@pytest.mark.parametrize("n,m", [(0, 0), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_enumerate_matches_naive_generation(n, m):
    """The pruned search equals filtering all words, on several small specs."""
    cases = [
        {},
        {"forbidden": frozenset({"NE", "EN"})},
        {"forbidden": frozenset({"D", "EENN"})},
        {"forbidden_aug": frozenset({"D", "EENN"})},
        {"region_k": 1},
        {"region_k": 2, "forbidden": frozenset({"NE", "EN"})},
        {"first_step": "N", "last_step": "E"},
    ]
    for kwargs in cases:
        spec = PathFamilySpec(target=(n, m), **kwargs)
        got = [p.word for p in enumerate_paths(spec)]
        assert len(set(got)) == len(got)
        assert set(got) == naive_family(n, m, **kwargs)
        assert count_bruteforce(spec) == len(got)


@settings(deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 4),
    st.frozensets(patterns, max_size=3),
    st.frozensets(patterns, max_size=2),
    st.sampled_from([None, 1, 2, 3]),
    steps,
    steps,
)
def test_walker_matches_naive_family_in_order(n, m, forbidden, forbidden_aug, region_k, first, last):
    """Random specs: the walk yields exactly the naive family, sorted E < N < D."""
    kwargs = dict(
        forbidden=forbidden,
        forbidden_aug=forbidden_aug,
        region_k=region_k,
        first_step=first,
        last_step=last,
    )
    spec = PathFamilySpec(target=(n, m), **kwargs)
    got = [p.word for p in enumerate_paths(spec)]
    expected = sorted(naive_family(n, m, **kwargs), key=lambda w: ["END".index(c) for c in w])
    assert got == expected
    assert count_bruteforce(spec) == len(got)


def test_enumerated_paths_satisfy_their_spec():
    spec = PathFamilySpec(
        target=(3, 3),
        forbidden=frozenset({"EN"}),
        forbidden_aug=frozenset({"EENN"}),
        region_k=1,
    )
    paths = list(enumerate_paths(spec))
    assert paths
    assert all(satisfies(p, spec) for p in paths)


def test_count_each_axis_family_is_one():
    for n in range(8):
        spec = PathFamilySpec(target=(n, 0), forbidden=frozenset({"NE", "EN"}))
        assert count_bruteforce(spec) == 1  # only E^n
    spec = PathFamilySpec(target=(1, 2), region_k=1)
    assert count_bruteforce(spec) == 4  # NEN, NNE, ND, DN


def test_augmented_pattern_characterization():
    """For a North-East path avoiding EENN, the augmented path picks up an
    EENN factor exactly when the word starts with ENN, ends with EEN, or
    equals EN.  Checked exhaustively for all corners n, m <= 6."""
    for n in range(7):
        for m in range(7):
            spec = PathFamilySpec(target=(n, m), forbidden=frozenset({"D"}))
            for path in enumerate_paths(spec):
                w = path.word
                aug_clean = "EENN" not in "E" + w + "N"
                expected = (
                    "EENN" not in w
                    and not w.startswith("ENN")
                    and not w.endswith("EEN")
                    and w != "EN"
                )
                assert aug_clean == expected, w


@given(ne_words)
def test_augment_word_has_no_diagonal(word):
    path = LatticePath(word=word)
    assert "D" not in augment(path).word
