"""Core path machinery: parsing, patterns, augment/diminish, enumeration."""

from __future__ import annotations

import inspect
import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delannoy.counting as counting_module
import delannoy.paths as paths_module
from delannoy import (
    LatticePath,
    PathFamilySpec,
    count_bruteforce,
    enumerate_paths,
    in_region,
    parse_path,
    satisfies,
    schroeder_count,
    schroeder_rect_count,
)

from conftest import naive_contains, naive_family
from helpers import Step, augment, contains_pattern, diminish

words = st.text(alphabet="NED", max_size=24)
ne_words = st.text(alphabet="NE", max_size=24)
patterns = st.text(alphabet="NED", min_size=1, max_size=4)
steps = st.sampled_from([None, "N", "E", "D"])
INF, NAN = float("inf"), float("nan")


def test_step_values():
    assert Step.N.displacement == (0, 1)
    assert Step.E.displacement == (1, 0)
    assert Step.D.displacement == (1, 1)
    assert len(Step) == 3


@pytest.mark.parametrize("step", list(Step))
def test_step_member_works_wherever_its_letter_does(step):
    letter = step.value
    assert str(step) == letter
    for word in ("", "N", "E", "D", "NE", "ED"):
        assert contains_pattern(parse_path(word), step) == (letter in word)
    for n, m in ((1, 1), (2, 3)):
        for field, as_member, as_letter in (
            ("forbidden", {step}, {letter}),
            ("forbidden_aug", {step}, {letter}),
            ("first_step", step, letter),
            ("last_step", step, letter),
        ):
            spec = PathFamilySpec(target=(n, m), **{field: as_member})
            want = PathFamilySpec(target=(n, m), **{field: as_letter})
            assert spec == want
            assert count_bruteforce(spec) == count_bruteforce(want)


def test_parse_and_endpoint():
    path = parse_path("ENDENNDDEN")
    assert path.start == (0, 0)
    assert path.end == (6, 7)
    assert len(path) == 10
    assert parse_path("").end == (0, 0)
    assert parse_path("DD").end == (2, 2)


def test_parse_error_names_position():
    with pytest.raises(ValueError, match="position 2"):
        parse_path("ENXEN")


@given(words, st.integers(-5, 5), st.integers(-5, 5))
def test_end_is_last_vertex(word, x, y):
    path = parse_path(word, start=(x, y))
    assert path.end == path.vertices()[-1]


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
    for k, kept in ((1, True), (2, False)):  # DN's vertex (1, 1) is in y >= x, not in y >= 2x
        assert satisfies(parse_path("DN"), PathFamilySpec(target=(1, 2), region_k=k)) is kept
    assert satisfies(parse_path("NNE"), PathFamilySpec(target=(1, 2), region_k=2))


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
    for bad in (INF, -INF, NAN):  # int() of these raises OverflowError or its own ValueError
        with pytest.raises(ValueError, match="integers"):
            PathFamilySpec(target=(bad, 1))
        with pytest.raises(ValueError, match="integers"):
            PathFamilySpec(target=(1, bad))
    assert PathFamilySpec(target=(2.0, 1)).target == (2, 1)
    # the slope follows the corner's rule: no bool, no fraction, no NaN or infinity; 2.0 is 2
    for bad in (1.5, True, 0, INF, -INF, NAN):
        with pytest.raises(ValueError, match="slope"):
            PathFamilySpec(target=(2, 3), region_k=bad)
        with pytest.raises(ValueError, match="slope"):
            schroeder_count(2, bad)
        with pytest.raises(ValueError, match="slope"):
            schroeder_rect_count(2, 3, bad)
        with pytest.raises(ValueError, match="slope"):
            in_region(parse_path("NE"), bad)
    k = PathFamilySpec(target=(2, 4), region_k=2.0).region_k
    assert (k, type(k)) == (2, int)
    assert schroeder_count(3, 2.0) == schroeder_count(3, 2) == 66
    assert schroeder_rect_count(2, 5, 2.0) == schroeder_rect_count(2, 5, 2)


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
# Edges of the prefix pruning of augmented patterns: the lone leading E at an
# empty word, a pattern that needs the leading E or the closing N, and a
# pruned D beside the step filters.
@example(0, 0, frozenset(), frozenset({"E"}), None, None, None)
@example(0, 0, frozenset(), frozenset({"N"}), None, None, None)
@example(0, 0, frozenset(), frozenset({"EN"}), None, None, None)
@example(1, 1, frozenset(), frozenset({"EEN"}), None, None, None)
@example(0, 1, frozenset(), frozenset({"NN"}), None, None, None)
@example(2, 2, frozenset(), frozenset({"D"}), None, "N", "E")
@example(2, 3, frozenset(), frozenset({"D"}), 1, "N", "N")
# One-letter patterns, whose letter the walk never steps: a forbidden D, an
# augmented D, N (no path: every augmented word ends with N) or E (nor any:
# every one starts with E), and a forbidden N under a first-step filter N.
@example(3, 3, frozenset({"D"}), frozenset(), None, None, None)
@example(3, 3, frozenset(), frozenset({"D"}), None, None, None)
@example(2, 3, frozenset(), frozenset({"N"}), None, None, None)
@example(3, 2, frozenset(), frozenset({"E"}), None, None, None)
@example(2, 2, frozenset({"N"}), frozenset(), None, "N", None)
# Patterns holding a letter never stepped, which the walk drops: ND beside a
# forbidden D, EDN beside an augmented D, and EN beside a forbidden E, met only
# at the leading E; a forbidden N that each forced tail up the last column dies on.
@example(3, 3, frozenset({"D", "ND"}), frozenset(), None, None, None)
@example(3, 3, frozenset(), frozenset({"D", "EDN"}), None, None, None)
@example(1, 2, frozenset({"E"}), frozenset({"EN"}), None, None, None)
@example(2, 2, frozenset({"N"}), frozenset(), None, None, None)
# Edges of the forced tail, walked in place on the last column or the top row:
# a root on an axis under a first-step filter, a forbidden factor inside the
# tail, an augmented pattern across the tail and the closing N, a last-step
# filter on a tail, and a target below the region.
@example(0, 3, frozenset(), frozenset(), None, "N", None)
@example(3, 0, frozenset(), frozenset(), None, "N", None)
@example(1, 4, frozenset({"NN"}), frozenset(), None, None, None)
@example(4, 1, frozenset({"EE"}), frozenset(), None, None, None)
@example(1, 3, frozenset(), frozenset({"NNN"}), None, None, None)
@example(2, 3, frozenset(), frozenset(), None, None, "E")
@example(3, 2, frozenset(), frozenset(), 1, None, None)
def test_walker_matches_naive_family_in_order(n, m, forbidden, forbidden_aug, region_k, first, last):
    """Random specs: the walk yields exactly the naive family, sorted E < N < D."""
    _assert_walk_is_naive_family(n, m, forbidden, forbidden_aug, region_k, first, last)


@settings(deadline=None)
@given(
    st.integers(0, 1),
    st.integers(0, 7),
    st.booleans(),
    st.frozensets(patterns, max_size=3),
    st.frozensets(patterns, max_size=2),
    st.sampled_from([None, 1, 2, 3]),
    steps,
    steps,
)
def test_walker_matches_naive_family_on_thin_corners(thin, side, wide, forbidden, forbidden_aug, region_k, first, last):
    """Corners one cell thin, so most of each word is a forced tail."""
    n, m = (side, thin) if wide else (thin, side)
    _assert_walk_is_naive_family(n, m, forbidden, forbidden_aug, region_k, first, last)


def _assert_walk_is_naive_family(n, m, forbidden, forbidden_aug, region_k, first, last):
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


letters_or_patterns = st.one_of(st.sampled_from("NED"), patterns)


@settings(deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.frozensets(letters_or_patterns, max_size=3),
    st.frozensets(letters_or_patterns, max_size=2),
    st.sampled_from([None, 1, 2]),
    steps,
    steps,
)
@example(2, 1, frozenset({"D"}), frozenset(), None, None, "N")  # EEN only
def test_walked_paths_are_the_checked_paths(n, m, forbidden, forbidden_aug, region_k, first, last):
    """enumerate_paths builds its paths without LatticePath's word check; each is still
    the LatticePath that the checked constructor makes from its word."""
    spec = PathFamilySpec(target=(n, m), forbidden=forbidden, forbidden_aug=forbidden_aug,
                          region_k=region_k, first_step=first, last_step=last)
    walked = list(enumerate_paths(spec))
    for path in walked:
        checked = LatticePath((0, 0), path.word)
        assert type(path) is LatticePath
        assert path == checked and hash(path) == hash(checked)
        assert (path.start, path.end) == ((0, 0), (n, m))
        assert pickle.loads(pickle.dumps(path)) == path
    assert count_bruteforce(spec) == len(walked)


def test_walk_to_a_long_thin_corner():
    """The 2m + 1 Delannoy paths to (1, m) and, mirrored, to (m, 1), in order E < N < D."""
    m = 2000
    to_column = [p.word for p in enumerate_paths(PathFamilySpec(target=(1, m)))]
    assert to_column == [
        *("N" * i + "E" + "N" * (m - i) for i in range(m + 1)),
        *("N" * i + "D" + "N" * (m - 1 - i) for i in reversed(range(m))),
    ]
    to_row = [p.word for p in enumerate_paths(PathFamilySpec(target=(m, 1)))]
    assert to_row == ["E" * m + "N"] + [
        word for j in reversed(range(m)) for word in ("E" * j + "N" + "E" * (m - j), "E" * j + "D" + "E" * (m - 1 - j))
    ]
    assert len(to_column) == len(to_row) == 2 * m + 1


def test_forced_tail_stops_at_its_first_forbidden_letter():
    """One column a million cells high forbidding NN: the walk dies on its second letter."""
    assert count_bruteforce(PathFamilySpec(target=(0, 10**6), forbidden={"NN"})) == 0


def _examined_prefixes(spec: PathFamilySpec) -> int:
    """The prefixes the walker keeps while it lists spec, counted from outside it
    under sys.settrace: the root, each push, and each letter a forced tail gains
    in place, less the letter a tail breaks on."""
    code = paths_module._member_words.__code__
    source, first = inspect.getsourcelines(code)
    at = {line.strip(): first + i for i, line in enumerate(source)}
    gains = {
        at['stack = [("E", 0, 0)]']: lambda frame: 1,
        at["stack.append((a3, x + dx, y + dy))"]: lambda frame: 1,
        at["a2 += c * (end - len(a2))"]: lambda frame: frame.f_locals["end"] - len(frame.f_locals["a2"]),
        at["a2 += c"]: lambda frame: 1,
        at["break"]: lambda frame: -1,
    }
    total = 0

    def walker_lines(frame, event, arg):
        nonlocal total
        if event == "line" and frame.f_lineno in gains:
            total += gains[frame.f_lineno](frame)
        return walker_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: walker_lines if frame.f_code is code else None)
    try:
        list(paths_module._member_words(spec))
    finally:
        sys.settrace(previous)
    return total


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
@example(2, 2, frozenset(), frozenset(), None, "N", None)  # the root's first-step filter
@example(0, 3, frozenset(), frozenset(), None, "E", None)  # a root on an axis, off its forced step
@example(3, 0, frozenset({"EE"}), frozenset(), None, "D", None)
@example(3, 2, frozenset(), frozenset(), 1, None, None)  # a target below the region
@example(1, 4, frozenset({"NNN"}), frozenset({"EN"}), None, None, None)  # tails that break
@example(3, 3, frozenset(), frozenset(), None, None, "E")  # tails extended at once
def test_walker_examines_the_prefixes_it_is_charged(n, m, forbidden, forbidden_aug, region_k, first, last):
    """The walk keeps exactly counting.prefix_count's prefixes, the charge the CLI
    admits it under, except at its two early returns, where it keeps none: a
    target below the region, and a root on an axis whose forced first step is
    not the first-step filter."""
    spec = PathFamilySpec(
        target=(n, m), forbidden=forbidden, forbidden_aug=forbidden_aug,
        region_k=region_k, first_step=first, last_step=last,
    )
    below_region = region_k is not None and m < region_k * n
    off_axis_step = 0 in (n, m) and first not in (None, "N" if n == 0 else "E")
    want = 0 if below_region or off_axis_step else counting_module.prefix_count(spec, 10**9)
    assert _examined_prefixes(spec) == want


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
