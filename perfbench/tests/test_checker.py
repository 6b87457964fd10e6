"""The output checker must accept a maximal matching and reject the rest."""

from checker import check_matching, check_read, check_recovered, cover_of

# A path a-b-c-d plus a separate edge e-f: edges 1=(0,1), 2=(1,2), 3=(2,3), 4=(4,5).
LIVE = {1: (0, 1), 2: (1, 2), 3: (2, 3), 4: (4, 5)}


def test_accepts_a_maximal_matching():
    cover, problems = check_matching(LIVE, [1, 3, 4])
    assert problems == []
    assert cover == {0: 1, 1: 1, 2: 3, 3: 3, 4: 4, 5: 4}


def test_rejects_a_non_maximal_matching():
    _, problems = check_matching(LIVE, [1, 4])  # edge 3 touches no matched vertex
    assert any("edge 3" in p and "no matched vertex" in p for p in problems)


def test_rejects_an_overlapping_matching():
    _, problems = check_matching(LIVE, [1, 2, 4])  # 1 and 2 share vertex 1
    assert any("share vertex 1" in p for p in problems)


def test_rejects_a_matched_edge_that_is_not_live():
    _, problems = cover_of(LIVE, [1, 3, 4, 9])
    assert problems == ["matched edge 9 is not live"]


def test_counts_every_uncovered_edge():
    live = {i: (2 * i, 2 * i + 1) for i in range(10)}
    _, problems = check_matching(live, [])
    assert problems[-1] == "10 live edges touch no matched vertex"


def test_point_reads():
    cover, _ = cover_of(LIVE, [1, 3, 4])
    assert check_read(LIVE, cover, 2, 3) is None
    assert check_read(LIVE, cover, 9, None) is None  # isolated vertex
    assert "writer matches it by 1" in check_read(LIVE, cover, 0, None)
    assert "not live" in check_read(LIVE, cover, 0, 7)
    assert "misses it" in check_read(LIVE, cover, 0, 4)
    assert "writer matches it by 3" in check_read(LIVE, cover, 2, 2)


def test_recovered_state_must_equal_live_state():
    assert check_recovered(LIVE, [1, 3, 4], [4, 3, 1], [1, 2, 3, 4]) == []
    assert any("matching differs" in p
               for p in check_recovered(LIVE, [1, 3, 4], [1, 4], [1, 2, 3, 4]))
    assert any("edge set differs" in p
               for p in check_recovered(LIVE, [1, 3, 4], [1, 3, 4], [1, 3, 4]))
