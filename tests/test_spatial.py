import random

import pytest

from georocket.indexer.spatial import SpatialIndex, StrTree, _intersects


def random_rects(rng, n, span=100):
    rects = []
    for i in range(n):
        x0, y0 = rng.uniform(0, span), rng.uniform(0, span)
        rects.append(((x0, y0, x0 + rng.uniform(0, 10), y0 + rng.uniform(0, 10)), f"r{i}"))
    return rects


def brute(rects, query):
    return {payload for rect, payload in rects if _intersects(rect, query)}


class TestStrTree:
    @pytest.mark.parametrize("n", [0, 1, 5, 16, 17, 300, 2000])
    def test_exact_against_brute_force(self, n):
        rng = random.Random(n)
        rects = random_rects(rng, n)
        tree = StrTree(rects)
        assert len(tree) == n
        for _ in range(40):
            x0, y0 = rng.uniform(-10, 110), rng.uniform(-10, 110)
            q = (x0, y0, x0 + rng.uniform(0, 30), y0 + rng.uniform(0, 30))
            assert set(tree.query(q)) == brute(rects, q)

    def test_point_entries(self):
        rects = [((i, i, i, i), i) for i in range(50)]
        tree = StrTree(rects)
        assert set(tree.query((10, 10, 12, 12))) == {10, 11, 12}

    def test_duplicate_rectangles(self):
        rects = [((0, 0, 1, 1), i) for i in range(20)]
        tree = StrTree(rects)
        assert len(set(tree.query((0.5, 0.5, 0.6, 0.6)))) == 20

    def test_empty(self):
        assert StrTree([]).query((0, 0, 1, 1)) == []

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            StrTree([], node_capacity=1)


class TestSpatialIndex:
    def test_candidates_superset_and_postfilter_exact(self):
        rng = random.Random(7)
        index = SpatialIndex(rebuild_threshold=64)
        live = {}
        for i in range(500):
            rect, payload = random_rects(rng, 1)[0]
            payload = f"p{i}"
            index.add(payload, rect)
            live[payload] = rect
            if rng.random() < 0.2 and live:
                victim = rng.choice(sorted(live))
                index.remove(victim)
                del live[victim]
            if i % 25 == 0:
                x0, y0 = rng.uniform(0, 100), rng.uniform(0, 100)
                q = (x0, y0, x0 + 20, y0 + 20)
                expected = {p for p, r in live.items() if _intersects(r, q)}
                candidates = index.candidates(q)
                assert candidates >= expected
                exact = {p for p in candidates if p in live and _intersects(live[p], q)}
                assert exact == expected

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_candidates_are_exactly_the_live_hits(self, seed):
        """Adds, moves and removes, with queries in between that repack the
        tree past 8 pending or stale entries: every query returns the exact
        live set, never a stale or a removed payload."""
        rng = random.Random(seed)
        index = SpatialIndex(rebuild_threshold=8, node_capacity=4)
        live = {}
        for step in range(600):
            roll = rng.random()
            if roll < 0.4 or not live:
                payload = f"p{step}"
            elif roll < 0.65:
                payload = rng.choice(sorted(live))  # a move
            elif roll < 0.85:
                victim = rng.choice(sorted(live))
                index.remove(victim)
                del live[victim]
                continue
            else:
                x0, y0 = rng.uniform(-10, 100), rng.uniform(-10, 100)
                q = (x0, y0, x0 + rng.uniform(0, 40), y0 + rng.uniform(0, 40))
                assert index.candidates(q) == {p for p, r in live.items() if _intersects(r, q)}
                continue
            ((rect, _),) = random_rects(rng, 1)
            index.add(payload, rect)
            live[payload] = rect
        assert index.candidates((-100, -100, 200, 200)) == set(live)

    def test_rebuild_drops_tombstones(self):
        index = SpatialIndex(rebuild_threshold=8)
        for i in range(10):
            index.add(i, (i, i, i + 1, i + 1))
        index.remove(3)
        index.rebuild()
        assert 3 not in index.candidates((0, 0, 20, 20))
        assert len(index) == 9

    def test_len_tracks_live_entries(self):
        index = SpatialIndex()
        index.add("a", (0, 0, 1, 1))
        index.add("b", (1, 1, 2, 2))
        index.remove("a")
        assert len(index) == 1
