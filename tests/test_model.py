import math
import re
import threading

import pytest
from hypothesis import given, strategies as st

from georocket.errors import MalformedPathError
from georocket.ids import new_chunk_id
from georocket.model import (
    BoundingBox,
    ChunkMetadata,
    DateValue,
    LayerPath,
    MetadataDelta,
    TypedValue,
    epoch_ms_from_key,
    parse_layer_path,
    timestamp_key,
)
from georocket.text import tokenize

segments = st.lists(
    st.text(
        st.characters(blacklist_characters="/", blacklist_categories=("Cc", "Cs")),
        min_size=1,
        max_size=8,
    ).filter(lambda s: s not in (".", "..")),
    max_size=5,
)


class TestLayerPath:
    def test_parse_empty_is_root(self):
        assert parse_layer_path("") == LayerPath()
        assert parse_layer_path("/") == LayerPath()
        assert str(parse_layer_path("")) == "/"

    def test_parse_normalises_trailing_slash(self):
        assert str(parse_layer_path("/buildings/cologne/")) == "/buildings/cologne"

    def test_parse_collapses_duplicate_slashes(self):
        assert str(parse_layer_path("a//b")) == "/a/b"

    def test_control_characters_rejected(self):
        with pytest.raises(MalformedPathError):
            parse_layer_path("/a\x00b")

    def test_dot_segments_rejected(self):
        with pytest.raises(MalformedPathError):
            parse_layer_path("/a/../b")

    def test_root_includes_everything(self):
        assert parse_layer_path("/").is_ancestor_or_self(parse_layer_path("/a/b"))

    def test_self_inclusion(self):
        assert parse_layer_path("/a").is_ancestor_or_self(parse_layer_path("/a"))

    def test_child_does_not_include_parent(self):
        assert not parse_layer_path("/a/b").is_ancestor_or_self(parse_layer_path("/a"))

    @given(segments)
    def test_reflexive(self, segs):
        p = LayerPath(tuple(segs))
        assert p.is_ancestor_or_self(p)

    @given(segments, segments)
    def test_antisymmetric(self, a, b):
        p, q = LayerPath(tuple(a)), LayerPath(tuple(b))
        if p.is_ancestor_or_self(q) and q.is_ancestor_or_self(p):
            assert p == q

    @given(segments, segments, segments)
    def test_transitive(self, a, b, c):
        p, q, r = LayerPath(tuple(a)), LayerPath(tuple(b)), LayerPath(tuple(c))
        if p.is_ancestor_or_self(q) and q.is_ancestor_or_self(r):
            assert p.is_ancestor_or_self(r)


class TestDateValue:
    def test_year_bounds(self):
        d = DateValue.parse("2018")
        assert d.lower_key() == (2018, 1, 1, 0, 0, 0, 0)
        assert d.upper_key() == (2019, 1, 1, 0, 0, 0, 0)

    def test_refinement_narrows(self):
        year = DateValue.parse("2018")
        month = DateValue.parse("2018-09")
        assert year.lower_key() <= month.lower_key()
        assert month.upper_key() <= year.upper_key()

    def test_day_rollover_at_year_end(self):
        assert DateValue.parse("2018-12-31").upper_key() == (2019, 1, 1, 0, 0, 0, 0)
        assert DateValue.parse("2018-12").upper_key() == (2019, 1, 1, 0, 0, 0, 0)

    def test_time_granularity(self):
        d = DateValue.parse("2018-02-13T10:30:00")
        assert d.lower_key() == (2018, 2, 13, 10, 30, 0, 0)
        assert d.upper_key() == (2018, 2, 13, 10, 30, 1, 0)

    def test_fractional_seconds(self):
        d = DateValue.parse("2018-02-13T10:30:00.500")
        assert d.lower_key()[-1] == 500000
        assert d.upper_key()[-1] == 501000

    def test_zone_offset_normalised_to_utc(self):
        d = DateValue.parse("2018-02-13T10:00:00+02:00")
        assert (d.hour, d.minute) == (8, 0)
        assert d.iso() == "2018-02-13T08:00:00Z"

    def test_invalid_dates(self):
        assert DateValue.parse("2018-13") is None
        assert DateValue.parse("2018-02-31") is None
        assert DateValue.parse("201") is None
        assert DateValue.parse("2018-02-13T25:00:00") is None
        assert DateValue.parse("banana") is None

    def test_iso_round_trip(self):
        for text in ("2018", "2018-09", "2018-09-13", "2018-09-13T10:30:00",
                     "2018-09-13T10:30:00.250Z"):
            d = DateValue.parse(text)
            assert DateValue.parse(d.iso()) == d

    @given(st.integers(1, 9999), st.integers(0, 3), st.integers(0, 11), st.integers(0, 27))
    def test_lower_below_upper(self, year, granularity, month0, day0):
        text = f"{year:04d}"
        if granularity >= 1:
            text += f"-{month0 + 1:02d}"
        if granularity >= 2:
            text += f"-{day0 + 1:02d}"
        if granularity >= 3:
            text += "T12:00:00"
        d = DateValue.parse(text)
        assert d is not None
        assert d.lower_key() < d.upper_key()

    def test_timestamp_key(self):
        # 2018-02-13T00:00:00Z
        assert timestamp_key(1518480000000) == (2018, 2, 13, 0, 0, 0, 0)
        assert timestamp_key(1518480000123)[-1] == 123000

    @given(st.integers(-62_135_596_800_000, 253_402_300_799_999))
    def test_epoch_ms_from_key_inverts_timestamp_key(self, ms):
        assert epoch_ms_from_key(timestamp_key(ms)) == ms

    def test_epoch_ms_from_key_rounds_up_to_the_next_millisecond(self):
        assert epoch_ms_from_key((2018, 2, 13, 0, 0, 0, 1)) == 1518480000001
        assert epoch_ms_from_key((0, 1, 1, 0, 0, 0, 0)) == -math.inf
        assert epoch_ms_from_key((10000, 1, 1, 0, 0, 0, 0)) == math.inf


class TestBoundingBox:
    def test_from_points(self):
        box = BoundingBox.from_points([(1, 5), (3, 2)])
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (1, 2, 3, 5)

    def test_from_points_empty(self):
        assert BoundingBox.from_points([]) is None

    def test_from_points_ignores_nonfinite(self):
        assert BoundingBox.from_points([(float("nan"), 1)]) is None
        box = BoundingBox.from_points([(float("inf"), 1), (2, 3)])
        assert box == BoundingBox(2, 3, 2, 3)

    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(2, 0, 1, 5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, float("inf"), 1)
        with pytest.raises(ValueError):
            BoundingBox(float("nan"), 0, 1, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1", None])
    @pytest.mark.parametrize("at", range(4))
    def test_each_component_checked(self, bad, at):
        values = [0.0, 0.0, 1.0, 1.0]
        values[at] = bad
        with pytest.raises(ValueError, match=re.escape(f"component {bad!r} is not a finite")):
            BoundingBox(*values)

    def test_min_above_max_rejected_for_floats(self):
        with pytest.raises(ValueError, match="min > max"):
            BoundingBox(0.0, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="min > max"):
            BoundingBox(2.0, 0.0, 1.0, 1.0)

    def test_finite_components_with_an_infinite_sum_accepted(self):
        big = 1.5e308
        assert BoundingBox(big, big, big, big).max_x == big

    def test_ints_and_bools_accepted(self):
        assert BoundingBox(0, 0, 1, 2) == BoundingBox(0.0, 0.0, 1.0, 2.0)
        assert BoundingBox(False, 0.5, True, 1).max_x is True

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1))
    def test_from_points_ordered(self, points):
        box = BoundingBox.from_points(points)
        assert box.min_x <= box.max_x and box.min_y <= box.max_y

    def test_intersects_edges_count(self):
        assert BoundingBox(0, 0, 1, 1).intersects(BoundingBox(1, 1, 2, 2))

    def test_disjoint(self):
        assert not BoundingBox(0, 0, 1, 1).intersects(BoundingBox(2, 2, 3, 3))


class TestTypedValue:
    def test_four_digit_token_is_a_year(self):
        assert TypedValue.from_text("2018").kind == "date"

    def test_day_date(self):
        v = TypedValue.from_text("2018-09-13")
        assert v.kind == "date" and v.value.granularity == "day"

    def test_number(self):
        assert TypedValue.from_text("12.5") == TypedValue.of_number(12.5)

    def test_text_fallback(self):
        assert TypedValue.from_text("Berlin").kind == "text"

    def test_number_parsing_is_strict(self):
        assert TypedValue.from_text("1_0").kind == "text"
        assert TypedValue.from_text("inf").kind == "text"
        assert TypedValue.from_text("nan").kind == "text"

    def test_numbers_disabled(self):
        assert TypedValue.from_text("12.5", numbers=False).kind == "text"
        assert TypedValue.from_text("2018-09-13", numbers=False).kind == "date"

    def test_record_round_trip(self):
        for v in (TypedValue.of_text("a"), TypedValue.of_number(2.5),
                  TypedValue.from_text("2018-09")):
            assert TypedValue.from_record(v.to_record()) == v


class TestTokenize:
    def test_plain_word(self):
        assert tokenize("Schildergasse") == {"schildergasse"}

    def test_unicode_lowercasing(self):
        assert tokenize("Köln") == {"köln"}

    def test_date_stays_single_token(self):
        assert tokenize("deleted 2018-09-13") == {"deleted", "2018-09-13"}

    def test_decimal_number(self):
        assert "13.378" in tokenize("13.378,52.515")

    def test_hyphen_between_letters_splits(self):
        assert tokenize("foo-bar") == {"foo", "bar"}

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == {"foo", "bar"}

    def test_leading_minus_dropped(self):
        assert tokenize("-122.5") == {"122.5"}


class TestChunkIds:
    def test_strictly_increasing(self):
        ids = [new_chunk_id() for _ in range(2000)]
        assert all(a < b for a, b in zip(ids, ids[1:]))
        assert len(set(ids)) == len(ids)

    def test_unique_under_threads(self):
        out = []
        lock = threading.Lock()

        def spin():
            local = [new_chunk_id() for _ in range(500)]
            with lock:
                out.extend(local)

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(out)) == len(out)


class TestMetadataDelta:
    def test_remove_then_set_same_key(self):
        meta = ChunkMetadata(layer=LayerPath(), properties={"a": "1"})
        delta = MetadataDelta(set_properties={"a": "2"}, remove_properties=frozenset({"a"}))
        assert meta.with_delta(delta).properties == {"a": "2"}

    def test_tags(self):
        meta = ChunkMetadata(layer=LayerPath(), tags=frozenset({"x", "y"}))
        delta = MetadataDelta(add_tags=frozenset({"z"}), remove_tags=frozenset({"x"}))
        assert meta.with_delta(delta).tags == frozenset({"y", "z"})

    def test_layer_not_touchable(self):
        # the delta record has no field that could name a layer
        assert set(MetadataDelta().to_record()) == {"set", "rm", "add_tags", "rm_tags"}

    def test_record_round_trip(self):
        delta = MetadataDelta(
            set_properties={"k": "v"},
            remove_properties=frozenset({"old"}),
            add_tags=frozenset({"t"}),
            remove_tags=frozenset({"u"}),
        )
        assert MetadataDelta.from_record(delta.to_record()) == delta
