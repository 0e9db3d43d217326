"""Property tests holding the telemetry fast paths to their references.

* A trace line, encoded once at emission from a per-shape template, is
  byte for byte ``json.dumps(event.to_dict(), sort_keys=True,
  separators=(",", ":"))`` — the encoding exports used before traces were
  stored as lines — and decodes back to the event that was emitted, except
  that a surrogate pair in a string decodes as the astral character it
  escapes to.
* ``Histogram.observe`` picks its bucket by bisection, exactly as the
  linear scan over the bounds did, NaN and infinities included.
"""

import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry import Histogram, TraceCollector, TraceEvent, trace_to_jsonl
from repro.telemetry.trace import EVENT_KINDS, encode_line

#: Characters that need escaping or that a ``%`` template could misread.
_AWKWARD = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "雪",
            " ", "\U0001f600", "\ud800", "%", "%s", "%%", "%d"]

_texts = st.lists(
    st.one_of(st.sampled_from(_AWKWARD),
              st.characters(exclude_categories=())),
    max_size=6,
).map("".join)

_ints = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.sampled_from([0, -1, 2 ** 63 - 1, 2 ** 63, 2 ** 64 + 1, -(2 ** 63)]),
)

_floats = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, math.inf, -math.inf,
                     math.nan, 0.1, 1.0]),
)

_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _texts)

# A small key pool, so events in one trace repeat a fields shape with
# values of other types — the case the template cache must get right.
_keys = st.one_of(st.sampled_from(["dst", "delivered", "message", "%s", 'a"b']),
                  _texts)

#: A high surrogate followed by a low one: JSON escapes the pair exactly as
#: the astral character it stands for, so it cannot decode as emitted.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _no_surrogate_pair(text):
    return _SURROGATE_PAIR.search(text) is None


_json_texts = _texts.filter(_no_surrogate_pair)
_json_keys = _keys.filter(_no_surrogate_pair)

_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(_texts, inner, max_size=3),
        st.dictionaries(_ints, inner, max_size=3),
    ),
    max_leaves=6,
)

_fields = st.one_of(
    st.dictionaries(_keys, _values, max_size=5),
    st.dictionaries(_ints, _values, max_size=3),
)

_event_args = st.fixed_dictionaries({
    "kind": st.sampled_from(EVENT_KINDS),
    "name": _texts,
    "round_number": st.one_of(st.integers(min_value=0, max_value=2 ** 66),
                              st.booleans(), _floats),
    "node": st.one_of(st.none(), _ints),
    "phase": st.one_of(st.none(), _texts),
    "fields": _fields,
})


def _reference_line(seq, args):
    event = TraceEvent(seq=seq, kind=args["kind"], name=args["name"],
                       round=args["round_number"], node=args["node"],
                       phase=args["phase"], fields=args["fields"])
    return json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))


class TestLineEncoding:
    @given(events=st.lists(_event_args, min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_stored_lines_are_the_reference_encoding(self, events):
        trace = TraceCollector()
        for args in events:
            trace.record(args["name"], args["round_number"], args["node"],
                         args["phase"], args["kind"], args["fields"])
        expected = "".join(
            _reference_line(seq, args) + "\n" for seq, args in enumerate(events)
        )
        assert trace_to_jsonl(trace.events) == expected

    @given(seq=st.integers(min_value=0, max_value=2 ** 64), args=_event_args)
    @settings(max_examples=200, deadline=None)
    def test_encode_line_is_the_reference_encoding(self, seq, args):
        line = encode_line(seq, args["kind"], args["name"], args["round_number"],
                           args["node"], args["phase"], args["fields"])
        assert line == _reference_line(seq, args) + "\n"

    @given(
        kind=st.sampled_from(EVENT_KINDS),
        name=_json_texts,
        round_number=st.integers(min_value=0, max_value=2 ** 66),
        node=st.one_of(st.none(), _ints),
        phase=st.one_of(st.none(), _json_texts),
        fields=st.dictionaries(_json_keys, st.recursive(
            st.one_of(st.none(), st.booleans(), _ints, _json_texts,
                      st.floats(allow_nan=False)),
            lambda inner: st.one_of(st.lists(inner, max_size=3),
                                    st.dictionaries(_json_texts, inner,
                                                    max_size=3)),
            max_leaves=6,
        ), max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_json_native_events_decode_as_emitted(self, kind, name, round_number,
                                                  node, phase, fields):
        trace = TraceCollector()
        trace.emit("first", 0)
        seq = trace.record(name, round_number, node, phase, kind, fields)
        emitted = TraceEvent(seq, kind, name, round_number, node, phase, fields)
        assert trace.events[1] == emitted
        assert trace.events[-1] == emitted
        assert list(trace.events)[1:] == trace.events[1:] == [emitted]

    def test_surrogate_pair_decodes_as_the_astral_character(self):
        # The one JSON-native value that does not read back as emitted: the
        # line is still the reference encoding, but the pair's escape is
        # U+10000's.
        pair = "\ud800\udc00"  # two code points: a high and a low surrogate
        args = {"kind": "event", "name": "net.push", "round_number": 3,
                "node": 7, "phase": "gossip", "fields": {"dst": {pair: None}}}
        line = encode_line(0, args["kind"], args["name"], args["round_number"],
                           args["node"], args["phase"], args["fields"])
        assert line == _reference_line(0, args) + "\n"
        assert "\\ud800\\udc00" in line
        trace = TraceCollector()
        trace.record(args["name"], args["round_number"], args["node"],
                     args["phase"], args["kind"], args["fields"])
        (decoded,) = trace.events[0].fields["dst"]
        assert (len(pair), decoded) == (2, "\U00010000")


def _reference_bucket(buckets, value):
    """The bucket the linear scan picked: first bound ``>= value``."""
    for index, bound in enumerate(buckets):
        if value <= bound:
            return index
    return None


_bounds = st.lists(st.floats(allow_nan=False), min_size=1, max_size=8).map(sorted)


class TestHistogramBuckets:
    @given(data=st.data(), bounds=_bounds)
    @settings(max_examples=300, deadline=None)
    def test_bisect_matches_linear_scan(self, data, bounds):
        histogram = Histogram(bounds)
        values = data.draw(st.lists(st.one_of(
            st.sampled_from(histogram.buckets),
            st.floats(),
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
            st.integers(min_value=-10, max_value=10),
        ), max_size=12))
        expected = [0] * len(bounds)
        for value in values:
            histogram.observe(value)
            index = _reference_bucket(histogram.buckets, value)
            if index is not None:
                expected[index] += 1
        assert histogram.bucket_counts == expected
        assert histogram.count == len(values)

    def test_nan_lands_in_overflow(self):
        histogram = Histogram([1.0, 2.0])
        histogram.observe(math.nan)
        assert histogram.bucket_counts == [0, 0]
        assert histogram.count == 1

    @pytest.mark.parametrize(
        "bounds", [[1.0, math.nan], [math.nan, 1.0], [1.0, math.nan, 3.0]]
    )
    def test_nan_bound_is_not_sorted(self, bounds):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(bounds)
