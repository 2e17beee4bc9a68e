from bisect import bisect_right
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    COORD_LINE,
    ROUTER_LINE,
    coordinator_entry,
    device_log,
    end_to_end_delay,
    first_hop_delay,
    ts,
)
from iotfed import harness
from iotfed.features import (
    COORDINATOR_SCHEMA,
    ENTROPY_BINS,
    FEATURE_NAMES,
    N_FEATURES,
    ROUTER_SCHEMA,
    ROUTER_ZERO_SLOTS,
    FeatureVector,
    ScalerMismatch,
    ScalerParams,
    apply_scaler,
    fit_scaler,
    make_windows,
    router_view,
    segment_entropy,
    window_matrix,
)
from iotfed.harness import to_csv
from iotfed.logfmt import EntryKind, LogEntry, Segment, parse_entry
from iotfed.nodes import EDGES, ROUTERS, A, C, E1, E2, E3, E4, R1, R2, R3

SLOT = {name: i for i, name in enumerate(FEATURE_NAMES)}
WINDOW = (ts(0.0), ts(60.0))


class TestSchema:
    def test_31_slots_everywhere(self):
        assert N_FEATURES == 31
        assert len(FEATURE_NAMES) == 31

    def test_router_zero_slots_are_the_e2e_block(self):
        names = {FEATURE_NAMES[i] for i in ROUTER_ZERO_SLOTS}
        assert names == {"delay_mean", "delay_std", "delay_min", "delay_max",
                         "delay_q1", "delay_q2", "delay_q3", "delay_entropy"}

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector(WINDOW[0], C, np.zeros(30))


def one_segment_entropy(samples, bins=ENTROPY_BINS):
    """``segment_entropy`` of ``samples`` as its one segment."""
    arr = np.asarray(samples, dtype=float)
    return float(segment_entropy(arr, np.array([arr.size]), bins)[0])


class TestShannonEntropy:
    def test_uniform_two_way_split(self):
        assert one_segment_entropy([1, 1, 1, 1, 9, 9, 9, 9], bins=2) == pytest.approx(1.0)

    def test_constant_samples(self):
        assert one_segment_entropy([5.0] * 10) == 0.0

    def test_empty_samples(self):
        assert one_segment_entropy([]) == 0.0

    def test_three_bin_oracle(self):
        # {1,1,2,3} over 3 equal-width bins -> p = {1/2, 1/4, 1/4} -> 1.5 bits
        assert one_segment_entropy([1, 1, 2, 3], bins=3) == pytest.approx(1.5)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=200)
        h = one_segment_entropy(samples)
        assert 0.0 <= h <= np.log2(ENTROPY_BINS)

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            one_segment_entropy([1.0], bins=0)


def reference_entropy(samples, bins=ENTROPY_BINS):
    """Entropy of one row's ``np.histogram`` over its own range, as the 1-D code took it."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0 or np.min(arr) == np.max(arr):
        return 0.0
    counts, _ = np.histogram(arr, bins=bins, range=(float(np.min(arr)), float(np.max(arr))))
    p = counts[counts > 0] / arr.size
    return float(-np.sum(p * np.log2(p)))


# Magnitudes up to 1e300 keep every row's range, and so its bin width, finite.
MAGNITUDES = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def entropy_rows(draw, bins):
    """A few rows of one length, all of one shape np.histogram's binning is sensitive to.

    "edges" rows sit on their own bin edges, "ulps" rows span a few ulps (one
    ulp cannot hold two bins), "occupied" rows fill 8 to 10 bins, where
    numpy's pairwise sum starts grouping terms.
    """
    kind = draw(st.sampled_from(("any", "edges", "two", "ulps", "occupied")))
    size, repeat = draw(st.integers(0, 24)), draw(st.integers(1, 4))
    if kind == "any":
        return draw(st.lists(st.lists(MAGNITUDES, min_size=size, max_size=size),
                             min_size=repeat, max_size=repeat))
    lo = draw(MAGNITUDES)
    if kind == "ulps":
        values = [lo]
        for _ in range(draw(st.integers(1, 2 * bins))):
            values.append(float(np.nextafter(values[-1], np.inf)))
        hi = values[-1]
    else:
        hi = lo + abs(lo) * draw(st.floats(1e-15, 1e3)) + draw(st.floats(1e-300, 1e3))
        values = [lo, hi]
    if kind == "edges":
        values = [float(v) for v in np.linspace(lo, hi, bins + 1)]
    if kind == "occupied":
        interior = draw(st.permutations(range(1, bins - 1)))
        occupied = min(bins, draw(st.sampled_from([8, 9, 10])))
        values += [lo + (j + 0.5) * (hi - lo) / bins for j in interior[:occupied - 2]]
    base = values if kind == "occupied" else [lo, hi]
    fill = st.lists(st.sampled_from(values), min_size=size, max_size=size)
    return [draw(st.permutations(base + draw(fill))) for _ in range(repeat)]


class TestSegmentEntropy:
    """segment_entropy, row by row, against the 1-D np.histogram entropy."""

    @staticmethod
    def assert_equals_reference(rows, bins):
        samples = np.array([x for row in rows for x in row], dtype=float)
        counts = np.array([len(row) for row in rows], dtype=np.intp)
        try:
            want = np.array([reference_entropy(row, bins) for row in rows], dtype=float)
        except ValueError:
            with pytest.raises(ValueError):
                segment_entropy(samples, counts, bins)
            return
        assert segment_entropy(samples, counts, bins).tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), bins=st.sampled_from([1, 2, 3, ENTROPY_BINS]))
    def test_equals_np_histogram_bit_for_bit(self, data, bins):
        rows = [row for rows in data.draw(st.lists(entropy_rows(bins), max_size=6))
                for row in rows]
        self.assert_equals_reference(rows, bins)

    @pytest.mark.parametrize("occupied", [8, 9, 10])
    def test_rows_with_many_occupied_bins(self, occupied):
        # Six rows of 40 samples each: both extremes, one sample in each other
        # occupied bin's middle, the rest spread over the occupied bins.
        rng = np.random.default_rng(occupied)
        rows = []
        for _ in range(6):
            lo, width = rng.uniform(1.0, 500.0), rng.uniform(1e-3, 500.0)
            middles = 1 + rng.choice(ENTROPY_BINS - 2, occupied - 2, replace=False)
            extra = rng.choice(np.append(middles, [0, ENTROPY_BINS - 1]), 40 - occupied)
            where = np.concatenate([middles, extra]) + 0.5
            row = np.concatenate([[lo, lo + width], lo + where * width / ENTROPY_BINS])
            rows.append(list(rng.permutation(row)))
            hist, _ = np.histogram(row, ENTROPY_BINS, (row.min(), row.max()))
            assert np.count_nonzero(hist) == occupied
        self.assert_equals_reference(rows, ENTROPY_BINS)

    def test_empty_constant_and_spread_rows_in_one_call(self):
        got = segment_entropy(np.array([4.0, 4.0, 1.0, 1.0, 9.0, 9.0, 7.0]),
                              np.array([0, 2, 4, 0, 1]), bins=2)
        assert got.tobytes() == np.array([0.0, 0.0, 1.0, 0.0, 0.0]).tobytes()

    def test_range_too_narrow_for_the_bins(self):
        lo = 1.0
        with pytest.raises(ValueError):
            segment_entropy(np.array([lo, np.nextafter(lo, 2.0)]), np.array([2]), bins=2)


def one_window(entries, window, schema):
    """``window_matrix``'s row for one window of the entries' log."""
    return window_matrix(device_log(entries), [window], schema)[0]


class TestOneWindow:
    def test_single_reference_entry(self):
        entry = parse_entry(COORD_LINE)
        window = (entry.segments[0].sent_at.replace(second=0, microsecond=0),
                  entry.segments[0].sent_at.replace(second=0, microsecond=0)
                  + (WINDOW[1] - WINDOW[0]))
        v = one_window([entry], window, COORDINATOR_SCHEMA)
        assert v[SLOT["delay_mean"]] == pytest.approx(514.539, abs=1e-3)
        assert v[SLOT["first_hop_mean"]] == pytest.approx(63.568, abs=1e-3)
        assert v[SLOT["avg_hops"]] == 3.0
        assert v[SLOT["total_count"]] == 1.0
        assert v[SLOT["count_3hop"]] == 1.0

    def test_empty_window_is_all_zero(self):
        v = one_window([], WINDOW, COORDINATOR_SCHEMA)
        assert v.shape == (N_FEATURES,)
        assert not v.any()

    def test_two_entry_quartile_oracle(self):
        # end-to-end delays {100, 300} ms -> mean 200, Q1 150, Q2 200, Q3 250
        entries = [coordinator_entry(E1, [R1, C], ts(1.0), hop_ms=50.0),
                   coordinator_entry(E1, [R1, C], ts(2.0), hop_ms=150.0)]
        v = one_window(entries, WINDOW, COORDINATOR_SCHEMA)
        assert v[SLOT["delay_mean"]] == pytest.approx(200.0)
        assert v[SLOT["delay_q1"]] == pytest.approx(150.0)
        assert v[SLOT["delay_q2"]] == pytest.approx(200.0)
        assert v[SLOT["delay_q3"]] == pytest.approx(250.0)
        assert v[SLOT["delay_min"]] == pytest.approx(100.0)
        assert v[SLOT["delay_max"]] == pytest.approx(300.0)

    def test_segment_pair_counts(self):
        entries = [coordinator_entry(E1, [R1, C], ts(1.0))]
        v = one_window(entries, WINDOW, COORDINATOR_SCHEMA)
        assert v[SLOT["count_src_E1"]] == 1.0
        assert v[SLOT["count_src_R1"]] == 1.0
        assert v[SLOT["count_dst_R1"]] == 1.0
        assert v[SLOT["count_dst_C"]] == 1.0
        assert v[SLOT["count_dst_A"]] == 0.0
        assert v[SLOT["count_2hop"]] == 1.0

    def test_window_assignment_by_first_send(self):
        inside = coordinator_entry(E1, [R1, C], ts(59.9))
        outside = coordinator_entry(E1, [R1, C], ts(60.0))
        v = one_window([inside, outside], WINDOW, COORDINATOR_SCHEMA)
        assert v[SLOT["total_count"]] == 1.0

    def test_router_schema_zero_fills(self):
        entry = parse_entry(ROUTER_LINE)
        window = (entry.segments[0].sent_at.replace(second=0, microsecond=0),
                  entry.segments[0].sent_at.replace(second=0, microsecond=0)
                  + (WINDOW[1] - WINDOW[0]))
        v = one_window([entry], window, ROUTER_SCHEMA)
        for slot in ROUTER_ZERO_SLOTS:
            assert v[slot] == 0.0
        assert v[SLOT["first_hop_mean"]] == pytest.approx(63.568, abs=1e-3)

    def test_permutation_invariance(self):
        entries = [coordinator_entry(E1, [R1, C], ts(i), hop_ms=40 + 7 * i)
                   for i in range(5)]
        forward = one_window(entries, WINDOW, COORDINATOR_SCHEMA)
        backward = one_window(entries[::-1], WINDOW, COORDINATOR_SCHEMA)
        np.testing.assert_array_equal(forward, backward)


class TestRouterView:
    def test_keeps_only_entries_the_router_forwarded(self):
        own = parse_entry(ROUTER_LINE)  # R3 forwards E3's packet
        log = device_log([own])
        assert list(router_view(log, R3)) == [own]
        assert list(router_view(log, R1)) == []

    def test_rejects_non_router(self):
        with pytest.raises(ValueError):
            router_view(device_log([]), E3)


def vec(values):
    return FeatureVector(WINDOW[0], C, np.asarray(values, dtype=float))


class TestScaler:
    def _params(self, lows, highs):
        return ScalerParams(np.asarray(lows, dtype=float),
                            np.asarray(highs, dtype=float))

    def test_midpoint_maps_to_half(self):
        params = self._params([0.0] * 31, [10.0] * 31)
        out = apply_scaler([vec([5.0] * 31), vec([2.5] * 31)], params)
        assert out.dtype == np.float32 and out.shape == (2, 31)
        np.testing.assert_allclose(out[0], 0.5)
        np.testing.assert_allclose(out[1], 0.25)

    def test_constant_slot_maps_to_zero(self):
        lows = [0.0] * 31
        highs = [10.0] * 31
        highs[4] = 0.0  # slot 4 constant in training
        params = self._params(lows, highs)
        out = apply_scaler([vec([7.0] * 31)], params)
        assert out[0, 4] == 0.0

    def test_out_of_range_clamps(self):
        params = self._params([0.0] * 31, [10.0] * 31)
        high, low = apply_scaler([vec([15.0] * 31), vec([-3.0] * 31)], params)
        np.testing.assert_allclose(high, 1.0)
        np.testing.assert_allclose(low, 0.0)

    def test_rows_equal_each_vector_scaled_in_float64_then_cast(self):
        rng = np.random.default_rng(0)
        params = fit_scaler([vec(rng.uniform(0.0, 50.0, 31)) for _ in range(20)])
        vectors = [vec(rng.uniform(-10.0, 60.0, 31)) for _ in range(7)]
        for row, v in zip(apply_scaler(vectors, params), vectors):
            scaled = (v.values - params.mins) / (params.maxs - params.mins)
            assert row.tobytes() == np.clip(scaled, 0.0, 1.0).astype(np.float32).tobytes()

    def test_fit_recovers_min_max(self):
        train = [vec([float(i)] * 31) for i in (2, 5, 9)]
        params = fit_scaler(train)
        np.testing.assert_allclose(params.mins, 2.0)
        np.testing.assert_allclose(params.maxs, 9.0)

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_scaler([])

    def test_params_shape_checked(self):
        with pytest.raises(ScalerMismatch):
            ScalerParams(np.zeros(30), np.ones(30))
        with pytest.raises(ScalerMismatch):
            ScalerParams(np.ones(31), np.zeros(31))

    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=-50, max_value=50))
    def test_scaling_is_order_preserving(self, x1, x2):
        params = self._params([-10.0] * 31, [10.0] * 31)
        lo, hi = sorted((x1, x2))
        a, b = apply_scaler([vec([lo] * 31), vec([hi] * 31)], params)[:, 0]
        assert a <= b


class TestWindowsAndCsv:
    def test_make_windows_counts(self):
        assert len(make_windows(ts(0), 3600.0)) == 60
        assert len(make_windows(ts(0), 90.0)) == 2  # ceil
        assert len(make_windows(ts(0), 2.1, 0.7)) == 3  # 2.1 // 0.7 == 2.0 in floats

    def test_window_shorter_than_a_microsecond_rejected(self):
        with pytest.raises(ValueError):
            make_windows(ts(0), 1.0, 1e-7)

    def test_windows_are_tumbling(self):
        windows = make_windows(ts(0), 180.0)
        for (s1, e1), (s2, _) in zip(windows, windows[1:]):
            assert e1 == s2
            assert (e1 - s1).total_seconds() == 60.0

    def test_csv_header_and_truth_labels(self):
        vectors = [vec([1.0] * 31), vec([2.0] * 31)]
        text = to_csv(vectors, truths=[False, True])
        lines = text.strip().split("\n")
        assert lines[0].startswith("window_start,device,truth,delay_mean")
        assert lines[0].count(",") == 3 + 30
        assert ",normal," in lines[1]
        assert ",attack," in lines[2]


# Reference: the per-entry feature code the columnar ``window_matrix`` must
# equal. Entries are bucketed by bisection over the window starts, and each
# window's vector is built from its LogEntry objects in stream order.
_SRC_SLOT = {node: 16 + i for i, node in enumerate(EDGES + ROUTERS)}
_DST_SLOT = {node: 23 + i for i, node in enumerate(ROUTERS + (C, A))}


def _delay_samples(entries):
    e2e, first = [], []
    for e in entries:
        if e.kind is EntryKind.COORDINATOR:
            e2e.append(end_to_end_delay(e))
        if e.segments[0].received_at is not None:
            first.append(first_hop_delay(e))
    return e2e, first


def _stats(samples):
    if not samples:
        return 0.0, 0.0, 0.0, 0.0
    arr = np.asarray(samples)
    return float(arr.mean()), float(arr.std()), float(arr.min()), float(arr.max())


def _quartiles(samples):
    if not samples:
        return 0.0, 0.0, 0.0
    q1, q2, q3 = np.percentile(samples, [25.0, 50.0, 75.0])
    return float(q1), float(q2), float(q3)


def window_vector(selected, start, schema, device=C):
    values = np.zeros(N_FEATURES)
    if selected:
        e2e, first = _delay_samples(selected)
        values[0:4] = _stats(e2e)
        values[4:7] = _quartiles(e2e)
        mean_f, std_f, _, _ = _stats(first)
        values[7:9] = (mean_f, std_f)
        values[9:12] = _quartiles(first)
        values[12] = reference_entropy(e2e)
        values[13] = reference_entropy(first)
        hops = [len(e.segments) for e in selected]
        values[14] = len(selected)
        values[15] = float(np.mean(hops))
        segments = [seg for e in selected for seg in e.segments]
        srcs = Counter(seg.src for seg in segments)
        dsts = Counter(seg.dst for seg in segments)
        for node, slot in _SRC_SLOT.items():
            values[slot] = srcs[node]
        for node, slot in _DST_SLOT.items():
            values[slot] = dsts[node]
        for n, count in Counter(hops).items():
            if 1 <= n <= 3:
                values[27 + n] = count
    for slot in schema:
        values[slot] = 0.0
    return FeatureVector(start, device, values)


def bucket_entries(entries, windows):
    starts = [start for start, _ in windows]
    buckets = [[] for _ in windows]
    for e in entries:
        sent = e.segments[0].sent_at
        i = bisect_right(starts, sent) - 1
        if i >= 0 and sent < windows[i][1]:
            buckets[i].append(e)
    return buckets


def reference_window_features(entries, windows, schema, device):
    return [window_vector(bucket, start, schema, device)
            for (start, _), bucket in zip(windows, bucket_entries(entries, windows))]


def logged_by_sender(entry, n_segments, status):
    """The entry the sender of segment ``n_segments`` logs for the same packet."""
    *done, last = entry.segments[:n_segments]
    kind = EntryKind.EDGE if n_segments == 1 else EntryKind.ROUTER
    return LogEntry(kind, (*done, Segment(last.src, last.dst, last.sent_at)), status)


# Paths an edge's packet can take to the coordinator in the test entries.
PATHS = ([R1, C], [R2, C], [R3, C], [R3, R2, C], [R1, R2, C])


class TestWindowFeatures:
    """harness.window_features and one-window window_matrix calls against the per-entry
    reference."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           window_len=st.sampled_from([0.7, 1.3, 2.5, 60.0]),
           n_windows=st.integers(min_value=1, max_value=12),
           remainder=st.floats(min_value=0.05, max_value=0.95),
           schema=st.sampled_from([COORDINATOR_SCHEMA, ROUTER_SCHEMA]))
    def test_equals_one_window_matrix_per_window(self, data, window_len, n_windows,
                                              remainder, schema):
        start = ts(0.123457)
        # Not a multiple of window_len: the last window runs past the duration.
        duration = (n_windows - 1 + remainder) * window_len
        windows = make_windows(start, duration, window_len)
        boundaries = [w[0] for w in windows] + [windows[-1][1]]
        span = len(windows) * window_len
        on_boundary = st.sampled_from(boundaries)
        near_boundary = st.tuples(on_boundary, st.sampled_from([-1, 1])).map(
            lambda bt: bt[0] + timedelta(microseconds=bt[1]))
        anywhere = st.floats(min_value=-2 * window_len, max_value=span + 2 * window_len).map(
            lambda x: start + timedelta(seconds=x))
        sends = data.draw(st.lists(st.one_of(on_boundary, near_boundary, anywhere),
                                   max_size=40))
        entries = [coordinator_entry(data.draw(st.sampled_from([E1, E2, E3, E4])),
                                     data.draw(st.sampled_from(PATHS)), sent,
                                     hop_ms=data.draw(st.floats(min_value=1.0, max_value=500.0)))
                   for sent in sends]
        # Some entries as the edge or a router logged them: sender-only last segment.
        for i, cut in enumerate(data.draw(st.lists(st.integers(0, 3), min_size=len(entries),
                                                   max_size=len(entries)))):
            if cut and cut <= len(entries[i].segments):
                entries[i] = logged_by_sender(entries[i], cut, data.draw(st.integers(0, 1)))

        got = harness.window_features(device_log(entries), start, duration,
                                      window_len, schema, R2)
        want = reference_window_features(entries, windows, schema, R2)
        assert len(got) == len(want)
        for g, w, window in zip(got, want, windows):
            assert (g.window_start, g.device) == (w.window_start, w.device)
            assert np.array_equal(g.values, w.values)
            assert np.array_equal(one_window(entries, window, schema), w.values)

    def test_many_entries_per_window_keep_stream_order(self):
        # Hundreds of entries per window, sent in shuffled order: an unstable
        # grouping would reorder the delay samples and change their sums.
        rng = np.random.default_rng(8)
        start = ts(0.0)
        entries = [coordinator_entry(E1, PATHS[int(rng.integers(len(PATHS)))],
                                     start + timedelta(seconds=float(rng.uniform(0.0, 180.0))),
                                     hop_ms=float(rng.uniform(1.0, 500.0)))
                   for _ in range(600)]
        got = harness.window_features(device_log(entries), start, 180.0, 60.0,
                                      COORDINATOR_SCHEMA, C)
        want = reference_window_features(entries, make_windows(start, 180.0, 60.0),
                                         COORDINATOR_SCHEMA, C)
        for g, w in zip(got, want, strict=True):
            assert g.values.tobytes() == w.values.tobytes()

    def test_seeded_counts_across_numpy_summation_regimes(self):
        # Per-window entry counts under 8 (numpy sums them one by one), 8 to
        # 128 (eight accumulators) and over 128 (recursive halving); twelve
        # windows share one count; single-entry and empty windows sit
        # between full ones. Windows 3, 9 and 15 hold one path at one delay.
        counts = [0, 1, 3, 7, 0, 8, 9, 16, 1, 0, 127, 128, 129, 300, *[20] * 12, 0, 1, 5, 1]
        constant = {3, 9, 15}
        rng = np.random.default_rng(13)
        start, window_len = ts(0.0), 60.0
        entries = []
        for w, count in enumerate(counts):
            for _ in range(count):
                sent = start + timedelta(seconds=w * window_len + rng.uniform(0.0, 59.0))
                path = PATHS[0] if w in constant else PATHS[rng.integers(len(PATHS))]
                hop_ms = 42.0 if w in constant else float(rng.uniform(1.0, 500.0))
                entries.append(coordinator_entry(EDGES[rng.integers(4)], path, sent, hop_ms))
        rng.shuffle(entries)
        # A quarter as their sender logged them: fewer end-to-end than first-hop samples.
        for i in rng.choice(len(entries), len(entries) // 4, replace=False):
            entries[i] = logged_by_sender(entries[i], rng.integers(1, 3), 0)
        duration = len(counts) * window_len
        windows = make_windows(start, duration, window_len)
        log = device_log(entries)
        for schema in (COORDINATOR_SCHEMA, ROUTER_SCHEMA):
            got = harness.window_features(log, start, duration, window_len, schema, R2)
            want = reference_window_features(entries, windows, schema, R2)
            for g, w in zip(got, want, strict=True):
                assert g.values.tobytes() == w.values.tobytes()
            assert [v.values[SLOT["total_count"]] for v in got] == counts

    def test_entry_at_a_window_end_lands_in_the_next_window(self):
        windows = make_windows(ts(0), 2.0, 0.7)
        entry = coordinator_entry(E1, [R1, C], windows[0][1])
        assert bucket_entries([entry], windows) == [[], [entry], []]
        vectors = harness.window_features(device_log([entry]), ts(0), 2.0, 0.7,
                                          COORDINATOR_SCHEMA, C)
        assert [v.values[SLOT["total_count"]] for v in vectors] == [0.0, 1.0, 0.0]
