import gzip
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlrmkit.datagen import (
    CriteoFormatError,
    RandomDataSpec,
    TraceGenerator,
    TraceProfile,
    adjust_distribution,
    default_first_touch_floor,
    gen_dense_batch,
    gen_sparse_batch,
    generate_trace,
    load_profile,
    lru_hit_rate,
    parse_criteo,
    profile_trace,
    read_criteo,
    save_profile,
)
from dlrmkit.dense import RngStream

from oracles import TraceGeneratorRef, profile_trace_ref, total_variation


def assert_profile_equals_oracle(trace):
    def hex_items(probabilities):
        return [(d, mass.hex()) for d, mass in probabilities.items()]

    p = profile_trace(trace)
    uniques, probabilities = profile_trace_ref(trace)
    assert p.uniques == uniques
    # an np.int64 would print as np.int64(5) in error messages
    assert all(type(u) is int for u in p.uniques)
    assert hex_items(p.probabilities) == hex_items(probabilities)


class TestDenseGeneration:
    def spec(self, **kw):
        base = dict(batch_size=4, dense_dim=3, table_sizes=[10, 6],
                    indices_per_lookup=3)
        base.update(kw)
        return RandomDataSpec(**base)

    def test_shape(self):
        out = gen_dense_batch(self.spec(), RngStream(1))
        assert out.shape == (4, 3)

    def test_uniform_range(self):
        out = gen_dense_batch(self.spec(batch_size=200), RngStream(2))
        assert out.min() >= 0.0 and out.max() < 1.0

    def test_seed_reproducibility(self):
        a = gen_dense_batch(self.spec(), RngStream(4))
        b = gen_dense_batch(self.spec(), RngStream(4))
        assert np.array_equal(a, b)

    def test_k_larger_than_table_rejected(self):
        with pytest.raises(ValueError):
            self.spec(indices_per_lookup=7)


class TestSparseGeneration:
    def spec(self, **kw):
        base = dict(batch_size=6, dense_dim=2, table_sizes=[6, 9],
                    indices_per_lookup=3)
        base.update(kw)
        return RandomDataSpec(**base)

    def test_fixed_mode_lengths(self):
        sb = gen_sparse_batch(self.spec(indices_fixed=True,
                                        indices_per_lookup=1), 0, RngStream(5))
        assert np.all(sb.lengths() == 1)

    def test_range_mode_lengths_in_bounds(self):
        sb = gen_sparse_batch(self.spec(batch_size=100), 1, RngStream(6))
        lens = sb.lengths()
        assert lens.min() >= 1 and lens.max() <= 3

    def test_invariants_hold(self):
        sb = gen_sparse_batch(self.spec(), 0, RngStream(7))
        sb.validate()
        assert sb.indices.min() >= 0 and sb.indices.max() < 6
        assert sb.num_segments == 6

    def test_deterministic(self):
        a = gen_sparse_batch(self.spec(), 0, RngStream(8))
        b = gen_sparse_batch(self.spec(), 0, RngStream(8))
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("fixed", [False, True])
    def test_whole_batch_draws(self, fixed):
        # counts in one call (none drawn when fixed), then every index in one
        spec = self.spec(batch_size=50, indices_fixed=fixed)
        sb = gen_sparse_batch(spec, 1, RngStream(9))
        ref = RngStream(9)
        lengths = np.full(50, 3) if fixed else ref.integers(1, 4, size=50)
        indices = ref.integers(0, 9, size=int(lengths.sum()))
        assert np.array_equal(sb.lengths(), lengths)
        assert np.array_equal(sb.indices, indices)

    @pytest.mark.parametrize("fixed, mean", [(False, 2.0), (True, 3)])
    def test_mean_lookups(self, fixed, mean):
        assert self.spec(indices_fixed=fixed).mean_lookups() == mean


class TestProfileTrace:
    def test_triple_repeat(self):
        p = profile_trace([7, 7, 7])
        assert p.uniques == [7]
        assert p.probabilities == {0: 1 / 3, 1: 2 / 3}

    def test_interleaved(self):
        p = profile_trace([1, 2, 1])
        assert p.uniques == [1, 2]
        assert p.probabilities == {0: 2 / 3, 2: 1 / 3}

    def test_empty(self):
        p = profile_trace([])
        assert p.uniques == [] and p.probabilities == {}

    def test_first_touch_count_equals_uniques(self):
        rng = RngStream(9)
        tr = rng.integers(0, 40, 1000).tolist()
        p = profile_trace(tr)
        n0 = round(p.probabilities[0] * 1000)
        assert n0 == len(p.uniques) == len(set(tr))

    def test_masses_sum_to_one(self):
        tr = RngStream(10).integers(0, 12, 777).tolist()
        p = profile_trace(tr)
        assert abs(math.fsum(p.probabilities.values()) - 1.0) <= 1e-12
        assert max(p.probabilities) <= len(p.uniques)

    @pytest.mark.parametrize("trace", [
        [],
        [4] * 30,
        list(range(500, 0, -1)),
        RngStream(23).integers(0, 3, 2000).tolist(),
        RngStream(24).integers(0, 10000, 20000).tolist(),
    ], ids=["empty", "single-id", "all-distinct", "heavy-repeats",
            "20k-over-10k"])
    def test_equals_list_stack_oracle(self, trace):
        assert_profile_equals_oracle(trace)

    @pytest.mark.parametrize("n, m", [(8704, 500), (3000, 40)],
                             ids=["bootstrap-shaped", "small-universe"])
    def test_int64_array_equals_list(self, n, m):
        # the synthetic source's bootstrap draw, as drawn and as a list
        draw = RngStream(26).integers(0, m, size=n)
        assert_profile_equals_oracle(draw)
        assert_profile_equals_oracle(draw.tolist())

    def test_ids_outside_int64(self):
        big, small = 2**63, -(2**63) - 1
        trace = [big, 5, small, 5, big, 0, small, 2**62, big]
        assert_profile_equals_oracle(trace)
        assert profile_trace(trace).uniques == [big, 5, small, 0, 2**62]

    @pytest.mark.parametrize("trace, bad, position", [
        ([1.5, 1.7, 2.2], "1.5", 0),
        ([1, 2, 2.5], "2.5", 2),
        ([3, math.nan], "nan", 1),
        ([2**63, -math.inf], "-inf", 1),
        ([10**400, 7, 0.5], "0.5", 2),
        (np.array([[4.0, 4.0], [4.25, 1.0]]), "4.25", 2),
    ], ids=["fractions", "fraction-after-ints", "nan", "inf-beyond-int64",
            "fraction-after-a-huge-int", "2-d-float-array"])
    def test_non_integral_id_rejected(self, trace, bad, position):
        message = (f"^ids must be integers, got {bad} at flat position "
                   f"{position}$")
        with pytest.raises(ValueError, match=message):
            profile_trace(trace)
        with pytest.raises(ValueError, match=message):
            lru_hit_rate(trace, 2)

    def test_integral_floats_and_ids_of_any_size_pass(self):
        assert profile_trace([1.0, 2.0, 1.0]) == profile_trace([1, 2, 1])
        huge = 10**400
        assert profile_trace([huge, 3, huge]).uniques == [huge, 3]
        assert lru_hit_rate([huge, 3, huge], 2) == 1 / 3
        assert lru_hit_rate(np.array([1.0, 1.0]), 1) == 0.5

    @given(st.one_of(
        st.lists(st.integers(min_value=0, max_value=9), max_size=300),
        st.lists(st.integers(min_value=0, max_value=10**6), unique=True,
                 max_size=100),
        st.integers().flatmap(lambda a: st.lists(st.just(a), max_size=50)),
        st.lists(st.integers(min_value=-(2**63), max_value=2**63),
                 max_size=200),
    ))
    @settings(max_examples=150, deadline=None)
    def test_equals_list_stack_oracle_fuzzed(self, trace):
        assert_profile_equals_oracle(trace)


class TestGenerateTrace:
    def test_first_emission_is_first_unique(self):
        p = TraceProfile([5, 6, 7], {0: 0.2, 1: 0.8})
        out = generate_trace(p, 1, RngStream(11))
        assert out == [5]

    def test_single_unique_self_loop(self):
        p = TraceProfile([3], {0: 0.01, 1: 0.99})
        out = generate_trace(p, 50, RngStream(12))
        assert out == [3] * 50

    def test_respects_length_and_universe(self):
        tr = RngStream(13).integers(0, 20, 500).tolist()
        prof = profile_trace(tr)
        out = generate_trace(prof, 300, RngStream(14))
        assert len(out) == 300
        assert set(out) <= set(prof.uniques)

    def test_zero_length(self):
        assert generate_trace(profile_trace([1]), 0, RngStream(15)) == []

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(TraceProfile([], {}), 5, RngStream(16))

    def test_exhaustion_without_repeat_mass(self):
        p = TraceProfile([1, 2], {0: 1.0})
        gen = TraceGenerator(p, RngStream(17))
        assert gen.next(2) == [1, 2]
        with pytest.raises(RuntimeError, match="empty sampling support"):
            gen.next(1)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                    max_size=200),
           st.floats(min_value=0.0, max_value=0.5),
           st.integers(min_value=0, max_value=2**32),
           st.lists(st.tuples(st.integers(min_value=0, max_value=80),
                              st.integers(min_value=0, max_value=3)),
                    max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_chunks_equal_per_event_oracle(self, ids, floor, seed, chunks):
        # a trailing repeat keeps distance mass once every unique is seen
        profile = adjust_distribution(profile_trace(ids + ids[:1]), floor)
        stream, ref_stream = RngStream(seed), RngStream(seed)
        gen = TraceGenerator(profile, stream)
        ref = TraceGeneratorRef(profile.uniques, profile.probabilities,
                                ref_stream)
        for count, extra in chunks:
            assert gen.next(count) == ref.next(count)
            # other consumers of the shared stream draw between chunks
            for s in (stream, ref_stream):
                s.integers(1, 5, size=extra)
                s.uniform(1, extra)
        assert (repr(stream._gen.bit_generator.state)
                == repr(ref_stream._gen.bit_generator.state))

    def test_round_trip_distribution(self):
        rng = RngStream(18)
        tr = rng.integers(0, 50, 4000).tolist()
        prof = profile_trace(tr)
        adjusted = adjust_distribution(
            prof, default_first_touch_floor(prof, 4000))
        syn = generate_trace(adjusted, 4000, RngStream(19))
        tv = total_variation(prof.probabilities,
                             profile_trace(syn).probabilities)
        assert tv < 0.08  # noise floor for this size is ~0.05


class TestAdjustDistribution:
    def test_below_current_mass_is_identity(self):
        p = TraceProfile([1], {0: 0.5, 1: 0.5})
        out = adjust_distribution(p, 0.25)
        assert out.probabilities == p.probabilities

    def test_rescale_arithmetic(self):
        p = TraceProfile([1, 2], {0: 0.1, 1: 0.9})
        out = adjust_distribution(p, 0.2)
        assert abs(out.probabilities[0] - 0.2) < 1e-15
        assert abs(out.probabilities[1] - 0.8) < 1e-15

    def test_all_first_touch_profile(self):
        p = TraceProfile([1, 2], {0: 1.0})
        out = adjust_distribution(p, 0.5)
        assert out.probabilities == {0: 1.0}

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            adjust_distribution(TraceProfile([1], {0: 1.0}), 1.5)

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                    max_size=200),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_normalization_and_monotone_first_touch(self, tr, floor):
        prof = profile_trace(tr)
        out = adjust_distribution(prof, floor)
        assert abs(math.fsum(out.probabilities.values()) - 1.0) <= 1e-12
        assert out.probabilities[0] >= prof.probabilities[0]


class TestLruHitRate:
    def test_capacity_covers_uniques(self):
        tr = RngStream(20).integers(0, 10, 400).tolist()
        uniques = len(set(tr))
        expect = (len(tr) - uniques) / len(tr)
        assert lru_hit_rate(tr, 10) == expect
        assert lru_hit_rate(tr, 50) == expect

    def test_single_slot(self):
        assert lru_hit_rate([1, 1, 1, 1], 1) == 0.75

    def test_zero_capacity(self):
        assert lru_hit_rate([1, 2, 3], 0) == 0.0

    def test_empty_trace(self):
        assert lru_hit_rate([], 5) == 0.0

    def test_monotone_in_capacity(self):
        tr = RngStream(21).integers(0, 30, 600).tolist()
        rates = [lru_hit_rate(tr, c) for c in range(0, 35)]
        assert all(a <= b + 1e-15 for a, b in zip(rates, rates[1:]))

    def test_eviction_is_lru(self):
        # capacity 2: access pattern [1,2,1,3,1] keeps 1 hot, evicts 2
        assert lru_hit_rate([1, 2, 1, 3, 1], 2) == pytest.approx(2 / 5)


class TestProfileValidation:
    def test_repeated_unique_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^unique id 1 is listed twice$"):
            TraceProfile([1, 1, 2], {0: 0.5, 1: 0.5}).validate()
        path = tmp_path / "table_0.profile"
        path.write_text("1 1 2\n0 0.5\n1 0.5\n")
        with pytest.raises(ValueError, match="^unique id 1 is listed twice$"):
            load_profile(path)
        with pytest.raises(ValueError, match="^unique id 7 is listed twice$"):
            TraceGenerator(TraceProfile([7, 3, 7], {0: 1.0}), RngStream(1))


class TestProfileSerialization:
    def test_round_trip_exact(self, tmp_path):
        tr = RngStream(22).integers(0, 25, 900).tolist()
        prof = profile_trace(tr)
        path = tmp_path / "table_0.profile"
        save_profile(prof, path)
        back = load_profile(path)
        assert back.uniques == prof.uniques
        assert back.probabilities == prof.probabilities

    def test_empty_profile(self, tmp_path):
        path = tmp_path / "empty.profile"
        save_profile(TraceProfile([], {}), path)
        back = load_profile(path)
        assert back.uniques == [] and back.probabilities == {}


def criteo_line(label="1", dense=None, cats=None):
    dense = dense if dense is not None else [""] * 13
    cats = cats if cats is not None else ["ad56b4f2"] * 26
    return "\t".join([label] + list(dense) + list(cats))


CRITEO_FIELD = st.one_of(
    st.just(""),
    st.integers(min_value=-10**6, max_value=10**30).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999",
                     "-1e999", "0x10", "1_000", " 7 ", "1e-400", "\ud800",
                     "ad56b4f2"]),
    st.text(st.characters(exclude_characters="\t"), max_size=8),
)


class TestCriteo:
    VOCAB = [100] * 26

    def test_zero_dense_value(self):
        s = parse_criteo(criteo_line(dense=["0"] + [""] * 12), self.VOCAB)
        assert s.dense[0] == 0.0

    def test_missing_dense_is_zero(self):
        s = parse_criteo(criteo_line(), self.VOCAB)
        assert np.all(s.dense == 0.0)

    def test_log_transform(self):
        val = repr(math.e - 1.0)
        s = parse_criteo(criteo_line(dense=[val] + [""] * 12), self.VOCAB)
        assert abs(s.dense[0] - 1.0) < 1e-15

    def test_negative_dense_clamped(self):
        s = parse_criteo(criteo_line(dense=["-5"] + [""] * 12), self.VOCAB)
        assert s.dense[0] == 0.0

    def test_missing_label_and_categorical(self):
        s = parse_criteo(criteo_line(label="", cats=[""] * 26), self.VOCAB)
        assert s.label == 0
        assert np.all(s.categorical == 0)

    def test_categorical_hash_stable_and_bounded(self):
        s1 = parse_criteo(criteo_line(), self.VOCAB)
        s2 = parse_criteo(criteo_line(), self.VOCAB)
        assert np.array_equal(s1.categorical, s2.categorical)
        assert np.all((s1.categorical >= 0) & (s1.categorical < 100))

    def test_wrong_field_count_names_line(self):
        with pytest.raises(CriteoFormatError, match="line 7"):
            parse_criteo("1\t2\t3", self.VOCAB, lineno=7)

    def test_bad_label(self):
        with pytest.raises(CriteoFormatError):
            parse_criteo(criteo_line(label="2"), self.VOCAB)

    @pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "Infinity",
                                     "1e999", "9" * 400])
    def test_non_finite_dense_rejected(self, tok):
        with pytest.raises(CriteoFormatError,
                           match="line 3: non-finite dense field 4"):
            parse_criteo(criteo_line(dense=[""] * 4 + [tok] + [""] * 8),
                         self.VOCAB, lineno=3)

    @given(st.one_of(st.sampled_from(["0", "1", ""]), CRITEO_FIELD),
           st.one_of(st.lists(CRITEO_FIELD, min_size=39, max_size=39),
                     st.lists(CRITEO_FIELD, max_size=44)))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_line_parses_cleanly_or_raises_format_error(self, label,
                                                               rest):
        vocab = [1, 2, 3, 97, 2**62] + [100] * 21
        try:
            s = parse_criteo("\t".join([label] + rest), vocab)
        except CriteoFormatError:
            return
        assert s.label in (0, 1)
        assert s.dense.shape == (13,)
        assert np.all(np.isfinite(s.dense)) and np.all(s.dense >= 0.0)
        assert s.categorical.shape == (26,)
        assert np.all(s.categorical >= 0)
        assert np.all(s.categorical < np.array(vocab))

    def test_read_plain_and_gzip(self, tmp_path):
        lines = [criteo_line(label=str(i % 2)) for i in range(5)]
        plain = tmp_path / "day.txt"
        plain.write_text("\n".join(lines) + "\n")
        zipped = tmp_path / "day.txt.gz"
        with gzip.open(zipped, "wt") as f:
            f.write("\n".join(lines) + "\n")
        a = list(read_criteo(plain, self.VOCAB))
        b = list(read_criteo(zipped, self.VOCAB))
        assert len(a) == len(b) == 5
        assert [s.label for s in a] == [s.label for s in b]
