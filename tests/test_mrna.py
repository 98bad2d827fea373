"""Tests for the mRNA analytical mapper."""

import dataclasses
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import LayerError, TuningError
from repro.mrna import MrnaMapper
from repro.mrna import mapper as mrna_mapper
from repro.zoo import zoo_layers
from repro.stonne.config import maeri_config, sigma_config
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.maeri import MaeriController
from repro.stonne.mapping import ConvMapping, FcMapping


@pytest.fixture
def mapper(maeri128):
    return MrnaMapper(maeri128)


@pytest.fixture
def conv():
    return ConvLayer("c", C=16, H=12, W=12, K=32, R=3, S=3, pad_h=1, pad_w=1)


@pytest.fixture
def fc():
    return FcLayer("f", in_features=1024, out_features=512)


class TestConstruction:
    def test_requires_maeri(self):
        with pytest.raises(TuningError, match="MAERI"):
            MrnaMapper(sigma_config())


class TestAnalyticalModel:
    def test_estimates_track_simulation(self, conv, fc):
        """mRNA's estimate is the controller's simulated steady term,
        exactly, with and without the accumulation buffer; the simulator
        adds only pipeline fill on top."""
        layers = [conv, fc] + list(zoo_layers("lenet"))
        for buffer in (True, False):
            config = maeri_config(accumulation_buffer=buffer)
            mapper = MrnaMapper(config)
            controller = MaeriController(config)
            for layer in layers:
                choice = _score(mapper, layer)
                stats = _run(controller, layer, choice.mapping)
                assert choice.estimated_cycles == stats.phase_cycles["steady"]
                assert stats.cycles == (
                    choice.estimated_cycles + stats.phase_cycles["fill"]
                )


PICK_MODELS = ("alexnet", "vgg_small", "lenet", "mlp")


class TestPickIsSteadyOptimal:
    @pytest.mark.parametrize("buffer", [True, False], ids=["acc", "noacc"])
    def test_pick_has_the_fewest_steady_cycles_of_its_candidates(self, buffer):
        """On every layer of the paper networks, mRNA's pick has the
        minimum simulated steady cycles among its own candidates: it and
        the simulator charge one RAW stall (doubled without the buffer)."""
        layers = [
            layer for model in PICK_MODELS for layer in zoo_layers(model)
        ]
        for ms_size, bandwidth in itertools.product(
            (8, 32, 128, 512), (4, 16, 128)
        ):
            config = maeri_config(
                ms_size=ms_size, dn_bw=bandwidth, rn_bw=bandwidth,
                accumulation_buffer=buffer,
            )
            mapper = MrnaMapper(config)
            controller = MaeriController(config)
            for layer in layers:
                conv = isinstance(layer, ConvLayer)
                candidates = (
                    mapper.conv_candidates(layer) if conv
                    else mapper.fc_candidates(layer)
                )
                run_batch = (
                    controller.run_conv_batch if conv
                    else controller.run_fc_batch
                )
                simulated = run_batch(layer, candidates)
                best = min(
                    stats.phase_cycles["steady"] for stats in simulated
                    if not isinstance(stats, Exception)
                )
                choice = _score(mapper, layer)
                assert choice.estimated_cycles == best, (
                    layer.name, ms_size, bandwidth
                )
                picked = _run(controller, layer, choice.mapping)
                assert picked.phase_cycles["steady"] == best


class TestMapper:
    def test_conv_mapping_valid_and_fast(self, mapper, conv, maeri128):
        mapping = mapper.map_conv(conv)
        mapping.validate_for(conv, maeri128.ms_size)
        assert mapping.multipliers_used > 1

    def test_fc_mapping_valid(self, mapper, fc, maeri128):
        mapping = mapper.map_fc(fc)
        mapping.validate_for(fc, maeri128.ms_size)

    def test_beats_basic_mapping_by_far(self, mapper, maeri128, conv, fc):
        controller = MaeriController(maeri128)
        conv_mrna = controller.run_conv(conv, mapper.map_conv(conv)).cycles
        conv_basic = controller.run_conv(conv, ConvMapping.basic()).cycles
        assert conv_basic > 10 * conv_mrna

        fc_mrna = controller.run_fc(fc, mapper.map_fc(fc)).cycles
        fc_basic = controller.run_fc(fc, FcMapping.basic()).cycles
        assert fc_basic > 10 * fc_mrna

    def test_fc_uses_spatial_reduction(self, mapper, fc):
        """mRNA balances T_S and T_K, unlike psum-guided tuning."""
        mapping = mapper.map_fc(fc)
        assert mapping.T_K > 1

    def test_mappings_vary_per_layer(self, mapper):
        """Table VI: mRNA adapts the mapping to layer characteristics."""
        a = mapper.map_fc(FcLayer("a", in_features=9216, out_features=4096))
        b = mapper.map_fc(FcLayer("b", in_features=4096, out_features=1000))
        assert (a.T_S, a.T_K) != (b.T_S, b.T_K) or a != b

    def test_score_includes_estimate(self, mapper, conv):
        choice = mapper.score_conv(conv)
        assert choice.estimated_cycles > 0

    def test_candidates_respect_capacity(self, mapper, conv, maeri128):
        for candidate in mapper.conv_candidates(conv):
            assert candidate.multipliers_used <= maeri128.ms_size

    def test_small_array_still_maps(self, conv):
        mapper = MrnaMapper(maeri_config(ms_size=8))
        mapping = mapper.map_conv(conv)
        assert mapping.multipliers_used <= 8


# ----------------------------------------------------------------------
# The candidate memo: capacity enumerates, bandwidth prices
# ----------------------------------------------------------------------
def _clear_memo():
    mrna_mapper._conv_candidates.cache_clear()
    mrna_mapper._fc_candidates.cache_clear()


def _mapper_at(ms_size, dn_bw, rn_bw):
    config = maeri_config(dn_bw=dn_bw, rn_bw=rn_bw)
    # A config admits only power-of-two arrays; the enumerator takes any
    # capacity, and other capacities make ``ms // prefix`` a non-divisor
    # limit far more often.
    object.__setattr__(config, "ms_size", ms_size)
    return MrnaMapper(config)


def _score(mapper, layer):
    if isinstance(layer, ConvLayer):
        return mapper.score_conv(layer)
    return mapper.score_fc(layer)


def _run(controller, layer, mapping):
    if isinstance(layer, ConvLayer):
        return controller.run_conv(layer, mapping)
    return controller.run_fc(layer, mapping)


def _scalar_score(mapper, layer):
    if isinstance(layer, ConvLayer):
        return mapper._score_conv_scalar(layer)
    return mapper._score_fc_scalar(layer)


@st.composite
def _conv_layers(draw):
    groups = draw(st.sampled_from([1, 2, 4]))
    try:
        return ConvLayer(
            "drawn",
            C=groups * draw(st.integers(1, 8)),
            H=draw(st.integers(1, 16)),
            W=draw(st.integers(1, 16)),
            K=groups * draw(st.integers(1, 8)),
            R=draw(st.integers(1, 5)),
            S=draw(st.integers(1, 5)),
            stride_h=draw(st.integers(1, 3)),
            stride_w=draw(st.integers(1, 3)),
            pad_h=draw(st.integers(0, 2)),
            pad_w=draw(st.integers(0, 2)),
            G=groups,
            N=draw(st.integers(1, 3)),
            dil_h=draw(st.integers(1, 2)),
            dil_w=draw(st.integers(1, 2)),
        )
    except LayerError:
        assume(False)


_fc_layers = st.builds(
    FcLayer,
    name=st.just("drawn"),
    in_features=st.integers(1, 600),
    out_features=st.integers(1, 600),
    batch=st.integers(1, 4),
)
_ms_sizes = st.one_of(
    st.sampled_from([2 ** k for k in range(3, 11)]), st.integers(1, 300)
)
_bandwidths = st.tuples(
    st.sampled_from([2 ** k for k in range(9)]),
    st.sampled_from([2 ** k for k in range(9)]),
)


def _nested_loop_grid(levels, ms):
    """The mapper's divisor loops written out as plain recursion: each
    level takes the divisors of its bound up to the remaining capacity,
    then that cap itself when it is not a divisor."""
    if not levels:
        return [()]
    bound, rest = levels[0], levels[1:]
    cap = min(bound, ms)
    options = [d for d in range(1, cap + 1) if bound % d == 0]
    if options[-1] != cap:
        options.append(cap)
    return [
        (value,) + tail
        for value in options
        for tail in _nested_loop_grid(rest, ms // value)
    ]


class TestCandidateMemo:
    @settings(max_examples=80, deadline=None)
    @given(
        levels=st.lists(st.integers(1, 60), min_size=1, max_size=6),
        ms_size=_ms_sizes,
    )
    def test_tile_grid_is_the_nested_loop_order(self, levels, ms_size):
        grid = mrna_mapper._tile_grid(levels, ms_size)
        assert grid.shape[1] == len(levels)
        assert [tuple(row) for row in grid.tolist()] == _nested_loop_grid(
            levels, ms_size
        )

    @settings(max_examples=60, deadline=None)
    @given(
        layer=st.one_of(_conv_layers(), _fc_layers),
        ms_size=_ms_sizes,
        first=_bandwidths,
        second=_bandwidths,
    )
    def test_memo_scores_equal_the_scalar_scan(self, layer, ms_size, first, second):
        """Warm-memo scores equal the Python-int scan, whatever the name
        or call order: pricing at A then B equals a cold score at B."""
        _clear_memo()
        cold = _score(_mapper_at(ms_size, *second), layer)
        _score(_mapper_at(ms_size, *first), layer)
        renamed = dataclasses.replace(layer, name="renamed")
        for dn_bw, rn_bw in (first, second):
            mapper = _mapper_at(ms_size, dn_bw, rn_bw)
            assert mapper.controller.fits_int64(layer)
            reference = _scalar_score(mapper, layer)
            for scored in (_score(mapper, layer), _score(mapper, renamed)):
                assert scored.mapping == reference.mapping
                assert type(scored.estimated_cycles) is int
                assert scored.estimated_cycles == reference.estimated_cycles
        assert _score(_mapper_at(ms_size, *second), layer) == cold

    def test_alexnet_conv1_winner_moves_with_bandwidth(self):
        """One memo entry, seven winners: bandwidth never leaks into it."""
        conv1 = next(l for l in zoo_layers("alexnet") if l.name == "conv1")
        bandwidths = (1, 8, 64, 512)
        _clear_memo()
        winners = {}
        for dn_bw, rn_bw in itertools.product(bandwidths, bandwidths):
            mapper = MrnaMapper(maeri_config(ms_size=256, dn_bw=dn_bw, rn_bw=rn_bw))
            choice = mapper.score_conv(conv1)
            assert choice == mapper._score_conv_scalar(conv1)
            winners[dn_bw, rn_bw] = choice.mapping
        assert len(set(winners.values())) == 7
        assert mrna_mapper._conv_candidates.cache_info().currsize == 1

    def test_memo_arrays_are_read_only(self, mapper, conv, fc):
        mapper.score_conv(conv)
        mapper.score_fc(fc)
        ms_size = mapper.config.ms_size
        for candidates in (
            mrna_mapper._conv_candidates(dataclasses.replace(conv, name=""), ms_size),
            mrna_mapper._fc_candidates(dataclasses.replace(fc, name=""), ms_size),
        ):
            for array in candidates:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0
