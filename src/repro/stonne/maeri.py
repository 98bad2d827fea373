"""MAERI controller: cycle-level model of the reconfigurable dense fabric.

MAERI [Kwon et al., ASPLOS'18] couples a linear multiplier array to a
chubby distribution tree and an Augmented Reduction Tree (ART).  A mapping
partitions the array into *virtual neurons* (VNs): groups of multipliers
that spatially reduce one output element per tile iteration, while the
remaining dimensions fold temporally.

The model (DESIGN.md §3) computes, per tile iteration, the steady-state
initiation interval ``II = max(dn, rn, compute, raw_stall)`` where

* ``dn`` — cycles to inject the iteration's *unique* operands into the
  distribution tree (weights multicast across ``T_X/T_Y`` VNs and inputs
  multicast across ``T_K`` count once);
* ``rn`` — cycles to drain the iteration's outputs, with partial outputs
  paying the accumulation-buffer read-modify-write occupancy;
* ``compute`` — always 1: an iteration issues exactly one MAC per occupied
  multiplier, so it is the interval's floor;
* ``raw_stall`` — the accumulation RAW hazard, paid whenever the iteration
  accumulates onto outputs the previous iteration wrote (temporal
  reduction folds).

Identical steady-state iterations are batched ("macro-tile batching"), so
simulating a layer is O(1) in the iteration count while remaining a
deterministic function of (layer, config, mapping) exactly like STONNE.

The model is written once, over tile *columns*: :func:`conv_profile` /
:func:`fc_profile` and :func:`steady_state` take either one mapping's
tiles as Python ints (``run_conv`` and friends) or a whole batch's tiles
as int64 numpy columns (the ``*_batch`` kernels), so the two paths
cannot disagree.  :func:`fits_int64` decides per layer whether the int64
columns are exact; layers beyond it run every row on Python ints.

:meth:`MaeriController.steady_cycles` is the steady term on its own, at
the controller's bandwidths and RAW stall.  The mRNA mapper
(:mod:`repro.mrna`) prices its candidates with that method, so mapping
and simulation share one price.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple, Optional, Sequence, Union

from repro.errors import ConfigError, SimulationError
from repro.stonne.config import ControllerType, SimulatorConfig
from repro.stonne.controller import (
    AcceleratorController,
    _batch_count,
    _captured,
    _single_batch,
    register_controller,
)
from repro.stonne.distribution import DistributionNetwork
from repro.stonne.layer import ConvLayer, FcLayer
from repro.stonne.mapping import (
    ConvMapping,
    FcMapping,
    conv_batch_invalid,
    conv_tile_bounds,
    fc_batch_invalid,
    fc_tile_bounds,
    pack_conv_mappings,
    pack_fc_mappings,
)
from repro.stonne.params import CycleModelParams, DEFAULT_PARAMS
from repro.stonne.reduction import make_reduction_network
from repro.stonne.stats import SimulationStats, build_stats, build_traffic


class TileProfile(NamedTuple):
    """What one tile iteration moves and how many iterations there are.

    Every field is a Python int (one mapping) or an int64 column (one
    row per mapping of a batch).
    """

    iterations: object
    red_folds: object
    vn_size: object
    num_vns: object
    unique_weights: object
    unique_inputs: object
    psums: object


def _folds(bounds, tiles):
    return [-(-bound // tile) for bound, tile in zip(bounds, tiles)]


def conv_profile(layer: ConvLayer, tiles) -> TileProfile:
    """The conv tile profile for ``tiles`` in ``ConvMapping.as_tuple`` order.

    Weights are shared (multicast) across the ``T_X * T_Y`` output-pixel
    VNs; the input window is shared across the ``T_K`` filter VNs, and
    neighbouring output pixels overlap (halo reuse), so the unique input
    count is the union window, not ``vn_size * num_vns``.

    Psums are accumulation-buffer writebacks plus per-iteration flushes:
    one writeback per output element per temporal reduction fold, plus
    one configuration-flush psum per tile iteration (the same flush term
    the FC counter has).  Minimizing this maximizes spatial reduction
    (``T_R*T_S*T_C``) first and output parallelism second.
    """
    t_r, t_s, t_c, t_k, t_g, t_n, t_x, t_y = tiles
    f_r, f_s, f_c, f_k, f_g, f_n, f_x, f_y = _folds(conv_tile_bounds(layer), tiles)
    red_folds = f_r * f_s * f_c
    iterations = red_folds * f_k * f_g * f_n * f_x * f_y
    in_rows = (t_x - 1) * layer.stride_h + t_r
    in_cols = (t_y - 1) * layer.stride_w + t_s
    return TileProfile(
        iterations=iterations,
        red_folds=red_folds,
        vn_size=t_r * t_s * t_c,
        num_vns=t_k * t_g * t_n * t_x * t_y,
        unique_weights=t_k * t_g * t_c * t_r * t_s,
        unique_inputs=t_g * t_c * in_rows * in_cols * t_n,
        psums=layer.output_elements * red_folds + iterations,
    )


def fc_profile(layer: FcLayer, tiles) -> TileProfile:
    """The dense tile profile for ``tiles`` in ``FcMapping.as_tuple`` order.

    Every weight is distinct (``T_S * T_K``); the ``T_K`` input
    activations are multicast across the ``T_S`` output-neuron VNs.  Psums
    are the reduction network's spatial adds (``vn_size - 1`` per VN)
    plus one flush per iteration.
    """
    t_s, t_k, t_n = tiles
    f_s, f_k, f_n = _folds(fc_tile_bounds(layer), tiles)
    iterations = f_s * f_k * f_n
    num_vns = t_s * t_n
    return TileProfile(
        iterations=iterations,
        red_folds=f_k,
        vn_size=t_k,
        num_vns=num_vns,
        unique_weights=t_s * t_k,
        unique_inputs=t_k * t_n,
        psums=iterations * (num_vns * (t_k - 1) + 1),
    )


def _maximum(first, *rest):
    """``max`` on Python ints; elementwise maximum on numpy columns."""
    if isinstance(first, int):
        return max(first, *rest)
    import numpy as np

    return functools.reduce(np.maximum, rest, first)


def steady_state(profile: TileProfile, dn_bw: int, rn_bw: int,
                 rmw_occupancy: int, raw_stall: int):
    """``(partial_iters, final_iters, steady_cycles)`` of a tile profile.

    Iterations that accumulate onto outputs a later fold revisits write
    *partial* outputs (read-modify-write occupancy at the reduction
    port); the last reduction fold of every output writes finals.  Both
    kinds pay ``raw_stall`` when the layer has temporal reduction folds.
    """
    num_vns = profile.num_vns
    stall = raw_stall * (profile.red_folds > 1)
    dn = -(-(profile.unique_weights + profile.unique_inputs) // dn_bw)
    ii_partial = _maximum(dn, -(-(num_vns * rmw_occupancy) // rn_bw), stall, 1)
    ii_final = _maximum(dn, -(-num_vns // rn_bw), stall, 1)
    partial_iters = profile.iterations // profile.red_folds * (profile.red_folds - 1)
    final_iters = profile.iterations - partial_iters
    return (
        partial_iters,
        final_iters,
        partial_iters * ii_partial + final_iters * ii_final,
    )


def fits_int64(layer: Union[ConvLayer, FcLayer], ms_size: int,
               rmw_occupancy: int, raw_stall: int, fill: int = 0) -> bool:
    """Whether int64 columns evaluate every valid mapping of ``layer`` exactly.

    ``layer`` is the single-batch replica (batch-N scaling happens on
    Python ints).  For a mapping that passes ``validate_for``, every tile
    is between 1 and its layer bound and the product of any subset of
    tiles is at most ``ms_size``.  Hence, with ``macs`` the product of
    the tile bounds:

    * ``iterations`` (the product of the folds) is at most ``macs``;
    * ``vn_size``, ``num_vns`` and ``unique_weights`` are at most
      ``ms_size``;
    * ``unique_inputs = T_G*T_C*T_N * in_rows * in_cols``, with
      ``in_rows <= T_X*stride_h + T_R`` and ``in_cols <= T_Y*stride_w +
      T_S``, expands to four stride products times products of distinct
      tiles, so it is at most ``ms_size * window`` with ``window =
      (stride_h + 1) * (stride_w + 1)`` (dense layers: ``T_K*T_N``,
      window 1);
    * each interval is at most ``per_iter = weights + inputs + num_vns *
      rmw_occupancy + raw_stall + 1``, the sum of its ``max`` terms;
    * psums are at most ``2 * macs`` (conv) or ``macs * ms_size`` (dense),
      both below ``macs * per_iter``.

    Every factor the profile and :func:`steady_state` multiply is >= 1,
    so each partial product is at most its final value, and every value
    formed is at most ``macs * per_iter + fill``, with ``fill`` bounding
    the pipeline fill added to the steady cycles.  That bound below
    ``2**63`` makes the int64 arithmetic exact.
    """
    if isinstance(layer, ConvLayer):
        window = (layer.stride_h + 1) * (layer.stride_w + 1)
        bounds = conv_tile_bounds(layer)
    else:
        window = 1
        bounds = fc_tile_bounds(layer)
    macs = functools.reduce(lambda a, b: a * b, bounds)
    per_iter = ms_size * (1 + window + rmw_occupancy) + raw_stall + 1
    return macs * per_iter + fill < 2 ** 63


@register_controller(ControllerType.MAERI_DENSE_WORKLOAD)
class MaeriController(AcceleratorController):
    """Simulates conv2d and dense workloads on a MAERI configuration."""

    workloads = frozenset({"conv", "fc"})
    requires_mapping = True

    def __init__(
        self,
        config: SimulatorConfig,
        params: CycleModelParams = DEFAULT_PARAMS,
    ) -> None:
        if config.controller_type is not ControllerType.MAERI_DENSE_WORKLOAD:
            raise ConfigError(
                f"MaeriController requires a MAERI config, got "
                f"{config.controller_type.value}"
            )
        self.config = config
        self.params = params
        self._controller_name = config.controller_type.value
        self.distribution = DistributionNetwork(
            bandwidth=config.dn_bw, fanout=config.ms_size
        )
        self.reduction = make_reduction_network(
            config.reduce_network_type.value,
            bandwidth=config.rn_bw,
            rmw_occupancy=params.rmw_occupancy,
        )
        if params.acc_raw_latency < 0:
            raise SimulationError(
                f"acc_raw_latency must be >= 0, got {params.acc_raw_latency}"
            )
        # Without an accumulation buffer psums spill to the global buffer
        # and are re-fetched, doubling the read-after-write stall.
        self._raw_stall = params.acc_raw_latency * (
            1 if config.accumulation_buffer else 2
        )

    # ------------------------------------------------------------------
    # cycle model core
    # ------------------------------------------------------------------
    def steady_cycles(self, profile: TileProfile):
        """The steady-state cycles of a tile profile, as an int or a column.

        This is the one MAERI price: :meth:`_evaluate` adds pipeline fill
        to it, and the mRNA mapper ranks its candidates by it alone.
        """
        return steady_state(
            profile,
            self.config.dn_bw,
            self.config.rn_bw,
            self.reduction.rmw_occupancy,
            self._raw_stall,
        )[2]

    def fits_int64(self, layer: Union[ConvLayer, FcLayer]) -> bool:
        """Whether int64 columns evaluate every valid mapping of ``layer``
        exactly, fill included (:func:`fits_int64` at this controller's
        stall)."""
        ms_size = self.config.ms_size
        return fits_int64(
            layer, ms_size, self.reduction.rmw_occupancy, self._raw_stall,
            self._fill_constant() + ms_size,
        )

    def _evaluate(self, profile: TileProfile):
        """The model's stats fields for a tile profile, as ints or columns.

        Returns ``(fill, steady, cycles, psums, iterations,
        multipliers_used, weights_distributed, inputs_distributed)``.
        """
        steady = self.steady_cycles(profile)
        fill = self._fill_constant() + self.reduction.reduction_latency(
            profile.vn_size
        )
        iterations = profile.iterations
        return (
            fill, steady, fill + steady, profile.psums, iterations,
            profile.vn_size * profile.num_vns,
            iterations * profile.unique_weights,
            iterations * profile.unique_inputs,
        )

    def _fill_constant(self) -> int:
        """Mapping-independent pipeline fill: config load plus tree depth."""
        return (
            self.params.config_cycles
            + self.distribution.fill_latency() * self.params.pipeline_fill_per_level
        )

    def _run(self, layer, profile: TileProfile) -> SimulationStats:
        # The record layout _batch builds per row; keep the two in step.
        fill, steady, cycles, psums, iterations, used, wd, id_ = (
            self._evaluate(profile)
        )
        return build_stats(
            layer.name, self._controller_name, cycles, psums, layer.macs,
            iterations, used, self.config.ms_size,
            build_traffic(wd, id_, psums, layer.output_elements),
            {"fill": fill, "steady": steady},
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run_conv(
        self, layer: ConvLayer, mapping: Optional[ConvMapping] = None
    ) -> SimulationStats:
        """Simulate a conv2d layer under ``mapping``; returns its stats.

        Without a mapping the basic all-ones default is used, matching
        Bifrost's fallback behaviour.
        """
        mapping = mapping or ConvMapping.basic()
        mapping.validate_for(layer, self.config.ms_size)
        return self._run(layer, conv_profile(layer, mapping.as_tuple()))

    def run_fc(
        self, layer: FcLayer, mapping: Optional[FcMapping] = None
    ) -> SimulationStats:
        """Simulate a dense layer under ``mapping``; returns its stats."""
        mapping = mapping or FcMapping.basic()
        mapping.validate_for(layer, self.config.ms_size)
        return self._run(layer, fc_profile(layer, mapping.as_tuple()))

    def estimate_conv_psums(
        self, layer: ConvLayer, mapping: Optional[ConvMapping] = None
    ) -> int:
        """Fast psum estimate without running the cycle model (§VII-B).

        STONNE computes the psum count "in less than a second" because no
        execution is needed; here it is a closed form.
        """
        mapping = mapping or ConvMapping.basic()
        mapping.validate_for(layer, self.config.ms_size)
        return conv_profile(layer, mapping.as_tuple()).psums

    def estimate_fc_psums(
        self, layer: FcLayer, mapping: Optional[FcMapping] = None
    ) -> int:
        """Fast psum estimate for a dense layer (no cycle simulation)."""
        mapping = mapping or FcMapping.basic()
        mapping.validate_for(layer, self.config.ms_size)
        return fc_profile(layer, mapping.as_tuple()).psums

    # ------------------------------------------------------------------
    # batch kernels: the same model on int64 columns
    # ------------------------------------------------------------------
    def run_conv_batch(
        self, layer: ConvLayer, mappings: Sequence[Optional[ConvMapping]]
    ) -> List[Union[SimulationStats, Exception]]:
        return self._batch(layer, mappings, conv=True, estimate=False)

    def run_fc_batch(
        self, layer: FcLayer, mappings: Sequence[Optional[FcMapping]]
    ) -> List[Union[SimulationStats, Exception]]:
        return self._batch(layer, mappings, conv=False, estimate=False)

    def estimate_conv_psums_batch(
        self, layer: ConvLayer, mappings: Sequence[Optional[ConvMapping]]
    ) -> List[Union[int, Exception]]:
        return self._batch(layer, mappings, conv=True, estimate=True)

    def estimate_fc_psums_batch(
        self, layer: FcLayer, mappings: Sequence[Optional[FcMapping]]
    ) -> List[Union[int, Exception]]:
        return self._batch(layer, mappings, conv=False, estimate=True)

    def _batch(self, layer, mappings, conv: bool, estimate: bool) -> List:
        """Evaluate the model on int64 columns, one row per mapping.

        Rows ``validate_for`` would reject (and batch-parallel ``T_N``
        rows of a batch-N layer) run through the scalar method, which
        raises the exact exception; so does every row of a layer beyond
        :func:`fits_int64`.  Batch-N results scale the single-batch row
        exactly like the scalar wrapper does.
        """
        import numpy as np

        if estimate:
            scalar = self.estimate_conv_psums if conv else self.estimate_fc_psums
        else:
            scalar = self.run_conv if conv else self.run_fc
        count = _batch_count(layer)
        base = layer if count == 1 else _single_batch(layer)
        if not self.fits_int64(base):
            return [_captured(scalar, layer, m) for m in mappings]

        ms_size = self.config.ms_size
        if conv:
            default = ConvMapping.basic()
            tiles = pack_conv_mappings([m or default for m in mappings])
            bad = conv_batch_invalid(base, tiles, ms_size)
            t_n = tiles[:, 5]
        else:
            default = FcMapping.basic()
            tiles = pack_fc_mappings([m or default for m in mappings])
            bad = fc_batch_invalid(base, tiles, ms_size)
            t_n = tiles[:, 2]
        if count > 1:
            # The scalar wrapper rejects batch-parallel T_N before
            # validation; replaying flagged rows preserves that ordering.
            bad = bad | (t_n != 1)
        results: List = [None] * len(mappings)
        for row in np.flatnonzero(bad).tolist():
            results[row] = _captured(scalar, layer, mappings[row])
        ok = np.flatnonzero(~bad)
        profile = (conv_profile if conv else fc_profile)(base, tuple(tiles[ok].T))
        rows = ok.tolist()

        if estimate:
            for row, psums in zip(rows, profile.psums.tolist()):
                results[row] = psums * count
            return results

        # _run's record layout, built inline: one record per row is most
        # of a batch's cost, so the loop makes no other call.
        name, controller = layer.name, self._controller_name
        macs, outputs, ms_size = base.macs, base.output_elements, ms_size
        for row, fill, steady, cycles, psums, iters, used, wd, id_ in zip(
            rows, *(column.tolist() for column in self._evaluate(profile))
        ):
            stats = build_stats(
                name, controller, cycles, psums, macs, iters, used, ms_size,
                build_traffic(wd, id_, psums, outputs),
                {"fill": fill, "steady": steady},
            )
            results[row] = stats if count == 1 else stats.repeated(count)
        return results
