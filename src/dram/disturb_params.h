/**
 * @file
 * Calibrated constants of the activate-induced-bitflip physics model.
 *
 * Each constant is annotated with the paper observation (O1..O14) or
 * figure it reproduces.  The model accumulates a *disturbance dose*
 * per victim cell:
 *
 *   dose_hammer = actCount   * hammerBase * product(factors)
 *   dose_press  = openTimeNs * pressBase  * product(factors)
 *
 * and a cell flips when its dose exceeds the cell's per-mechanism
 * threshold.  Thresholds are distributed uniformly on
 * [thresholdMin, thresholdMax], which makes the bit error rate an
 * (almost exactly) linear function of the dose, so the multiplicative
 * data-pattern factors below transfer one-to-one onto the BER ratios
 * the paper reports.
 */

#ifndef DRAMSCOPE_DRAM_DISTURB_PARAMS_H
#define DRAMSCOPE_DRAM_DISTURB_PARAMS_H

namespace dramscope {
namespace dram {

/** Tunable constants of the AIB disturbance model. */
struct DisturbParams
{
    /** Dose contributed by one aggressor ACT-PRE pair (RowHammer). */
    double hammerBase = 1.0;

    /**
     * Dose contributed per nanosecond of aggressor open-row time
     * (RowPress).  Calibrated so the paper's 8K x 7.8us RowPress
     * attack lands at a dose comparable to a 300K-ACT RowHammer.
     */
    double pressBase = 5.0e-3;

    /**
     * Open-row time below this contributes no RowPress dose: the
     * passing-gate stress needs sustained activation, which is why
     * RowHammer's ~35ns dwells do not act as a RowPress and the two
     * mechanisms flip disjoint cell populations (SS V-B).
     */
    double pressOnsetNs = 200.0;

    /**
     * Cell flip thresholds are uniform on [thresholdMin,
     * thresholdMax], independently per cell and per mechanism.  The
     * uniform law makes BER linear in dose, so the multiplicative
     * pattern factors below transfer directly onto BER ratios.  With
     * the paper's nominal 300K-ACT single-sided RowHammer the
     * baseline BER is (3e5 - 8e3) / 2e6 ~= 0.15 and the weakest cell
     * of a 4K-bit row has Hcnt around 8.5K ACTs — within the range of
     * modern chips.  The range is deliberately compressed relative to
     * silicon so that single-refresh-window attacks (at most ~1.2M
     * ACTs in 64ms) produce measurable differential signals.
     * DeviceConfig::validate requires 0 < thresholdMin <= thresholdMax,
     * so thresholdMin is the least threshold of any cell.
     */
    double thresholdMin = 8.0e3;
    double thresholdMax = 2.0e6;

    /**
     * Susceptibility of the non-susceptible gate type relative to the
     * susceptible one.  Non-zero so Figure 12's "off" phase shows a
     * small residual BER rather than exactly zero (O7-O10).
     */
    double offGateLeak = 0.06;

    /**
     * Victim-row horizontal data-pattern factors (O11, Figure 14a).
     * Applied per *side*: a distance-d neighbour holding the opposite
     * value of the victim multiplies the rate by sqrt(factor), so the
     * paper's both-sides numbers come out when both neighbours are
     * opposite.  Distance-2 influence exceeds distance-1, reflecting
     * the 6F^2 geometry.  Indexed by the victim cell's own value.
     */
    double vicDist1Opposite[2] = {1.12, 1.02};  // [Vic0 = 0], [Vic0 = 1]
    double vicDist2Opposite[2] = {1.54, 1.35};

    /**
     * Aggressor-row horizontal data-pattern factors (O12, Figure
     * 14b).  Baseline is the aggressor cell holding the *opposite*
     * value of the victim; a matching value suppresses the rate.
     * Aggr0 applies once; Aggr+-1 / Aggr+-2 apply per side as
     * sqrt(factor).  Influence is strongest closest to the victim.
     */
    double aggr0Same[2] = {0.58, 0.72};
    double aggr1Same[2] = {0.46, 0.58};
    double aggr2Same[2] = {0.38, 0.30};

    /**
     * Edge-subarray dose multiplier, keyed by the charge state of the
     * directly adjacent aggressor cell (O6, Figure 10).  Dummy
     * bitlines keep edge subarrays quieter, more so when the
     * aggressor holds the charged state.
     */
    double edgeFactorAggrDischarged = 0.78;
    double edgeFactorAggrCharged = 0.45;

    /**
     * Temperature scaling of the dose: rate doubles every
     * tempDoubleC degrees above the 75C reference used in the paper.
     */
    double referenceTempC = 75.0;
    double tempDoubleC = 20.0;

    /**
     * Evaluation cutoff: rows whose maximum possible dose is below
     * thresholdMin * cutoffSlack are cleared without a per-cell scan.
     */
    double cutoffSlack = 0.5;
};

} // namespace dram
} // namespace dramscope

#endif // DRAMSCOPE_DRAM_DISTURB_PARAMS_H
