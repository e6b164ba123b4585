/**
 * @file
 * Bank physics implementation.
 */

#include "dram/bank.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "util/log.h"
#include "util/rng.h"

namespace dramscope {
namespace dram {

namespace {

/** Hash salts separating the independent per-cell random streams. */
constexpr uint64_t kSaltHammer = 0x68616d6dULL;
constexpr uint64_t kSaltPress = 0x70726573ULL;
constexpr uint64_t kSaltRetention = 0x72657465ULL;

uint64_t
cellKey(BankId bank, RowAddr row, BitlineIdx bl, uint64_t salt)
{
    return hashCombine(hashCombine(uint64_t(bank) << 32 | row, bl), salt);
}

/**
 * The ±2-bit neighbourhood of the 64 cells in word @p wi of @p row:
 * bit b of m2, m1, c, p1 and p2 holds bitline 64 wi + b offset by
 * -2, -1, 0, +1 and +2.  Offsets past either row end read 0, and a
 * null row (never materialized, so discharged) reads all 0.
 */
struct Window
{
    uint64_t m2 = 0, m1 = 0, c = 0, p1 = 0, p2 = 0;
};

Window
windowAt(const BitVec *row, size_t wi)
{
    Window w;
    if (!row)
        return w;
    const uint64_t lo = wi > 0 ? row->word(wi - 1) : 0;
    const uint64_t hi = (wi + 1) * 64 < row->size() ? row->word(wi + 1) : 0;
    w.c = row->word(wi);
    w.m1 = w.c << 1 | lo >> 63;
    w.m2 = w.c << 2 | lo >> 62;
    w.p1 = w.c >> 1 | hi << 63;
    w.p2 = w.c >> 2 | hi << 62;
    return w;
}

} // namespace

Bank::Bank(const DeviceConfig &cfg, const SubarrayMap &map, BankId id)
    : cfg_(cfg), map_(map), id_(id)
{
    const auto &dp = cfg_.disturb;
    tempDoseScale_ = std::exp2((cfg_.temperatureC - dp.referenceTempC) /
                               dp.tempDoubleC);
    for (int v = 0; v < 2; ++v) {
        vicSide_[0][v] = std::sqrt(dp.vicDist1Opposite[v]);
        vicSide_[1][v] = std::sqrt(dp.vicDist2Opposite[v]);
        aggrSide_[0][v] = std::sqrt(dp.aggr1Same[v]);
        aggrSide_[1][v] = std::sqrt(dp.aggr2Same[v]);
    }
    const auto &rp = cfg_.retention;
    const double median_ms =
        rp.medianRetentionMs *
        std::exp2((dp.referenceTempC - cfg_.temperatureC) / rp.tempHalveC);
    retentionMu_ = std::log(median_ms * 1.0e6);
}

RowState &
Bank::rowState(RowAddr row, NanoTime now)
{
    panicIf(row >= cfg_.rowsPerBank, "Bank: row out of range");
    auto it = rows_.find(row);
    if (it == rows_.end()) {
        RowState rs;
        rs.charge = BitVec(cfg_.rowBits, false);  // Power-up: discharged.
        rs.lastRestoreNs = now;
        it = rows_.emplace(row, std::move(rs)).first;
    }
    return it->second;
}

double
Bank::threshold(RowAddr row, BitlineIdx bl, AibMechanism mech) const
{
    const auto &dp = cfg_.disturb;
    const uint64_t salt =
        mech == AibMechanism::RowHammer ? kSaltHammer : kSaltPress;
    const double u =
        hashUniform(cfg_.variationSeed, cellKey(id_, row, bl, salt));
    return dp.thresholdMin + u * (dp.thresholdMax - dp.thresholdMin);
}

double
Bank::retentionNs(RowAddr row, BitlineIdx bl) const
{
    return hashLognormal(cfg_.variationSeed,
                         cellKey(id_, row, bl, kSaltRetention), retentionMu_,
                         cfg_.retention.sigmaLog);
}

void
Bank::commitDisturb(RowAddr row, RowState &rs)
{
    const auto &dp = cfg_.disturb;
    const double pend_h = rs.pendHammer[0] + rs.pendHammer[1];
    const double pend_p = rs.pendPressNs[0] + rs.pendPressNs[1];
    if (pend_h == 0.0 && pend_p == 0.0)
        return;

    // Upper bound of the total per-cell rate factor, for the cheap
    // early-out when the dose cannot reach the smallest threshold.
    const double max_vic =
        std::max(dp.vicDist1Opposite[0], dp.vicDist1Opposite[1]) *
        std::max(dp.vicDist2Opposite[0], dp.vicDist2Opposite[1]);
    const double bound = std::max(1.0, max_vic) * tempDoseScale_;
    const double max_dose_h = pend_h * dp.hammerBase * bound;
    const double max_dose_p = pend_p * dp.pressBase * bound;
    if (max_dose_h < dp.thresholdMin * dp.cutoffSlack &&
        max_dose_p < dp.thresholdMin * dp.cutoffSlack) {
        rs.pendHammer[0] = rs.pendHammer[1] = 0.0;
        rs.pendPressNs[0] = rs.pendPressNs[1] = 0.0;
        return;
    }

    const bool in_edge = map_.inEdgeSubarray(row);

    const bool pending[2] = {
        rs.pendHammer[0] != 0.0 || rs.pendPressNs[0] != 0.0,
        rs.pendHammer[1] != 0.0 || rs.pendPressNs[1] != 0.0};

    // Aggressor row charge, per direction (nullptr = all discharged).
    const BitVec *aggr[2] = {nullptr, nullptr};
    for (int dir = 0; dir < 2; ++dir) {
        if (!pending[dir])
            continue;
        const auto nb = map_.neighbor(row, dir == 1);
        panicIf(!nb, "commitDisturb: pending dose without a neighbour");
        auto it = rows_.find(*nb);
        if (it != rows_.end())
            aggr[dir] = &it->second.charge;
    }

    // Rates must be computed against the row state the dose was
    // accumulated under; flipping cells in place while scanning would
    // let an early flip distort the pattern factors of later cells.
    const BitVec before = rs.charge;
    const size_t n = before.size();
    const uint32_t mw = cfg_.matWidth;
    const double base_h[2] = {rs.pendHammer[0] * dp.hammerBase,
                              rs.pendHammer[1] * dp.hammerBase};
    const double base_p[2] = {rs.pendPressNs[0] * dp.pressBase,
                              rs.pendPressNs[1] * dp.pressBase};
    // Edge subarrays scale the dose by the charge of the directly
    // adjacent aggressor cell; indexed by that cell's bit (O6).
    const double edge[2] = {
        in_edge ? dp.edgeFactorAggrDischarged : 1.0,
        in_edge ? dp.edgeFactorAggrCharged : 1.0};

    uint32_t mat_pos = 0;  // bl % matWidth.
    for (size_t wi = 0; wi * 64 < n; ++wi) {
        // Per-word masks, offsets in the order -1, +1, -2, +2.  opp:
        // the victim neighbour holds the opposite value.  same: the
        // aggressor cell (same0) or the aggressor and victim cells at
        // the offset (same) hold the victim's value.
        const Window vic = windowAt(&before, wi);
        const uint64_t opp[4] = {vic.m1 ^ vic.c, vic.p1 ^ vic.c,
                                 vic.m2 ^ vic.c, vic.p2 ^ vic.c};
        uint64_t aggr_c[2] = {0, 0};
        uint64_t same0[2] = {0, 0};
        uint64_t same[2][4] = {};
        for (int dir = 0; dir < 2; ++dir) {
            if (!pending[dir])
                continue;
            const Window ag = windowAt(aggr[dir], wi);
            aggr_c[dir] = ag.c;
            same0[dir] = ~(ag.c ^ vic.c);
            same[dir][0] = ~(ag.m1 ^ vic.c) & ~opp[0];
            same[dir][1] = ~(ag.p1 ^ vic.c) & ~opp[1];
            same[dir][2] = ~(ag.m2 ^ vic.c) & ~opp[2];
            same[dir][3] = ~(ag.p2 ^ vic.c) & ~opp[3];
        }

        const size_t bits = std::min<size_t>(64, n - wi * 64);
        for (size_t b = 0; b < bits;
             ++b, mat_pos = mat_pos + 1 == mw ? 0 : mat_pos + 1) {
            const BitlineIdx bl = BitlineIdx(wi * 64 + b);
            auto bit = [b](uint64_t m) { return ((m >> b) & 1) != 0; };
            const int v = bit(vic.c) ? 1 : 0;
            const bool charged = v == 1;

            // Peripheral circuits (local row decoders, sub-WL drivers)
            // isolate MATs from each other, so horizontal influence
            // never crosses a MAT boundary (SS IV-A) or the row end.
            const bool in[4] = {mat_pos >= 1,
                                mat_pos + 1 < mw && bl + 1 < n,
                                mat_pos >= 2,
                                mat_pos + 2 < mw && bl + 2 < n};

            // Horizontally adjacent victim cells holding the opposite
            // value strengthen the disturbance, distance two more than
            // distance one (O11).  Per-side sqrt so both sides give
            // the full paper factor.  Every factor is k or exactly
            // 1.0, multiplied in a fixed order, so the product is the
            // same double as multiplying the applicable factors alone.
            double f_vic = 1.0;
            f_vic *= in[0] && bit(opp[0]) ? vicSide_[0][v] : 1.0;
            f_vic *= in[1] && bit(opp[1]) ? vicSide_[0][v] : 1.0;
            f_vic *= in[2] && bit(opp[2]) ? vicSide_[1][v] : 1.0;
            f_vic *= in[3] && bit(opp[3]) ? vicSide_[1][v] : 1.0;

            double dose_h = 0.0;
            double dose_p = 0.0;
            for (int dir = 0; dir < 2; ++dir) {
                if (!pending[dir])
                    continue;
                const GateType gate = gateType(row, bl, dir == 1);

                // RowHammer: a charged victim is susceptible through
                // its neighboring gate, a discharged one through its
                // passing gate; the off gate keeps a small leak
                // (O8/O9/O10).
                const GateType h_gate = charged ? GateType::Neighboring
                                                : GateType::Passing;
                const double h_gate_f =
                    gate == h_gate ? 1.0 : dp.offGateLeak;

                // RowPress: only charged victims flip, through the
                // opposite gate relation to RowHammer (O7, footnote 7).
                double p_gate_f = 0.0;
                if (charged) {
                    p_gate_f =
                        gate == GateType::Passing ? 1.0 : dp.offGateLeak;
                }

                // Aggressor cells matching the victim value weaken the
                // disturbance, strongest for the directly adjacent
                // cell (O12).  For the offset cells the suppression
                // needs the aggressor and victim cells at that offset
                // to *jointly* hold the victim's charge state — a
                // local charge environment that absorbs the migrating
                // electrons.  This reproduces Figure 14b (solid
                // victim: the joint condition reduces to the aggressor
                // cell's value), keeps O13's solid-opposite aggressor
                // unsuppressed, and lets the vertically-complementary
                // 0x33/0xCC pattern reach the worst-case BER of
                // Figure 16 instead of being suppressed.
                const uint64_t *sm = same[dir];
                double pat = f_vic;
                pat *= bit(same0[dir]) ? dp.aggr0Same[v] : 1.0;
                pat *= in[0] && bit(sm[0]) ? aggrSide_[0][v] : 1.0;
                pat *= in[1] && bit(sm[1]) ? aggrSide_[0][v] : 1.0;
                pat *= in[2] && bit(sm[2]) ? aggrSide_[1][v] : 1.0;
                pat *= in[3] && bit(sm[3]) ? aggrSide_[1][v] : 1.0;
                pat *= edge[bit(aggr_c[dir]) ? 1 : 0];
                pat *= tempDoseScale_;

                dose_h += base_h[dir] * h_gate_f * pat;
                dose_p += base_p[dir] * p_gate_f * pat;
            }
            // A threshold is never below thresholdMin, so a smaller
            // dose cannot flip the cell and its threshold is not
            // hashed; nor is RowPress's once RowHammer flipped it.
            bool flip = dose_h >= dp.thresholdMin &&
                        dose_h >= threshold(row, bl, AibMechanism::RowHammer);
            if (!flip) {
                flip = dose_p >= dp.thresholdMin &&
                       dose_p >= threshold(row, bl, AibMechanism::RowPress);
            }
            if (flip) {
                rs.charge.flip(bl);
                ++stats_.disturbFlips;
            }
        }
    }
    rs.pendHammer[0] = rs.pendHammer[1] = 0.0;
    rs.pendPressNs[0] = rs.pendPressNs[1] = 0.0;
}

void
Bank::commitRetention(RowAddr row, RowState &rs, NanoTime now)
{
    const double min_ns = cfg_.retention.minEvalElapsedMs * 1.0e6;
    const double elapsed_ns = double(now - rs.lastRestoreNs);
    if (elapsed_ns < min_ns)
        return;
    // The scan is monotone in elapsed time: re-running it within the
    // evaluation window cannot find new decays.
    if (double(now - rs.lastRetentionScanNs) < min_ns)
        return;
    rs.lastRetentionScanNs = now;
    for (size_t wi = 0; wi * 64 < rs.charge.size(); ++wi) {
        // Leakage only discharges: visit the charged cells alone.
        for (uint64_t w = rs.charge.word(wi); w != 0; w &= w - 1) {
            const BitlineIdx bl = BitlineIdx(wi * 64 + std::countr_zero(w));
            if (retentionNs(row, bl) < elapsed_ns) {
                rs.charge.set(bl, false);
                ++stats_.retentionFlips;
            }
        }
    }
}

void
Bank::restoreRow(RowAddr row, NanoTime now)
{
    RowState &rs = rowState(row, now);
    commitRetention(row, rs, now);
    commitDisturb(row, rs);
    rs.lastRestoreNs = now;
}

void
Bank::commitRow(RowAddr row, NanoTime now)
{
    auto it = rows_.find(row);
    if (it == rows_.end())
        return;  // Untouched rows have nothing pending.
    commitRetention(row, it->second, now);
    commitDisturb(row, it->second);
}

void
Bank::registerAggressorDwell(RowAddr aggressor, double act_count,
                             double open_ns, NanoTime now)
{
    for (int dir = 0; dir < 2; ++dir) {
        const auto victim = map_.neighbor(aggressor, dir == 1);
        if (!victim)
            continue;
        // For the victim below the aggressor, the aggressor is its
        // upper neighbour (pending index 1) and vice versa.
        const int pend_idx = (dir == 1) ? 0 : 1;
        RowState &vs = rowState(*victim, now);
        vs.pendHammer[pend_idx] += act_count;
        // Only dwell time beyond the onset stresses the victim the
        // RowPress way; ordinary RowHammer dwells contribute none.
        const double press_ns =
            std::max(0.0, open_ns - cfg_.disturb.pressOnsetNs);
        vs.pendPressNs[pend_idx] += act_count * press_ns;
    }
}

void
Bank::markRestored(RowAddr row, NanoTime now)
{
    rowState(row, now).lastRestoreNs = now;
}

bool
Bank::applyRowCopy(RowAddr src, RowAddr dst, NanoTime now)
{
    const CopyRelation rel = map_.copyRelation(src, dst);
    if (rel == CopyRelation::None || src == dst)
        return false;

    // Barriers: the source must be evaluated before we read it, and
    // the destination plus its AIB neighbours before its data change.
    commitRow(src, now);
    commitRow(dst, now);
    for (int dir = 0; dir < 2; ++dir) {
        if (auto nb = map_.neighbor(dst, dir == 1))
            commitRow(*nb, now);
    }

    RowState &ss = rowState(src, now);
    // Copy the source charge out first: dst materialization may
    // rehash the map and invalidate references.
    const BitVec src_charge = ss.charge;
    RowState &ds = rowState(dst, now);
    const size_t n = src_charge.size();

    switch (rel) {
      case CopyRelation::SameSubarray:
        // Both stripes hold the source row: full, non-inverted copy.
        ds.charge = src_charge;
        break;
      case CopyRelation::DstAbove:
        // Shared stripe holds the source's odd bitlines; the
        // destination's even bitlines sit on the complementary sense
        // node, so they receive inverted charge.
        for (size_t m = 0; 2 * m + 1 < n; ++m)
            ds.charge.set(2 * m, !src_charge.get(2 * m + 1));
        break;
      case CopyRelation::DstBelow:
        for (size_t m = 0; 2 * m + 1 < n; ++m)
            ds.charge.set(2 * m + 1, !src_charge.get(2 * m));
        break;
      case CopyRelation::EdgePair:
        // The section's edge stripe serves the bottom-edge subarray's
        // even bitlines and the top-edge subarray's odd bitlines.
        if (map_.subarrayOf(dst).topEdge) {
            for (size_t m = 0; 2 * m + 1 < n; ++m)
                ds.charge.set(2 * m + 1, !src_charge.get(2 * m));
        } else {
            for (size_t m = 0; 2 * m + 1 < n; ++m)
                ds.charge.set(2 * m, !src_charge.get(2 * m + 1));
        }
        break;
      case CopyRelation::None:
        break;
    }
    ++stats_.rowCopyEvents;
    return true;
}

BitVec &
Bank::chargeRef(RowAddr row, NanoTime now)
{
    return rowState(row, now).charge;
}

bool
Bank::chargeAt(RowAddr row, BitlineIdx bl, NanoTime now)
{
    panicIf(bl >= cfg_.rowBits, "chargeAt: bitline out of range");
    return rowState(row, now).charge.get(bl);
}

void
Bank::writeCharge(RowAddr row, BitlineIdx first_bl,
                  const std::vector<bool> &bits, NanoTime now)
{
    panicIf(first_bl + bits.size() > cfg_.rowBits,
            "writeCharge: out of range");
    RowState &rs = rowState(row, now);
    for (size_t i = 0; i < bits.size(); ++i)
        rs.charge.set(first_bl + i, bits[i]);
}

void
Bank::setChargeCell(RowAddr row, BitlineIdx bl, bool charge, NanoTime now)
{
    panicIf(bl >= cfg_.rowBits, "setChargeCell: out of range");
    rowState(row, now).charge.set(bl, charge);
}

bool
Bank::dataToCharge(RowAddr row, bool data) const
{
    return map_.polarityOf(row) == CellPolarity::True ? data : !data;
}

bool
Bank::chargeToData(RowAddr row, bool charge) const
{
    return map_.polarityOf(row) == CellPolarity::True ? charge : !charge;
}

bool
Bank::dataAt(RowAddr row, BitlineIdx bl, NanoTime now)
{
    return chargeToData(row, chargeAt(row, bl, now));
}

void
Bank::refreshAll(NanoTime now)
{
    // Commit in ascending row order: commitDisturb reads neighbour
    // charge, so hash-order iteration would let one row's flips leak
    // into an adjacent row's dose pattern in an order that differs
    // across standard libraries.
    std::vector<RowAddr> order;
    order.reserve(rows_.size());
    for (const auto &kv : rows_) // determinism-ok: keys sorted below
        order.push_back(kv.first);
    std::sort(order.begin(), order.end());
    for (const RowAddr row : order) {
        RowState &rs = rows_.find(row)->second;
        commitRetention(row, rs, now);
        commitDisturb(row, rs);
        rs.lastRestoreNs = now;
    }
}

} // namespace dram
} // namespace dramscope
