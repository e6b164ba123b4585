/**
 * @file
 * SS VI-A/VI-B reproduction: coupled-row activation vs existing AIB
 * protections — split-activation counter evasion, the row-swapping
 * bypass, the victim-refresh nuance, and DRFM as the fix.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bender/host.h"
#include "core/protect/mitigation.h"
#include "dram/chip.h"
#include "util/table.h"

using namespace dramscope;

namespace {

constexpr uint64_t kThreshold = 6000;

/**
 * One attack against one defense: per coupled pair, @p aggrActs on
 * row A and then @p partnerActs on its partner B = A ^ distance, both
 * through the defense.
 */
struct Scenario
{
    std::string name;
    std::unique_ptr<core::Mitigation> defense;
    uint64_t aggrActs = 0;
    uint64_t partnerActs = 0;
    uint64_t mitigations = 0;
    size_t flips = 0;
};

/** Victim rows around both halves of a coupled pair. */
std::vector<dram::RowAddr>
victimRows(dram::RowAddr aggr, uint32_t distance)
{
    const dram::RowAddr partner = aggr ^ distance;
    return {aggr - 1, aggr + 1, partner - 1, partner + 1};
}

size_t
countFlips(bender::Host &host, dram::RowAddr aggr, uint32_t distance)
{
    size_t flips = 0;
    for (const auto v : victimRows(aggr, distance)) {
        const BitVec row = host.readRowBits(0, v);
        flips += row.size() - row.popcount();
    }
    return flips;
}

void
armVictims(bender::Host &host, dram::RowAddr aggr, uint32_t distance)
{
    for (const auto v : victimRows(aggr, distance))
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    host.writeRowPattern(0, aggr ^ distance, 0);
}

/**
 * Mitigations the defense issued: tracker firings for Graphene (a
 * coupled-aware firing covers both rows of the pair once), commands
 * issued for every other kind.
 */
uint64_t
mitigationsIssued(const core::Mitigation &mit)
{
    if (mit.kind() == core::MitigationKind::Graphene)
        return static_cast<const core::GrapheneMitigation &>(mit)
            .tracker(0)
            .mitigations();
    return mit.fired();
}

} // namespace

int
main()
{
    benchutil::header(
        "SS VI-A/VI-B: coupled-row activation vs AIB protections",
        "split activations bypass coupled-unaware trackers; MC-side "
        "row swapping is neutralized (only row A is relocated); "
        "victim-refresh stays incidentally safe; coupled-aware "
        "tracking and DRFM stop the attack");

    // Mfr. B x4 2019: a real coupled preset without internal remap.
    const dram::DeviceConfig cfg = dram::makePreset("B_x4_2019");
    const uint32_t distance = *cfg.coupledRowDistance;
    const uint32_t pairs = benchutil::scaled(8, 4);

    core::TrackerOptions unaware;
    unaware.threshold = kThreshold;
    core::TrackerOptions aware = unaware;
    aware.coupledAware = true;
    aware.coupledDistance = distance;

    core::RowSwapOptions swap;
    swap.threshold = kThreshold;
    swap.spareBase = 40000;
    core::RowSwapOptions awareSwap = swap;
    awareSwap.coupledAware = true;
    awareSwap.coupledDistance = distance;

    // The split attack keeps each address just under the threshold;
    // the swap attack trips the swap on A, then hammers B.
    const uint64_t split = kThreshold - 100;
    std::vector<Scenario> results;
    results.push_back({"split attack vs unaware tracker",
                       std::make_unique<core::GrapheneMitigation>(
                           cfg, unaware),
                       split, split});
    results.push_back({"split attack vs coupled-aware tracker",
                       std::make_unique<core::GrapheneMitigation>(
                           cfg, aware),
                       split, split});
    results.push_back({"swap-then-hammer-partner vs row swap",
                       std::make_unique<core::RowSwapMitigation>(cfg,
                                                                 swap),
                       kThreshold, kThreshold});
    results.push_back({"same attack vs coupled-aware row swap",
                       std::make_unique<core::RowSwapMitigation>(
                           cfg, awareSwap),
                       kThreshold, kThreshold});
    results.push_back({"straight attack vs victim refresh (unaware)",
                       std::make_unique<core::GrapheneMitigation>(
                           cfg, unaware),
                       10 * kThreshold, 0});
    results.push_back({"split attack vs DRFM (in-DRAM adjacency)",
                       std::make_unique<core::DrfmMitigation>(
                           cfg, kThreshold / 2),
                       split, split});
    results.push_back({"split attack vs RFM + in-DRAM tracker",
                       std::make_unique<core::RfmMitigation>(
                           cfg, kThreshold / 2, 16),
                       split, split});

    for (auto &s : results) {
        dram::Chip chip(cfg);
        bender::Host host(chip);
        for (uint32_t k = 0; k < pairs; ++k) {
            const dram::RowAddr aggr = 1000 + 8 * k;
            armVictims(host, aggr, distance);
            core::hammerThroughMitigation(host, *s.defense, 0, aggr,
                                          s.aggrActs);
            core::hammerThroughMitigation(host, *s.defense, 0,
                                          aggr ^ distance, s.partnerActs);
            s.flips += countFlips(host, aggr, distance);
        }
        s.mitigations = mitigationsIssued(*s.defense);
    }

    Table t({"Scenario", "Mitigations issued", "Victim bitflips",
             "Attack outcome"});
    for (const auto &s : results) {
        t.addRow({s.name, Table::num(s.mitigations),
                  Table::num(uint64_t(s.flips)),
                  s.flips > 0 ? "SUCCEEDS" : "defeated"});
    }
    t.print();
    benchutil::maybeWriteCsv(t, "protect_coupled");
    std::printf("\nCoupled-row activation (O3) defeats MC-side trackers "
                "and row swapping unless they know the pair relation; "
                "victim-refresh is incidentally safe because its "
                "refresh ACT is coupled too; DRFM mitigates in-DRAM "
                "with true adjacency (SS VI-B).\n");
    return 0;
}
