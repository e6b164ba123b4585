/**
 * @file
 * Attack-and-defense walkthrough (SS VI): mount the coupled-row split
 * attack and the adversarial data-pattern attack against a simulated
 * module, then enable the paper's countermeasures and watch them
 * fail or hold.
 */

#include <cstdio>

#include "bender/host.h"
#include "core/patterns.h"
#include "core/physmap.h"
#include "core/protect/mitigation.h"
#include "core/protect/scramble.h"
#include "dram/chip.h"
#include "util/table.h"

using namespace dramscope;

namespace {

size_t
flipsAround(bender::Host &host, dram::RowAddr aggr, uint32_t distance)
{
    size_t flips = 0;
    for (const dram::RowAddr v : {aggr - 1, aggr + 1,
                                  (aggr ^ distance) - 1,
                                  (aggr ^ distance) + 1}) {
        const BitVec row = host.readRowBits(0, v);
        flips += row.size() - row.popcount();
    }
    return flips;
}

void
armCoupledVictims(bender::Host &host, dram::RowAddr aggr,
                  uint32_t distance)
{
    for (const dram::RowAddr v : {aggr - 1, aggr + 1,
                                  (aggr ^ distance) - 1,
                                  (aggr ^ distance) + 1})
        host.writeRowPattern(0, v, ~0ULL);
    host.writeRowPattern(0, aggr, 0);
    host.writeRowPattern(0, aggr ^ distance, 0);
}

} // namespace

int
main()
{
    // Mfr. B x4 2019: coupled rows at Nrow/2, no internal remap.
    const dram::DeviceConfig cfg = dram::makePreset("B_x4_2019");
    const uint32_t distance = *cfg.coupledRowDistance;

    std::printf("DRAMScope attack & defense demo on %s\n",
                cfg.name.c_str());

    // ------------------------------------------------------------
    printBanner("Attack 1: coupled-row split hammering (SS VI-A)");
    {
        core::TrackerOptions unaware;
        unaware.threshold = 6000;
        core::TrackerOptions aware = unaware;
        aware.coupledAware = true;
        aware.coupledDistance = distance;
        core::GrapheneMitigation unawareTracker(cfg, unaware);
        core::GrapheneMitigation awareTracker(cfg, aware);
        core::DrfmMitigation drfm(cfg, 3000);

        // Keep each address just under the tracker threshold; the
        // shared wordline still sees ~12K activations.
        const dram::RowAddr aggr = 2000;
        const auto attack = [&](core::Mitigation &defense) {
            dram::Chip chip(cfg);
            bender::Host host(chip);
            armCoupledVictims(host, aggr, distance);
            core::hammerThroughMitigation(host, defense, 0, aggr, 5900);
            core::hammerThroughMitigation(host, defense, 0,
                                          aggr ^ distance, 5900);
            return flipsAround(host, aggr, distance);
        };
        const auto report = [](const char *label, uint64_t count,
                               const char *what, size_t flips) {
            std::printf("%s %lu %s, %zu victim bitflips -> attack %s\n",
                        label, (unsigned long)count, what, flips,
                        flips ? "SUCCEEDS" : "defeated");
        };

        size_t flips = attack(unawareTracker);
        report("coupled-unaware tracker:",
               unawareTracker.tracker(0).mitigations(), "mitigations",
               flips);
        flips = attack(awareTracker);
        report("coupled-aware tracker:  ",
               awareTracker.tracker(0).mitigations(), "mitigations",
               flips);
        flips = attack(drfm);
        report("DRFM every 3K ACTs:     ", drfm.fired(), "DRFM commands",
               flips);
    }

    // ------------------------------------------------------------
    printBanner("Attack 2: adversarial data pattern (O13/O14)");
    {
        dram::Chip chip(cfg);
        bender::Host host(chip);
        const auto map = core::PhysMap::fromSwizzle(
            chip.swizzle(), cfg.columnsPerRow(), cfg.rdDataBits);
        core::Scrambler scrambler(host, 0xC0FFEEULL);

        auto run = [&](bool adversarial, bool scrambled) {
            const BitVec victim =
                adversarial
                    ? core::AdversarialPatterns::worstBerVictimRow(map)
                    : BitVec(cfg.rowBits, true);
            const BitVec aggr =
                adversarial
                    ? core::AdversarialPatterns::worstBerAggressorRow(
                          map)
                    : BitVec(cfg.rowBits, false);
            size_t flips = 0;
            for (dram::RowAddr base = 3000; base < 3000 + 64 * 4;
                 base += 4) {
                if (scrambled) {
                    scrambler.writeRowBits(0, base, victim);
                    scrambler.writeRowBits(0, base + 1, aggr);
                } else {
                    host.writeRowBits(0, base, victim);
                    host.writeRowBits(0, base + 1, aggr);
                }
                host.hammer(0, base + 1, 300000);
                const BitVec read = scrambled
                                        ? scrambler.readRowBits(0, base)
                                        : host.readRowBits(0, base);
                flips += read.hammingDistance(victim);
            }
            return flips;
        };

        const size_t solid = run(false, false);
        const size_t worst = run(true, false);
        const size_t masked = run(true, true);
        std::printf("solid baseline pattern:       %zu flips\n", solid);
        std::printf("adversarial 0x33/0xCC:        %zu flips (%.2fx)\n",
                    worst, double(worst) / double(solid));
        std::printf("adversarial, scrambling MC:   %zu flips (%.2fx) "
                    "-> advantage removed\n",
                    masked, double(masked) / double(solid));
    }

    // ------------------------------------------------------------
    printBanner("Attack 3: targeted single-cell Hcnt reduction (O13)");
    {
        dram::Chip chip(cfg);
        bender::Host host(chip);
        const auto map = core::PhysMap::fromSwizzle(
            chip.swizzle(), cfg.columnsPerRow(), cfg.rdDataBits);
        const uint32_t target_phys = 2048;

        auto hcnt = [&](const BitVec &victim, const BitVec &aggr) {
            // Double-sided so the target cell sees its susceptible
            // gate whichever parity it has.
            const dram::RowAddr v = 5000;
            uint64_t lo = 1, hi = 1u << 21;
            auto probe = [&](uint64_t count) {
                host.writeRowBits(0, v, victim);
                host.writeRowBits(0, v - 1, aggr);
                host.writeRowBits(0, v + 1, aggr);
                host.hammer(0, v - 1, count);
                host.hammer(0, v + 1, count);
                const BitVec read = host.readRowBits(0, v);
                const uint32_t host_bit = map.hostOf(target_phys);
                return read.get(host_bit) != victim.get(host_bit);
            };
            if (!probe(hi))
                return hi;
            while (lo + 1 < hi) {
                const uint64_t mid = lo + (hi - lo) / 2;
                (probe(mid) ? hi : lo) = mid;
            }
            return hi;
        };

        BitVec solid_victim(cfg.rowBits, false);
        BitVec solid_aggr(cfg.rowBits, true);
        const uint64_t base_hcnt = hcnt(solid_victim, solid_aggr);
        const uint64_t adv_hcnt = hcnt(
            core::AdversarialPatterns::targetedVictimRow(map, target_phys,
                                                         false),
            core::AdversarialPatterns::targetedAggressorRow(map, false));
        std::printf("target cell Hcnt, solid victim row:       %lu "
                    "ACTs\n",
                    (unsigned long)base_hcnt);
        std::printf("target cell Hcnt, adversarial neighbours: %lu "
                    "ACTs (%.2fx)\n",
                    (unsigned long)adv_hcnt,
                    double(adv_hcnt) / double(base_hcnt));
    }
    return 0;
}
