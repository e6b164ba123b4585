/**
 * @file
 * Activation tracker implementation.
 */

#include "core/protect/tracker.h"

#include <algorithm>

#include "util/log.h"

namespace dramscope {
namespace core {

ActivationTracker::ActivationTracker(TrackerOptions opts)
    : opts_(opts)
{
    fatalIf(opts_.tableSize == 0 || opts_.threshold == 0,
            "ActivationTracker: bad options");
    fatalIf(opts_.coupledAware && opts_.coupledDistance == 0,
            "ActivationTracker: coupledAware needs a distance");
}

dram::RowAddr
ActivationTracker::canonical(dram::RowAddr row) const
{
    if (!opts_.coupledAware)
        return row;
    // Coupled pairs are (n, n + distance); fold onto the lower row so
    // split activations land on one counter.
    return std::min<dram::RowAddr>(row, row ^ opts_.coupledDistance);
}

std::vector<dram::RowAddr>
ActivationTracker::onActivate(dram::RowAddr row, uint64_t count)
{
    const dram::RowAddr key = canonical(row);
    auto it = counters_.find(key);
    if (it == counters_.end()) {
        if (counters_.size() < opts_.tableSize) {
            it = counters_.emplace(key, spill_).first;
        } else {
            // Misra-Gries: raise the floor instead of tracking.
            spill_ += count;
            return {};
        }
    }
    it->second += count;

    std::vector<dram::RowAddr> to_mitigate;
    if (it->second >= opts_.threshold) {
        it->second = spill_;
        ++mitigations_;
        to_mitigate.push_back(key);
        if (opts_.coupledAware)
            to_mitigate.push_back(key ^ opts_.coupledDistance);
    }
    return to_mitigate;
}

void
ActivationTracker::reset()
{
    counters_.clear();
    spill_ = 0;
}

} // namespace core
} // namespace dramscope
