/**
 * @file
 * Device interface out-of-line anchor (keeps one vtable per binary)
 * and the fast-forward mode registry helpers.
 */

#include "dram/device.h"

#include <cstdlib>
#include <mutex>

#include "util/log.h"

namespace dramscope {
namespace dram {

Device::~Device() = default;

void
Device::actManyAnalytic(const ActTrain &train)
{
    actMany(train);
}

const char *
toString(FastPathMode mode)
{
    switch (mode) {
#define X(Enumerator, keyword, summary)                                 \
      case FastPathMode::Enumerator:                                    \
        return keyword;
        DRAMSCOPE_FASTPATH_MODES(X)
#undef X
    }
    return "off";
}

std::optional<FastPathMode>
fastPathModeFromString(const std::string &s)
{
#define X(Enumerator, keyword, summary)                                 \
    if (s == keyword)                                                   \
        return FastPathMode::Enumerator;
    DRAMSCOPE_FASTPATH_MODES(X)
#undef X
    return std::nullopt;
}

std::string
fastPathModeKeywords()
{
    std::string out;
#define X(Enumerator, keyword, summary) out += "|" keyword;
    DRAMSCOPE_FASTPATH_MODES(X)
#undef X
    return out.substr(1);
}

FastPathMode
fastPathModeFromEnv()
{
    const char *env = std::getenv("DRAMSCOPE_FASTPATH");
    if (!env)
        return FastPathMode::Exact;
    if (const auto mode = fastPathModeFromString(env))
        return *mode;
    // Every sweep replica builds a Host: warn once, not per replica.
    static std::once_flag warned;
    std::call_once(warned, [env] {
        warn(std::string("DRAMSCOPE_FASTPATH=") + env +
             " is not a mode (" + fastPathModeKeywords() +
             "); using exact");
    });
    return FastPathMode::Exact;
}

} // namespace dram
} // namespace dramscope
