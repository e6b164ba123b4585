/**
 * @file
 * The benchmark workload interface: set up one pass (timed as
 * set-up), run it (timed), check its outputs.
 */

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "trace.h"
#include "util/metrics.h"

namespace perfbench {

/** Pass/fail accounting: every check is one op. */
struct Checks
{
    uint64_t ops = 0;
    uint64_t failed = 0;

    /** Counts one check; a failure is reported on stderr. */
    bool expect(bool ok, const std::string &what)
    {
        ++ops;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
        return ok;
    }
};

/** Workload size: Full is the benchmark, Tiny the self-test. */
enum class Size : uint8_t
{
    Full,
    Tiny,
};

/** What one pass produced besides its checks. */
struct PassOutput
{
    /** Simulated DRAM commands (obs::MetricsRegistry cmd.*). */
    uint64_t simCmds = 0;
    uint64_t simActs = 0;
    /** FNV-1a digest of every checked output of the pass. */
    uint64_t digest = 0;
    /** Workload-specific quantities, by metric name. */
    std::map<std::string, double> extra;
};

/** FNV-1a, 64-bit. */
class Digest
{
  public:
    void bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    template <typename T> void value(const T &v) { bytes(&v, sizeof(v)); }
    void text(const std::string &s) { bytes(s.data(), s.size()); }
    uint64_t get() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Adds the commands counted by a host metrics registry to @p out. */
inline void
countCommands(const dramscope::obs::MetricsRegistry &m, PassOutput &out)
{
    const auto snap = m.snapshot();
    for (const char *name :
         {"cmd.act", "cmd.pre", "cmd.rd", "cmd.wr", "cmd.ref"})
        out.simCmds += snap.counterOr0(name);
    out.simActs += snap.counterOr0("cmd.act");
}

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Builds one pass's inputs: configs, devices, hosts, request
     * streams.  With a tracer, every device is wrapped in a
     * TimingDevice registered with it.
     */
    virtual void setup(Tracer *tracer) = 0;

    /** Runs the prepared pass, checking its outputs. */
    virtual PassOutput run(Tracer *tracer, Checks &checks) = 0;

    /** Drops the pass state (devices report violations here). */
    virtual void teardown() = 0;
};

std::unique_ptr<Workload> makeReStructure(Size size, uint64_t seed);
std::unique_ptr<Workload> makeAibSweep(Size size, uint64_t seed);
std::unique_ptr<Workload> makeMcTraffic(Size size, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
