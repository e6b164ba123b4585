/**
 * @file
 * Outside-in device timing for the traced benchmark run: a
 * dram::Device decorator that forwards every call to the wrapped
 * device and records, per operation, the call count, busy time and a
 * latency histogram, plus the same per enclosing trace span.
 *
 * The decorator lives in the benchmark, not in the library: the
 * library is driven only through its public entry points, and the
 * untraced run never pays for it.
 */

#ifndef PERFBENCH_TIMING_DEVICE_H
#define PERFBENCH_TIMING_DEVICE_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "dram/device.h"

namespace perfbench {

/** Monotonic nanoseconds since an arbitrary epoch. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Timed device operations (the config/violation accessors are not
 *  timed: they are plain getters). */
enum class Op : uint8_t
{
    Act,
    Pre,
    Read,
    Write,
    Refresh,
    ActMany,
    ActManyAnalytic,
    RefreshNeighbors,
    Count,
};

constexpr size_t kOps = size_t(Op::Count);

/** Metric-name stem of @p op ("act", "actmany", ...). */
const char *opName(Op op);

/**
 * Log-linear latency histogram over nanoseconds: 8 buckets per
 * octave, so a quantile is reported to within 1/8 of an octave
 * (about 9%).  Fixed size, mergeable, one increment per sample.
 */
class LatencyHistogram
{
  public:
    void add(uint64_t ns);
    void merge(const LatencyHistogram &other);

    /** Lower edge of the bucket holding quantile @p q, in ns; 0 when
     *  empty. */
    double quantileNs(double q) const;

  private:
    static constexpr size_t kSub = 8;
    std::array<uint64_t, 64 * kSub> buckets_{};
    uint64_t samples_ = 0;
};

/** Totals of one operation. */
struct OpStats
{
    uint64_t calls = 0;
    uint64_t ns = 0;
    /** ACTs issued by actMany trains (one per ACT-PRE pair). */
    uint64_t acts = 0;
    LatencyHistogram latency;

    void merge(const OpStats &other);
};

/** Calls and busy time of one operation under one span. */
struct SpanOp
{
    uint64_t calls = 0;
    uint64_t ns = 0;
};

using SpanOps = std::array<SpanOp, kOps>;

/**
 * Everything one decorated device recorded.  Each device writes only
 * its own DeviceStats (sweep replicas run on their own worker
 * thread), and the benchmark merges them after the work is done.
 */
struct DeviceStats
{
    /** True for a sweep replica: its time runs in parallel with the
     *  caller thread, so it is not subtracted from caller spans. */
    bool replica = false;

    std::array<OpStats, kOps> ops;

    /**
     * Host time between consecutive calls on this device, counting
     * only gaps under kBusyGapNs (longer gaps are idle waits for the
     * next shard or sweep).  On a replica this is the library's host
     * work (program build and interpretation) around device calls.
     */
    uint64_t gapNs = 0;
    static constexpr int64_t kBusyGapNs = 1'000'000;

    /** Per-span totals, indexed by span id. */
    std::vector<SpanOps> bySpan;

    uint64_t busyNs() const;
    uint64_t violations = 0;  //!< Filled in when the device retires.
};

/**
 * The timing decorator.  Owns the wrapped device; records into a
 * DeviceStats the caller keeps alive for the decorator's lifetime,
 * attributing each call to the span id published in @p span.
 */
class TimingDevice final : public dramscope::dram::Device
{
  public:
    TimingDevice(std::unique_ptr<dramscope::dram::Device> inner,
                 DeviceStats &stats, const std::atomic<uint32_t> &span);
    ~TimingDevice() override;

    TimingDevice(const TimingDevice &) = delete;
    TimingDevice &operator=(const TimingDevice &) = delete;

    const dramscope::dram::DeviceConfig &config() const override;
    void act(dramscope::dram::BankId b, dramscope::dram::RowAddr row,
             dramscope::dram::NanoTime now) override;
    void pre(dramscope::dram::BankId b,
             dramscope::dram::NanoTime now) override;
    uint64_t read(dramscope::dram::BankId b, dramscope::dram::ColAddr col,
                  dramscope::dram::NanoTime now) override;
    void write(dramscope::dram::BankId b, dramscope::dram::ColAddr col,
               uint64_t data, dramscope::dram::NanoTime now) override;
    void refresh(dramscope::dram::NanoTime now) override;
    void actMany(const dramscope::dram::ActTrain &train) override;
    void actManyAnalytic(const dramscope::dram::ActTrain &train) override;
    uint64_t violationCount() const override;
    std::vector<dramscope::dram::TimingViolation>
    violationLog() const override;
    uint32_t refreshAggressorNeighbors(dramscope::dram::BankId b,
                                       dramscope::dram::RowAddr row,
                                       dramscope::dram::NanoTime now) override;

  private:
    /** Start of a timed call: books the host gap since the last one. */
    int64_t begin();

    /** End of a timed call started at @p t0. */
    void finish(Op op, int64_t t0, uint64_t acts = 0);

    std::unique_ptr<dramscope::dram::Device> inner_;
    DeviceStats &stats_;
    const std::atomic<uint32_t> &span_;
    int64_t last_end_ns_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_DEVICE_H
