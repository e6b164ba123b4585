/**
 * @file
 * Benchmark-side tracing: spans recorded around the benchmark's own
 * calls into each library layer, kept in memory and written as JSONL
 * when the run ends.  Device operations are not spans: every
 * TimingDevice aggregates its calls per enclosing span instead.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "timing_device.h"

namespace perfbench {

/** The library layer a span's call enters. */
enum class Layer : uint8_t
{
    Bench,  //!< The timed pass itself (root span).
    Re,
    Sweep,
    Mc,
    Lint,
    Host,
};

const char *layerName(Layer layer);

struct Span
{
    std::string name;  //!< Metric stem, e.g. "re.subarray".
    std::string attr;  //!< Instance, e.g. the preset or grid cell.
    Layer layer = Layer::Bench;
    uint32_t parent = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;

    double seconds() const { return double(endNs - startNs) * 1e-9; }
};

/** Per-layer totals of one traced pass. */
struct TraceSummary
{
    std::map<Layer, double> selfS;  //!< Caller-thread self time.
    double deviceAllS = 0;          //!< Including sweep replicas.
    double replicaBusyS = 0;        //!< Replica device + host time.
    double replicaHostS = 0;        //!< Replica host time only.
    uint32_t replicas = 0;
    uint64_t violations = 0;
    std::array<OpStats, kOps> ops;
};

/**
 * The spans and device statistics of one traced pass.  Spans nest on
 * the caller thread; every wrapped device, sweep replicas too, reads
 * the current span id to attribute its calls.
 */
class Tracer
{
  public:
    /** Opens the root span of pass @p run. */
    explicit Tracer(uint32_t run);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    uint32_t run() const { return run_; }

    uint32_t begin(std::string name, Layer layer, std::string attr);
    void end(uint32_t id);

    /** Restarts the root span's clock (after the pass's set-up). */
    void restart() { spans_[0].startNs = nowNs(); }

    /** Closes the root span (the pass's timed phase). */
    void finish() { end(0); }

    /**
     * Wraps @p dev in a TimingDevice recording into a new
     * DeviceStats owned by this tracer.  Thread-safe: sweep replicas
     * are built on worker threads.
     */
    std::unique_ptr<dramscope::dram::Device>
    wrap(std::unique_ptr<dramscope::dram::Device> dev, bool replica);

    const std::vector<Span> &spans() const { return spans_; }

    /** Folds spans and device statistics into per-layer totals.
     *  Call after every wrapped device has been destroyed. */
    TraceSummary summarize() const;

    /** Writes one JSONL line per span. */
    void writeJsonl(std::FILE *out) const;

  private:
    uint32_t run_;
    std::vector<Span> spans_;  //!< Indexed by span id; 0 = the pass.
    std::vector<uint32_t> stack_;
    std::atomic<uint32_t> current_{0};

    std::mutex devices_mu_;
    std::vector<std::unique_ptr<DeviceStats>> devices_;  //!< Guarded.

    /**
     * Per span: its duration minus its child spans and the
     * caller-thread (non-replica) device time under it.
     */
    std::vector<double> selfSeconds() const;
};

/** RAII span; a no-op when the tracer is null (the untraced run). */
class SpanScope
{
  public:
    SpanScope(Tracer *tracer, std::string name, Layer layer,
              std::string attr = {})
        : tracer_(tracer)
    {
        if (tracer_)
            id_ = tracer_->begin(std::move(name), layer, std::move(attr));
    }
    ~SpanScope() { close(); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Ends the span early; returns its duration (0 untraced). */
    double close()
    {
        if (!tracer_)
            return 0.0;
        tracer_->end(id_);
        const double s = tracer_->spans()[id_].seconds();
        tracer_ = nullptr;
        return s;
    }

  private:
    Tracer *tracer_;
    uint32_t id_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
