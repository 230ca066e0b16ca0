/**
 * @file
 * The benchmark's own arithmetic: percentiles under the tail rule,
 * span self time, the failure ratio, the trajectory digest and the
 * rate-drift ratio. Pure functions over plain data, so
 * tests/test_measure.cpp can pin each rule without running a
 * simulation.
 */

#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * The highest of the percentiles 50, 90, 99, 99.9, 99.99 and 99.999
 * that leaves at least @p min_beyond of @p n samples above it, or 0
 * when not even the median does. A tail percentile is only reported
 * when enough samples lie beyond it to make it more than one outlier.
 */
double tailPercentile(std::size_t n, std::size_t min_beyond = 10);

/**
 * Nearest-rank percentile @p p (0..100] of @p samples; throws
 * std::invalid_argument on an empty sample.
 */
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/** failed / attempted; throws std::invalid_argument when attempted
 *  is 0 or failed exceeds it. */
double failRatio(std::uint64_t failed, std::uint64_t attempted);

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the log, or -1. */
    int parent = -1;
};

/**
 * In-memory span log. begin()/end() nest: a span opened while
 * another is open becomes its child. Spans are only written out when
 * the run ends, so recording costs two clock reads and a push.
 */
class SpanLog
{
  public:
    /** Open a span now under the innermost open span. */
    std::size_t begin(std::string name);
    /** Close the span opened by begin(); must be the innermost. */
    void end(std::size_t id);

    /** Record a finished span with explicit times (tests). */
    std::size_t add(Span span);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span, indexed like spans(): its duration
     *  minus the part of it covered by its direct children
     *  (overlapping children counted once). */
    std::vector<std::int64_t> selfNs() const;

    /** Sum of the self times of every span named @p name. */
    std::int64_t totalSelfNs(const std::string &name) const;

    /** Write the log as JSON lines (one span per line). */
    bool writeJsonLines(const std::string &path,
                        const std::string &run_id) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** Monotonic clock in nanoseconds. */
std::int64_t nowNs();

/** CPU time of the calling thread in nanoseconds. */
std::int64_t threadCpuNs();

/** FNV-1a over 64-bit words: a trajectory fingerprint that two runs
 *  of one commit and seed must reproduce bit for bit. */
class Digest
{
  public:
    void add(std::uint64_t word);
    /** Adds the bit pattern, so -0.0 and 0.0 differ. */
    void add(double value);
    std::string hex() const;

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/**
 * Rate of the last quarter of a timeline divided by the rate of its
 * first quarter. The timeline is a sequence of consecutive segments,
 * each with a duration and the work done in it; work is spread
 * evenly within a segment. 1 means a steady rate, below 1 a run that
 * slows as it goes.
 */
double rateDrift(const std::vector<double> &seconds,
                 const std::vector<double> &work);

/**
 * Median over a run's chunks of work / CPU seconds. Other tenants of
 * a shared host take the CPU away from a chunk (steal time) or slow a
 * few chunks down; CPU time leaves out the first and the median the
 * second.
 */
double medianRate(const std::vector<double> &work,
                  const std::vector<double> &cpu_seconds);

/**
 * Pins the calling thread to each CPU of its affinity mask in turn,
 * so that a single-threaded measurement samples every CPU instead of
 * staying on one that another tenant of the host slows down. The
 * destructor restores the mask; threads started while the thread is
 * pinned inherit the pin, so call release() before starting any.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pin to the next CPU of the mask (a no-op on one CPU). */
    void next();
    /** Restore the original mask. */
    void release();
    /** CPUs rotated over. */
    std::size_t cpus() const { return cpus_.size(); }

  private:
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    bool pinned_ = false;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP
