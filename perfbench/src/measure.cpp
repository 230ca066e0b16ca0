#include "measure.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

/** Percentiles in parts per 100000, so the rank arithmetic is exact. */
constexpr std::uint64_t kPercentilesPpm[] = {99999, 99990, 99900,
                                             99000, 90000, 50000};

/** 1-based nearest rank of percentile @p q_ppm among @p n. */
std::uint64_t
nearestRank(std::uint64_t q_ppm, std::uint64_t n)
{
    return std::max<std::uint64_t>(1, (q_ppm * n + 99999) / 100000);
}

/** Length of the union of @p intervals clipped to [lo, hi). */
std::int64_t
coveredNs(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
          std::int64_t lo, std::int64_t hi)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = lo;
    for (auto [start, end] : intervals) {
        start = std::max(start, reach);
        end = std::min(end, hi);
        if (end > start) {
            covered += end - start;
            reach = end;
        }
    }
    return covered;
}

/** Work done in [from, to) of the timeline. */
double
workBetween(const std::vector<double> &seconds,
            const std::vector<double> &work, double from, double to)
{
    double total = 0.0;
    double t = 0.0;
    for (std::size_t i = 0; i < seconds.size(); ++i) {
        const double lo = std::max(from, t);
        const double hi = std::min(to, t + seconds[i]);
        if (hi > lo && seconds[i] > 0.0)
            total += work[i] * (hi - lo) / seconds[i];
        t += seconds[i];
    }
    return total;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

double
tailPercentile(std::size_t n, std::size_t min_beyond)
{
    for (const std::uint64_t q : kPercentilesPpm) {
        if (n - std::min<std::uint64_t>(n, nearestRank(q, n)) >=
            min_beyond)
            return static_cast<double>(q) / 1000.0;
    }
    return 0.0;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        throw std::invalid_argument("percentile of an empty sample");
    if (!(p > 0.0 && p <= 100.0))
        throw std::invalid_argument("percentile outside (0, 100]");
    const auto q = static_cast<std::uint64_t>(p * 1000.0 + 0.5);
    const std::uint64_t rank = nearestRank(q, samples.size());
    auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(samples.begin(), nth, samples.end());
    return *nth;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 50.0);
}

double
failRatio(std::uint64_t failed, std::uint64_t attempted)
{
    if (attempted == 0)
        throw std::invalid_argument("fail ratio with nothing attempted");
    if (failed > attempted)
        throw std::invalid_argument("more failures than attempts");
    return static_cast<double>(failed) / static_cast<double>(attempted);
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::size_t
SpanLog::begin(std::string name)
{
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    span.startNs = nowNs();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLog::end(std::size_t id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("span closed out of order: " +
                               spans_.at(id).name);
    spans_[id].endNs = nowNs();
    open_.pop_back();
}

std::size_t
SpanLog::add(Span span)
{
    if (span.endNs < span.startNs ||
        span.parent >= static_cast<int>(spans_.size()))
        throw std::invalid_argument("malformed span " + span.name);
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
}

std::vector<std::int64_t>
SpanLog::selfNs() const
{
    // One pass to group children by parent keeps this linear in the
    // log even with a child span every few simulated cycles.
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.startNs, s.endNs);
    }
    std::vector<std::int64_t> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self.push_back(s.endNs - s.startNs -
                       coveredNs(std::move(children[i]), s.startNs,
                                 s.endNs));
    }
    return self;
}

std::int64_t
SpanLog::totalSelfNs(const std::string &name) const
{
    const std::vector<std::int64_t> self = selfNs();
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name)
            total += self[i];
    }
    return total;
}

bool
SpanLog::writeJsonLines(const std::string &path,
                        const std::string &run_id) const
{
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"run\":\"" << jsonEscape(run_id) << "\",\"id\":" << i
            << ",\"parent\":" << s.parent << ",\"name\":\""
            << jsonEscape(s.name) << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << "}\n";
    }
    out.flush();
    return static_cast<bool>(out);
}

void
Digest::add(std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        state_ ^= (word >> (8 * i)) & 0xffU;
        state_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(state_));
    return buf;
}

double
rateDrift(const std::vector<double> &seconds,
          const std::vector<double> &work)
{
    if (seconds.empty() || seconds.size() != work.size())
        throw std::invalid_argument("rate drift needs matching segments");
    double total = 0.0;
    for (const double s : seconds)
        total += s;
    const double first = workBetween(seconds, work, 0.0, total / 4.0);
    const double last =
        workBetween(seconds, work, total * 3.0 / 4.0, total);
    if (!(total > 0.0) || !(first > 0.0))
        throw std::invalid_argument("rate drift of an idle timeline");
    return last / first;
}

double
medianRate(const std::vector<double> &work,
           const std::vector<double> &cpu_seconds)
{
    if (work.empty() || work.size() != cpu_seconds.size())
        throw std::invalid_argument(
            "medianRate: needs one CPU time per chunk");
    std::vector<double> rates;
    for (std::size_t i = 0; i < work.size(); ++i) {
        if (!(cpu_seconds[i] > 0.0))
            throw std::invalid_argument("medianRate: a chunk took no CPU");
        rates.push_back(work[i] / cpu_seconds[i]);
    }
    return median(std::move(rates));
}

CpuRotation::CpuRotation()
{
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof mask, &mask) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &mask))
            cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() { release(); }

void
CpuRotation::next()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(cpus_[next_], &mask);
    next_ = (next_ + 1) % cpus_.size();
    // A refused pin leaves the thread where the scheduler put it.
    pinned_ = sched_setaffinity(0, sizeof mask, &mask) == 0 || pinned_;
}

void
CpuRotation::release()
{
    if (!pinned_)
        return;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    for (const int cpu : cpus_)
        CPU_SET(cpu, &mask);
    sched_setaffinity(0, sizeof mask, &mask);
    pinned_ = false;
}

} // namespace perfbench
