/**
 * @file
 * The benchmark's three workloads. Each one builds its inputs from
 * the seed, drives the library only through its public functions,
 * checks every simulation it runs, and returns its metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Scales the timed work; about this many seconds of it on the
     *  calibration host (see README.md). */
    double seconds = 10.0;
    /** Per-layer run: spans plus TraceConfig::counters. */
    bool trace = false;
    /** Where the traced run writes its spans ("" = nowhere). */
    std::string spansOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunReport
{
    /** End-to-end metrics, or per-layer ones on a traced run. */
    std::vector<Metric> metrics;
    /** Human-readable lines: checks, steadiness, sample counts. */
    std::vector<std::string> notes;
    /** Simulations run and checked / those that failed a check. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Fingerprint of every simulated trajectory of the run. */
    std::string digest;
};

/** Run one workload; throws std::invalid_argument on bad options. */
RunReport runWorkload(const RunOptions &opts);

/** The engine and shard count a default SimConfig runs, as the
 *  library resolves them (provenance header). */
std::string defaultEngineDescription();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
