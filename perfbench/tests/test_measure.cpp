/**
 * @file
 * Tests of the benchmark's own arithmetic and of digest stability.
 * Build and run with
 *   cmake -S perfbench -B .bench_build && \
 *   cmake --build .bench_build --target perfbench_tests && \
 *   .bench_build/perfbench_tests
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <stdexcept>

#include "measure.hpp"
#include "workloads.hpp"

using namespace perfbench;

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond)
{
    // p99 of 1000 samples is rank 990, leaving exactly 10 above it.
    EXPECT_DOUBLE_EQ(tailPercentile(1000), 99.0);
    // One fewer sample leaves 9 beyond p99, so p90 is the tail.
    EXPECT_DOUBLE_EQ(tailPercentile(999), 90.0);
    EXPECT_DOUBLE_EQ(tailPercentile(10000), 99.9);
    EXPECT_DOUBLE_EQ(tailPercentile(1000000), 99.999);
    EXPECT_DOUBLE_EQ(tailPercentile(100), 90.0);
    EXPECT_DOUBLE_EQ(tailPercentile(20), 50.0);
    // Fewer than ten samples beyond even the median: no tail.
    EXPECT_DOUBLE_EQ(tailPercentile(19), 0.0);
    EXPECT_DOUBLE_EQ(tailPercentile(0), 0.0);
    EXPECT_DOUBLE_EQ(tailPercentile(100, 1), 99.0);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
    EXPECT_THROW(percentile({1.0}, 0.0), std::invalid_argument);
}

TEST(SpanLog, SelfTimeSubtractsTheUnionOfChildren)
{
    SpanLog log;
    const std::size_t parent = log.add({"network.step", 0, 100, -1});
    const int p = static_cast<int>(parent);
    log.add({"bench.sample", 10, 20, p});
    // Overlapping children are counted once: [30, 50) covered.
    log.add({"bench.sample", 30, 45, p});
    log.add({"bench.sample", 40, 50, p});
    // A child running past its parent is clipped to it.
    log.add({"bench.sample", 95, 120, p});
    // A grandchild does not count against the grandparent twice.
    const std::size_t child = log.add({"bench.sample", 60, 70, p});
    log.add({"deeper", 62, 64, static_cast<int>(child)});
    const std::vector<std::int64_t> self = log.selfNs();
    EXPECT_EQ(self[parent], 100 - (10 + 20 + 5 + 10));
    EXPECT_EQ(self[child], 8);
    EXPECT_EQ(log.totalSelfNs("network.step"), self[parent]);
    EXPECT_EQ(log.totalSelfNs("bench.sample"), 10 + 15 + 10 + 25 + 8);
}

TEST(SpanLog, NestingAndOrder)
{
    SpanLog log;
    const std::size_t outer = log.begin("harness.curve");
    const std::size_t inner = log.begin("network.step");
    EXPECT_THROW(log.end(outer), std::logic_error);
    log.end(inner);
    log.end(outer);
    EXPECT_EQ(log.spans()[inner].parent, static_cast<int>(outer));
    EXPECT_EQ(log.spans()[outer].parent, -1);
    const Span &o = log.spans()[outer];
    EXPECT_GE(log.selfNs()[outer], 0);
    EXPECT_LE(log.selfNs()[outer], o.endNs - o.startNs);
    EXPECT_THROW(log.add({"bad", 5, 4, -1}), std::invalid_argument);
}

TEST(FailRatio, CountsFailuresAgainstAttempts)
{
    EXPECT_DOUBLE_EQ(failRatio(0, 132), 0.0);
    EXPECT_DOUBLE_EQ(failRatio(1, 4), 0.25);
    EXPECT_DOUBLE_EQ(failRatio(3, 3), 1.0);
    EXPECT_THROW(failRatio(0, 0), std::invalid_argument);
    EXPECT_THROW(failRatio(2, 1), std::invalid_argument);
}

TEST(RateDrift, LastQuarterOverFirstQuarter)
{
    EXPECT_DOUBLE_EQ(rateDrift({1, 1, 1, 1}, {10, 10, 10, 10}), 1.0);
    EXPECT_DOUBLE_EQ(rateDrift({1, 1, 1, 1}, {10, 8, 6, 5}), 0.5);
    // Work is spread evenly inside a segment that straddles a
    // quarter boundary.
    EXPECT_DOUBLE_EQ(rateDrift({2, 2}, {20, 10}), 0.5);
    EXPECT_THROW(rateDrift({}, {}), std::invalid_argument);
    EXPECT_THROW(rateDrift({1, 1}, {0, 5}), std::invalid_argument);
}

TEST(MedianRate, MedianOfWorkOverCpuTimePerChunk)
{
    // Rates 10, 40, 20, 30, 40: the median is 30, not the pooled
    // 140 / 6.
    EXPECT_DOUBLE_EQ(medianRate({10, 40, 40, 30, 20}, {1, 1, 2, 1, 0.5}),
                     30.0);
    EXPECT_DOUBLE_EQ(medianRate({3}, {2}), 1.5);
    EXPECT_THROW(medianRate({}, {}), std::invalid_argument);
    EXPECT_THROW(medianRate({1}, {1, 1}), std::invalid_argument);
    EXPECT_THROW(medianRate({1, 1}, {1, 0}), std::invalid_argument);
}

TEST(CpuRotation, VisitsEachCpuAndRestoresTheMask)
{
    cpu_set_t before;
    CPU_ZERO(&before);
    ASSERT_EQ(sched_getaffinity(0, sizeof before, &before), 0);
    {
        CpuRotation cpus;
        EXPECT_EQ(cpus.cpus(),
                  static_cast<std::size_t>(CPU_COUNT(&before)));
        cpu_set_t visited;
        CPU_ZERO(&visited);
        for (std::size_t i = 0; i < cpus.cpus(); ++i) {
            cpus.next();
            cpu_set_t now;
            CPU_ZERO(&now);
            ASSERT_EQ(sched_getaffinity(0, sizeof now, &now), 0);
            EXPECT_EQ(CPU_COUNT(&now), 1);
            CPU_OR(&visited, &visited, &now);
        }
        EXPECT_TRUE(CPU_EQUAL(&visited, &before));
    }
    cpu_set_t after;
    CPU_ZERO(&after);
    ASSERT_EQ(sched_getaffinity(0, sizeof after, &after), 0);
    EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(Digest, BitPatternsAndOrderMatter)
{
    Digest a, b, c;
    a.add(std::uint64_t{1});
    a.add(2.5);
    b.add(std::uint64_t{1});
    b.add(2.5);
    EXPECT_EQ(a.hex(), b.hex());
    c.add(2.5);
    c.add(std::uint64_t{1});
    EXPECT_NE(a.hex(), c.hex());
    Digest zero, negzero;
    zero.add(0.0);
    negzero.add(-0.0);
    EXPECT_NE(zero.hex(), negzero.hex());
}

TEST(Digest, StableAcrossRunsOfOneSeed)
{
    RunOptions opts;
    opts.workload = "sparse-16";
    opts.seconds = 0.05;
    opts.seed = 7;
    const RunReport first = runWorkload(opts);
    const RunReport second = runWorkload(opts);
    EXPECT_EQ(first.failed, 0u);
    EXPECT_EQ(first.digest.size(), 16u);
    EXPECT_EQ(first.digest, second.digest);
    opts.seed = 8;
    EXPECT_NE(runWorkload(opts).digest, first.digest);
}

TEST(Workloads, RejectsUnknownNamesAndEmptyWindows)
{
    RunOptions opts;
    opts.workload = "nope";
    EXPECT_THROW(runWorkload(opts), std::invalid_argument);
    opts.workload = "sparse-16";
    opts.seconds = 0.0;
    EXPECT_THROW(runWorkload(opts), std::invalid_argument);
}
