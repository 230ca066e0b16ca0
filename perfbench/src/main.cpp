/**
 * @file
 * perfbench: run one benchmark workload and print its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out PATH]
 *
 * Prints a provenance header, one line per metric with its unit,
 * the checks and the trajectory digest, and as the last line one
 * JSON object {"correct", "attempted", "failed", "metrics"}. Exits 2
 * without a result on a bad argument or a run that cannot finish.
 */

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out PATH]\n");
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used, 10);
    if (used != text.size() || text.empty() || text[0] == '-')
        throw std::invalid_argument(flag + " wants a whole number, got '" +
                                    text + "'");
    return v;
}

perfbench::RunOptions
parseArgs(int argc, char **argv)
{
    perfbench::RunOptions opts;
    bool have_workload = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(flag + " needs a value");
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            opts.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opts.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            std::size_t used = 0;
            opts.seconds = std::stod(value, &used);
            if (used != value.size() || !(opts.seconds > 0.0) ||
                opts.seconds > 600.0)
                throw std::invalid_argument(
                    "--seconds wants a number in (0, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace wants 0 or 1");
            opts.trace = value == "1";
        } else if (flag == "--spans-out") {
            opts.spansOut = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    return opts;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    perfbench::RunReport report;
    try {
        opts = parseArgs(argc, argv);
        std::printf("# workload %s, seed %llu, seconds %g, trace %d\n",
                    opts.workload.c_str(),
                    static_cast<unsigned long long>(opts.seed),
                    opts.seconds, opts.trace ? 1 : 0);
        std::printf("# build %s, compiler %s %s\n", PERFBENCH_BUILD_TYPE,
                    PERFBENCH_COMPILER_ID, __VERSION__);
        std::printf("# hardware threads %u; default engine %s; sweep "
                    "jobs 2\n",
                    std::thread::hardware_concurrency(),
                    perfbench::defaultEngineDescription().c_str());
        std::fflush(stdout);
        report = perfbench::runWorkload(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        usage();
        return 2;
    }

    bool finite = true;
    for (const perfbench::Metric &m : report.metrics)
        finite = finite && std::isfinite(m.value);
    const bool correct = report.failed == 0 && finite;

    for (const std::string &note : report.notes)
        std::printf("%s\n", note.c_str());
    std::printf("trajectory digest: %s\n", report.digest.c_str());
    std::printf("fail_ratio = %.6g (%llu of %llu simulations)\n",
                perfbench::failRatio(report.failed, report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    for (const perfbench::Metric &m : report.metrics)
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const perfbench::Metric &m = report.metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                (std::isfinite(m.value) ? jsonNumber(m.value) : "null") +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
