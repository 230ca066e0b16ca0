#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "measure.hpp"
#include "turnnet/common/rng.hpp"
#include "turnnet/harness/differential.hpp"
#include "turnnet/harness/figures.hpp"
#include "turnnet/harness/sweep.hpp"
#include "turnnet/network/engine.hpp"
#include "turnnet/network/simulator.hpp"
#include "turnnet/routing/registry.hpp"
#include "turnnet/topology/topology_registry.hpp"
#include "turnnet/traffic/pattern.hpp"

namespace perfbench {

using turnnet::Cycle;
using turnnet::NodeId;
using turnnet::RoutingPtr;
using turnnet::SimConfig;
using turnnet::Simulator;
using turnnet::Topology;
using turnnet::TrafficPtr;

namespace {

/** Set-ups per run, spread over its timed work so that their median
 *  samples the host across the run; one takes under a millisecond
 *  on a mesh(16x16), so the median needs many. */
constexpr std::uint64_t kSetups = 96;
/** Upper bound on timed step() samples per run. */
constexpr Cycle kStepSamples = 100000;
/** Cycles between in-flight / queued samples of a traced window. */
constexpr Cycle kSampleEvery = 16;
/** (src, dest) pairs whose paths the routing probe walks. */
constexpr int kProbePairs = 2000;
/** Passes over the recorded route() queries / dest() draws. */
constexpr int kProbeRepeats = 20;
constexpr int kDestDraws = 200000;
/** Concurrent simulations of the paper-figures sweep. */
constexpr unsigned kSweepJobs = 2;
/** Identical passes of the paper-figures sweep; each curve's time is
 *  its fastest pass. */
constexpr std::size_t kSweepPasses = 4;

struct CpuTimes
{
    double user = 0.0;
    double sys = 0.0;
    double total() const { return user + sys; }
};

CpuTimes
cpuNow()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

CpuTimes
cpuSince(const CpuTimes &start)
{
    const CpuTimes now = cpuNow();
    return {now.user - start.user, now.sys - start.sys};
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
spanSeconds(const SpanLog &log, std::size_t id)
{
    const Span &s = log.spans()[id];
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

std::string
format(const char *fmt, double a, double b = 0.0, double c = 0.0)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, fmt, a, b, c);
    return buf;
}

/** Times of one set-up, by layer, in seconds. */
struct SetupTimes
{
    double topology = 0.0;
    double routing = 0.0;
    double network = 0.0;
    double total = 0.0;
};

/** Median of each layer over the set-up repetitions. */
SetupTimes
medianSetup(const std::vector<SetupTimes> &reps)
{
    const auto med = [&](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &r : reps)
            v.push_back(r.*field);
        return median(v);
    };
    return {med(&SetupTimes::topology), med(&SetupTimes::routing),
            med(&SetupTimes::network), med(&SetupTimes::total)};
}

/** A volatile store of the probes' results keeps their timed loops
 *  from being folded away. */
volatile std::uint64_t probeSink = 0;

/** route() and dest() cost on paths the workload's pattern asks
 *  for. */
struct ProbeTotals
{
    double routeNs = 0.0;
    std::uint64_t routeCalls = 0;
    std::uint64_t candidates = 0;
    double destNs = 0.0;
    std::uint64_t destDraws = 0;
};

/**
 * Walk kProbePairs paths of @p routing for (src, dest) pairs drawn
 * from @p traffic, always taking the lowest-index legal output, and
 * time route() over the recorded queries and dest() over fresh
 * draws. The walk is untimed so the span holds only the layer call.
 */
void
probeLayers(const Topology &topo, const turnnet::RoutingFunction &routing,
            const turnnet::TrafficPattern &traffic, std::uint64_t seed,
            SpanLog &log, ProbeTotals &totals)
{
    struct Query
    {
        NodeId at;
        NodeId dest;
        turnnet::Direction in;
    };
    turnnet::Rng rng(seed ^ 0x70726f6265ULL);
    const auto nodes = static_cast<std::uint64_t>(topo.numNodes());
    std::vector<Query> queries;
    for (int pair = 0; pair < kProbePairs; ++pair) {
        const auto src = static_cast<NodeId>(rng.nextBounded(nodes));
        const NodeId dest = traffic.dest(src, rng);
        NodeId at = src;
        turnnet::Direction in = turnnet::Direction::local();
        for (int hop = 0; at != dest; ++hop) {
            if (hop > 4 * static_cast<int>(nodes))
                throw std::runtime_error("routing probe: path from " +
                                         std::to_string(src) +
                                         " does not reach " +
                                         std::to_string(dest));
            queries.push_back({at, dest, in});
            const turnnet::DirectionSet legal =
                routing.route(topo, at, dest, in);
            if (legal.empty())
                throw std::runtime_error("routing probe: empty route");
            in = legal.first();
            at = topo.neighbor(at, in);
        }
    }

    std::uint64_t sink = 0;
    const std::size_t route_span = log.begin("routing.route");
    for (int r = 0; r < kProbeRepeats; ++r) {
        for (const Query &q : queries)
            sink += routing.route(topo, q.at, q.dest, q.in).mask();
    }
    log.end(route_span);
    for (const Query &q : queries)
        totals.candidates += static_cast<std::uint64_t>(
            routing.route(topo, q.at, q.dest, q.in).size());
    totals.routeNs += spanSeconds(log, route_span) * 1e9;
    totals.routeCalls += queries.size() * kProbeRepeats;

    const std::size_t dest_span = log.begin("traffic.dest");
    for (int d = 0; d < kDestDraws; ++d)
        sink += static_cast<std::uint64_t>(traffic.dest(
            static_cast<NodeId>(static_cast<std::uint64_t>(d) % nodes),
            rng));
    log.end(dest_span);
    totals.destNs += spanSeconds(log, dest_span) * 1e9;
    totals.destDraws += kDestDraws;

    probeSink = sink;
}

void
addProbeMetrics(std::vector<Metric> &out, const ProbeTotals &p)
{
    out.push_back({"routing.route_ns",
                   p.routeNs / static_cast<double>(p.routeCalls), "ns"});
    out.push_back({"routing.candidates_mean",
                   static_cast<double>(p.candidates) /
                       static_cast<double>(p.routeCalls / kProbeRepeats),
                   "count"});
    out.push_back({"traffic.dest_ns",
                   p.destNs / static_cast<double>(p.destDraws), "ns"});
}

void
addSetupMetrics(std::vector<Metric> &out, const SetupTimes &s)
{
    out.push_back({"topology.build_ms", s.topology * 1e3, "ms"});
    out.push_back({"routing.build_ms", s.routing * 1e3, "ms"});
    out.push_back({"network.construct_ms", s.network * 1e3, "ms"});
}

// ------------------------------------------------------------------
// Stepped workloads: simulations stepped one cycle at a time.
// ------------------------------------------------------------------

struct SteppedSpec
{
    const char *name;
    const char *topology;
    const char *routing;
    const char *traffic;
    double load;
    Cycle warmup;
    /**
     * Stepped cycles per requested second. The timed work is fixed,
     * never a wall-clock deadline, so the simulated trajectory (and
     * with it every sim_* metric and the digest) depends only on the
     * seed and --seconds; the constant makes the work last about
     * --seconds on the calibration host.
     */
    double cyclesPerSecond;
    /**
     * Stepped cycles per simulation after its warm-up; the timed work
     * is split over as many simulations as it takes. 0 steps one
     * simulation through all of it.
     */
    Cycle simCycles;
    /** Lockstep cycles of the differential prefix. */
    Cycle differentialCycles;
    /** Equal-cycle chunks of each simulation's window: the unit of
     *  timing, CPU rotation, rate drift and the digest. */
    Cycle chunks;
};

const SteppedSpec kSparse16{"sparse-16", "mesh(16x16)", "west-first",
                            "uniform",   0.01,          2200,
                            200000.0,    0,             3000,
                            256};
/**
 * At this load some header waits from the first few hundred cycles
 * to the end of the run, so a simulation longer than the watchdog's
 * 100000 cycles is declared deadlocked. Each simulation therefore
 * spans runFigureMain's warm-up plus measurement window (8000 +
 * 30000 cycles), the horizon the library's own sweeps run, and the
 * report prints the longest stall so the starvation stays visible.
 */
const SteppedSpec kSaturated16{"saturated-16", "mesh(16x16)",
                               "west-first",   "uniform",
                               0.20,           8000,
                               15000.0,        30000,
                               1000,           16};

/** Everything built before the first cycle; the simulator is
 *  declared last so it is destroyed before what it points at. */
struct Fabric
{
    std::unique_ptr<Topology> topo;
    RoutingPtr routing;
    TrafficPtr traffic;
    std::unique_ptr<Simulator> sim;
};

SimConfig
steppedConfig(const SteppedSpec &spec, std::uint64_t seed)
{
    SimConfig config;
    config.load = spec.load;
    config.seed = seed;
    return config;
}

Fabric
buildFabric(const SteppedSpec &spec, const SimConfig &config,
            SpanLog &log, SetupTimes &times)
{
    Fabric f;
    const std::size_t setup = log.begin("bench.setup");
    std::size_t id = log.begin("topology.build");
    f.topo = turnnet::TopologyRegistry::instance().build(
        std::string(spec.topology));
    log.end(id);
    times.topology = spanSeconds(log, id);
    id = log.begin("routing.build");
    f.routing = turnnet::makeRouting(
        {.name = spec.routing, .dims = f.topo->numDims()});
    log.end(id);
    times.routing = spanSeconds(log, id);
    id = log.begin("traffic.build");
    f.traffic = turnnet::makeTraffic(spec.traffic, *f.topo);
    log.end(id);
    id = log.begin("network.construct");
    f.sim = std::make_unique<Simulator>(*f.topo, f.routing, f.traffic,
                                        config);
    log.end(id);
    times.network = spanSeconds(log, id);
    log.end(setup);
    times.total = spanSeconds(log, setup);
    return f;
}

/** Step @p cycles; the mean in-network flits over each half, for the
 *  steadiness guard. */
struct WarmupShape
{
    double inflightFirst = 0.0;
    double inflightSecond = 0.0;
};

WarmupShape
warmUp(Simulator &sim, Cycle cycles)
{
    WarmupShape shape;
    const Cycle half = cycles / 2;
    for (Cycle i = 0; i < cycles; ++i) {
        sim.step();
        (i < half ? shape.inflightFirst : shape.inflightSecond) +=
            static_cast<double>(sim.flitsInNetwork());
    }
    if (half > 0) {
        shape.inflightFirst /= static_cast<double>(half);
        shape.inflightSecond /= static_cast<double>(cycles - half);
    }
    return shape;
}

/** What the stepped windows of a run saw, chunk by chunk. */
struct Window
{
    std::vector<double> chunkSeconds;
    std::vector<double> chunkCycles;
    std::vector<double> chunkFlits;
    std::vector<double> chunkCpuSeconds;
    /** Seconds of each simulation's window (one "curve" each). */
    std::vector<double> simSeconds;
    /** Last-quarter / first-quarter cycles/s of each window. */
    std::vector<double> drifts;
    /** CPU time of sampled step() calls (untraced windows only). */
    std::vector<float> stepUs;
    /** Wall and CPU time of the chunks, not of what runs between. */
    double wallS = 0.0;
    CpuTimes cpu;
    std::uint64_t flitsDelivered = 0;
    std::uint64_t packetsDelivered = 0;
    double latencyCycles = 0.0;
    // Traced windows only.
    double inflightSum = 0.0;
    double queuedSum = 0.0;
    std::uint64_t samples = 0;
};

/**
 * Step @p cycles of @p sim in @p chunks equal chunks, appending to
 * @p w. Each chunk runs on the next CPU of @p cpus and is timed on
 * its own; @p between, if set, runs after each chunk, untimed.
 * Untraced, every @p stride-th step() is timed for the latency
 * percentiles. Traced, each chunk is a network.step span whose
 * bench.sample children read the in-flight and queued totals, which
 * the span's self time excludes.
 */
void
stepWindow(Simulator &sim, Cycle cycles, Cycle chunks, Cycle stride,
           bool traced, CpuRotation &cpus,
           const std::function<void()> &between, SpanLog &log,
           Digest &digest, Window &w)
{
    sim.onDelivered = [&w](const turnnet::PacketInfo &info, Cycle at) {
        ++w.packetsDelivered;
        w.latencyCycles += static_cast<double>(at - info.injected);
    };
    const std::size_t first_chunk = w.chunkSeconds.size();
    const std::uint64_t delivered0 = sim.flitsDelivered();
    double window_s = 0.0;
    for (Cycle k = 0, done = 0; k < chunks; ++k) {
        cpus.next();
        const Cycle n = cycles * (k + 1) / chunks - done;
        const std::uint64_t flits0 = sim.flitsDelivered();
        const CpuTimes cpu0 = cpuNow();
        const std::int64_t t0 = nowNs();
        if (traced) {
            const std::size_t span = log.begin("network.step");
            for (Cycle i = 0; i < n; ++i) {
                sim.step();
                if ((done + i) % kSampleEvery == 0) {
                    const std::size_t s = log.begin("bench.sample");
                    w.inflightSum +=
                        static_cast<double>(sim.flitsInNetwork());
                    w.queuedSum += static_cast<double>(sim.flitsQueued());
                    ++w.samples;
                    log.end(s);
                }
            }
            log.end(span);
        } else {
            for (Cycle i = 0; i < n; ++i) {
                if ((done + i) % stride != 0) {
                    sim.step();
                    continue;
                }
                const std::int64_t before = threadCpuNs();
                sim.step();
                w.stepUs.push_back(
                    static_cast<float>(threadCpuNs() - before) * 1e-3f);
            }
        }
        const double secs = static_cast<double>(nowNs() - t0) * 1e-9;
        const CpuTimes cpu = cpuSince(cpu0);
        done += n;
        w.chunkSeconds.push_back(secs);
        w.chunkCycles.push_back(static_cast<double>(n));
        w.chunkFlits.push_back(
            static_cast<double>(sim.flitsDelivered() - flits0));
        window_s += secs;
        w.chunkCpuSeconds.push_back(cpu.total());
        w.cpu.user += cpu.user;
        w.cpu.sys += cpu.sys;
        digest.add(static_cast<std::uint64_t>(sim.now()));
        digest.add(sim.flitsCreated());
        digest.add(sim.flitsDelivered());
        digest.add(sim.packetsDelivered());
        digest.add(sim.flitsInNetwork());
        if (between)
            between();
    }
    w.wallS += window_s;
    w.simSeconds.push_back(window_s);
    w.flitsDelivered += sim.flitsDelivered() - delivered0;
    w.drifts.push_back(rateDrift(
        {w.chunkSeconds.begin() + static_cast<std::ptrdiff_t>(first_chunk),
         w.chunkSeconds.end()},
        {w.chunkCycles.begin() + static_cast<std::ptrdiff_t>(first_chunk),
         w.chunkCycles.end()}));
    sim.onDelivered = nullptr;
    digest.add(w.latencyCycles);
}

/** Conservation and the deadlock watchdog after a run; each failure
 *  becomes a note. */
void
checkRun(const Simulator &sim, const std::string &what,
         RunReport &report)
{
    ++report.attempted;
    bool ok = true;
    const std::uint64_t accounted = sim.flitsDelivered() +
                                    sim.flitsInNetwork() +
                                    sim.flitsQueued() + sim.flitsDropped();
    if (sim.flitsCreated() != accounted) {
        report.notes.push_back(
            "FAIL " + what + ": flit conservation, created " +
            std::to_string(sim.flitsCreated()) + " != " +
            std::to_string(accounted));
        ok = false;
    }
    if (sim.deadlockDetected()) {
        report.notes.push_back("FAIL " + what + ": deadlock detected");
        ok = false;
    }
    if (!ok)
        ++report.failed;
}

/** Counter totals of a traced window, as deltas over it. */
struct CounterDeltas
{
    turnnet::BlockedBreakdown blocked;
    std::uint64_t moves = 0;
    std::uint64_t created = 0;
};

CounterDeltas
counterTotals(const Simulator &sim)
{
    CounterDeltas c;
    c.blocked = sim.counters()->blockedTotal();
    for (const std::uint64_t f : sim.counters()->channelFlits())
        c.moves += f;
    c.created = sim.flitsCreated();
    return c;
}

/**
 * Warm up and step every simulation of a run. Simulation i runs seed
 * sweepTaskSeed(seed, 0, i, sims); the first one reuses @p first.
 * With @p setups set, kSetups throwaway set-ups of simulation 0's
 * configuration are timed between the chunks, spread evenly over
 * them, and appended to it.
 */
void
runSimulations(const SteppedSpec &spec, const RunOptions &opts,
               bool traced, Fabric &first, SpanLog &log, Digest &digest,
               Window &w, CounterDeltas &deltas,
               std::vector<SetupTimes> *setups, RunReport &report)
{
    const auto total = static_cast<Cycle>(
        std::llround(spec.cyclesPerSecond * opts.seconds));
    const Cycle sims =
        spec.simCycles == 0
            ? 1
            : std::max<Cycle>(1, (total + spec.simCycles / 2) /
                                     spec.simCycles);
    const Cycle cycles = std::max<Cycle>(
        spec.chunks, spec.simCycles == 0 ? total : spec.simCycles);
    const Cycle stride = std::max<Cycle>(1, sims * cycles / kStepSamples);
    int ramping = 0;
    Cycle worst_stall = 0;

    CpuRotation cpus;
    const std::uint64_t all_chunks = sims * spec.chunks;
    std::uint64_t chunk_no = 0;
    std::function<void()> between;
    if (setups) {
        between = [&] {
            const std::uint64_t due =
                (chunk_no + 1) * kSetups / all_chunks -
                chunk_no * kSetups / all_chunks;
            ++chunk_no;
            const SimConfig config = steppedConfig(
                spec, turnnet::sweepTaskSeed(opts.seed, 0, 0, 1));
            for (std::uint64_t i = 0; i < due; ++i)
                buildFabric(spec, config, log, setups->emplace_back());
        };
    }
    for (Cycle i = 0; i < sims; ++i) {
        SimConfig config = steppedConfig(
            spec, turnnet::sweepTaskSeed(opts.seed, 0,
                                         static_cast<unsigned>(i),
                                         static_cast<unsigned>(sims)));
        config.trace.counters = traced;
        if (i > 0 || traced)
            first.sim = std::make_unique<Simulator>(
                *first.topo, first.routing, first.traffic, config);
        Simulator &sim = *first.sim;
        const WarmupShape shape = warmUp(sim, spec.warmup);
        // Steadiness guard: a window that starts while the in-network
        // population still climbs measures the ramp. Report it. The
        // slack is one mean message: at 1% load one worm more or less
        // is a third of the population and says nothing about a ramp.
        if (shape.inflightSecond >
            1.25 * shape.inflightFirst + config.lengths.mean()) {
            ++ramping;
            report.notes.push_back(
                format("WARNING warm-up ends mid-ramp in simulation "
                       "%.0f: in-network flits %.1f -> %.1f over its "
                       "two halves",
                       static_cast<double>(i), shape.inflightFirst,
                       shape.inflightSecond));
        }
        const CounterDeltas before =
            traced ? counterTotals(sim) : CounterDeltas{};
        const std::size_t curve =
            log.begin(traced ? "trace.counters_window" : "harness.curve");
        stepWindow(sim, cycles, spec.chunks, stride, traced, cpus, between,
                   log, digest, w);
        log.end(curve);
        checkRun(sim, std::string(spec.name) + " simulation " +
                          std::to_string(i) + (traced ? " (traced)" : ""),
                 report);
        worst_stall = std::max(worst_stall, sim.worstFrontStall());
        if (traced) {
            const CounterDeltas after = counterTotals(sim);
            deltas.blocked.routingDenied +=
                after.blocked.routingDenied - before.blocked.routingDenied;
            deltas.blocked.outputBusy +=
                after.blocked.outputBusy - before.blocked.outputBusy;
            deltas.blocked.downstreamFull +=
                after.blocked.downstreamFull -
                before.blocked.downstreamFull;
            deltas.moves += after.moves - before.moves;
            deltas.created += after.created - before.created;
        }
    }
    report.notes.push_back(
        std::to_string(sims) + " simulation(s) of " +
        std::to_string(spec.warmup) + " warm-up + " +
        std::to_string(cycles) + " stepped cycles; warm-up plateau in " +
        std::to_string(sims - ramping) + "; longest front-flit stall " +
        std::to_string(worst_stall) + " cycles (the watchdog fires past " +
        std::to_string(first.sim->config().watchdogCycles) + ")");
    report.notes.push_back(
        std::to_string(w.chunkSeconds.size()) + " timed chunks of " +
        std::to_string(cycles / spec.chunks) +
        "+ cycles, each on the next of " + std::to_string(cpus.cpus()) +
        " CPUs in turn");
}

RunReport
runStepped(const SteppedSpec &spec, const RunOptions &opts)
{
    RunReport report;
    SpanLog log;
    Digest digest;
    const SimConfig config = steppedConfig(
        spec, turnnet::sweepTaskSeed(opts.seed, 0, 0, 1));

    SetupTimes cold;
    Fabric fabric = buildFabric(spec, config, log, cold);

    // Correctness gate: the engine users get, in lockstep with the
    // reference engine, must produce identical event streams and
    // fabric state, so its error against the reference model is 0.
    {
        const std::size_t span = log.begin("harness.differential");
        turnnet::DifferentialHarness harness(*fabric.topo, fabric.routing,
                                             fabric.traffic, config,
                                             config.engine);
        const turnnet::DifferentialReport diff =
            harness.run(spec.differentialCycles);
        log.end(span);
        ++report.attempted;
        if (!diff.identical || diff.cyclesRun != spec.differentialCycles) {
            ++report.failed;
            report.notes.push_back(
                "FAIL differential vs reference at cycle " +
                std::to_string(diff.divergenceCycle) + ": " + diff.detail);
        } else {
            report.notes.push_back(
                "differential vs reference: identical over " +
                std::to_string(diff.cyclesRun) + " cycles, " +
                std::to_string(diff.eventsCompared) + " events");
        }
    }

    // Set-up is timed between the chunks of the untraced windows.
    Window w;
    CounterDeltas unused;
    std::vector<SetupTimes> setups;
    runSimulations(spec, opts, false, fabric, log, digest, w, unused,
                   &setups, report);
    const SetupTimes setup = medianSetup(setups);
    const double cycles = std::accumulate(w.chunkCycles.begin(),
                                          w.chunkCycles.end(), 0.0);
    const double cycles_per_s = cycles / w.wallS;
    const double drift = median(w.drifts);
    report.notes.push_back(format("rate drift (last / first quarter "
                                  "cycles/s, median over simulations): "
                                  "%.4f",
                                  drift));

    if (!opts.trace) {
        // Rates and step() times are CPU time: the host takes the CPU
        // away from the process for whole timeslices (see README.md).
        const std::vector<double> steps(w.stepUs.begin(), w.stepUs.end());
        const double tail = tailPercentile(steps.size());
        if (tail < 99.0)
            throw std::invalid_argument(
                "--seconds too small: under 1000 step() samples");
        const double cpu_rate = medianRate(w.chunkCycles, w.chunkCpuSeconds);
        report.notes.push_back(
            format("cycles per CPU second: %.0f in the median chunk, %.0f "
                   "over all chunks; cycles per wall second: %.0f",
                   cpu_rate, cycles / w.cpu.total(), cycles_per_s));
        report.notes.push_back(format("stepped windows: %.3f s wall (sweep "
                                      "time), %.3f s CPU",
                                      w.wallS, w.cpu.total()));
        report.notes.push_back(
            "step() samples: " + std::to_string(steps.size()) +
            format("; highest percentile with >= 10 beyond: p%g = %.4g us",
                   tail, percentile(steps, tail)));
        report.metrics = {
            {"setup_s", setup.total, "s"},
            {"cycles_per_s", cpu_rate, "1/s"},
            {"flits_per_s", medianRate(w.chunkFlits, w.chunkCpuSeconds),
             "1/s"},
            {"cycle_us_p50", percentile(steps, 50.0), "us"},
            {"cycle_us_p99", percentile(steps, 99.0), "us"},
            {"cpu_s", w.cpu.total(), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_accepted_flits_per_us",
             static_cast<double>(w.flitsDelivered) /
                 turnnet::cyclesToMicroseconds(cycles),
             "flits/us"},
            {"sim_latency_us",
             turnnet::cyclesToMicroseconds(w.latencyCycles) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, w.packetsDelivered)),
             "us"},
        };
        report.digest = digest.hex();
        return report;
    }

    // Traced run: the same simulations again with
    // TraceConfig::counters on, stepped through network.step spans.
    ProbeTotals probe;
    probeLayers(*fabric.topo, *fabric.routing, *fabric.traffic,
                opts.seed, log, probe);
    Window tw;
    CounterDeltas deltas;
    Digest traced_digest;
    runSimulations(spec, opts, true, fabric, log, traced_digest, tw,
                   deltas, nullptr, report);
    if (traced_digest.hex() != digest.hex()) {
        ++report.failed;
        report.notes.push_back("FAIL counters changed the trajectory");
    }

    const double step_self_s =
        static_cast<double>(log.totalSelfNs("network.step")) * 1e-9;
    const auto moves = static_cast<double>(deltas.moves);
    const turnnet::BlockedBreakdown &b = deltas.blocked;
    auto &m = report.metrics;
    addSetupMetrics(m, setup);
    addProbeMetrics(m, probe);
    m.push_back({"traffic.flits_created_per_cycle",
                 static_cast<double>(deltas.created) / cycles,
                 "flits/cycle"});
    m.push_back({"network.step_us", step_self_s * 1e6 / cycles, "us"});
    m.push_back({"network.flit_moves_per_cycle", moves / cycles,
                 "flits/cycle"});
    m.push_back({"network.routing_denied_per_cycle",
                 static_cast<double>(b.routingDenied) / cycles,
                 "count/cycle"});
    m.push_back({"network.output_busy_per_cycle",
                 static_cast<double>(b.outputBusy) / cycles,
                 "count/cycle"});
    m.push_back({"network.downstream_full_per_cycle",
                 static_cast<double>(b.downstreamFull) / cycles,
                 "count/cycle"});
    m.push_back({"network.alloc_useful_ratio",
                 moves / (moves + static_cast<double>(b.routingDenied +
                                                      b.outputBusy)),
                 "ratio"});
    m.push_back({"network.ns_per_flit_move", step_self_s * 1e9 / moves,
                 "ns"});
    m.push_back({"network.inflight_flits_mean",
                 tw.inflightSum / static_cast<double>(tw.samples),
                 "flits"});
    m.push_back({"network.queued_flits_mean",
                 tw.queuedSum / static_cast<double>(tw.samples), "flits"});
    m.push_back({"network.rate_drift", drift, "ratio"});
    m.push_back({"network.cpu_per_wall", w.cpu.total() / w.wallS,
                 "ratio"});
    m.push_back({"network.sys_cpu_share", w.cpu.sys / w.cpu.total(),
                 "ratio"});
    m.push_back({"harness.curve_s_p50", median(w.simSeconds), "s"});
    m.push_back({"harness.curve_s_max",
                 *std::max_element(w.simSeconds.begin(),
                                   w.simSeconds.end()),
                 "s"});
    m.push_back({"harness.parallel_efficiency", w.cpu.total() / w.wallS,
                 "ratio"});
    m.push_back({"trace.counters_overhead",
                 cycles_per_s / (cycles / step_self_s) - 1.0, "ratio"});
    report.notes.push_back(
        format("traced windows: %.0f in-flight samples, step self time "
               "%.3f s of %.3f s",
               static_cast<double>(tw.samples), step_self_s, tw.wallS));
    report.digest = digest.hex();
    if (!opts.spansOut.empty() &&
        !log.writeJsonLines(opts.spansOut, spec.name))
        throw std::runtime_error("cannot write spans to " + opts.spansOut);
    return report;
}

// ------------------------------------------------------------------
// paper-figures: the fig13-fig16 sweeps through runLoadSweep.
// ------------------------------------------------------------------

const char *const kFigures[] = {"fig13", "fig14", "fig15", "fig16"};

/** One figure's inputs, built as runFigure builds them. */
struct FigureInputs
{
    turnnet::FigureSpec spec;
    std::unique_ptr<Topology> topo;
    TrafficPtr traffic;
    std::vector<RoutingPtr> routings;
    /** Input buffers of the figure's fabric (for in-flight means). */
    std::size_t buffers = 0;
};

/**
 * Windows of every sweep simulation, shortened from runFigureMain's
 * 8000/30000/30000 by the same fixed factor on every commit and
 * scaled by --seconds, so that the kSweepPasses passes take about
 * --seconds on the calibration host.
 */
SimConfig
sweepBase(const RunOptions &opts)
{
    const double scale =
        opts.seconds / 10.0 / static_cast<double>(kSweepPasses);
    const auto cycles = [&](double at_ten_seconds) {
        return std::max<Cycle>(
            1, static_cast<Cycle>(std::llround(at_ten_seconds * scale)));
    };
    SimConfig base;
    base.warmupCycles = cycles(1000);
    base.measureCycles = cycles(2000);
    base.drainCycles = cycles(2000);
    base.seed = opts.seed;
    return base;
}

std::vector<FigureInputs>
buildFigures(const SimConfig &base, SpanLog &log, SetupTimes &times)
{
    std::vector<FigureInputs> figs;
    const std::size_t setup = log.begin("bench.setup");
    for (const char *id : kFigures) {
        FigureInputs f;
        f.spec = turnnet::figureSpec(id);
        std::size_t span = log.begin("topology.build");
        f.topo = turnnet::makeTopology(f.spec.topology);
        log.end(span);
        times.topology += spanSeconds(log, span);
        span = log.begin("traffic.build");
        f.traffic = turnnet::makeTraffic(f.spec.traffic, *f.topo);
        log.end(span);
        for (const std::string &alg : f.spec.algorithms) {
            span = log.begin("routing.build");
            f.routings.push_back(turnnet::makeRouting(
                {.name = alg, .dims = f.topo->numDims()}));
            log.end(span);
            times.routing += spanSeconds(log, span);
            // The per-simulation construction every sweep point pays.
            SimConfig config = base;
            config.load = f.spec.loads.front();
            span = log.begin("network.construct");
            const Simulator sim(*f.topo, f.routings.back(), f.traffic,
                                config);
            log.end(span);
            times.network += spanSeconds(log, span);
            f.buffers = sim.network().numInputs();
        }
        figs.push_back(std::move(f));
    }
    log.end(setup);
    times.total = spanSeconds(log, setup);
    return figs;
}

/** One pass over the 16 (figure, algorithm) curves. */
struct SweepPass
{
    std::vector<double> curveSeconds;
    std::vector<CpuTimes> curveCpu;
    std::vector<double> curveCycles;
    /** Index in the figure list of each curve's figure. */
    std::vector<std::size_t> curveFigure;
    /** Wall and CPU time of the curves, not of what runs between. */
    double wallS = 0.0;
    CpuTimes cpu;
    double cycles = 0.0;
    double flits = 0.0;
    double sustainableSum = 0.0;
    /** Accepted throughput at each curve's highest load, summed. */
    double saturatedSum = 0.0;
    /** Network latency summed over every measured packet. */
    double latencySum = 0.0;
    double packetsMeasured = 0.0;
    std::size_t curves = 0;
    // Counters, pooled over every point (traced pass only).
    double countedCycles = 0.0;
    double moves = 0.0;
    double occupancy = 0.0;
    double queuedFlits = 0.0;
    double createdPerCycle = 0.0;
    std::size_t points = 0;
    turnnet::BlockedBreakdown blocked;
};

/** Sweep every curve of @p figs; @p between, if set, runs after
 *  each curve, untimed. */
SweepPass
sweepFigures(const std::vector<FigureInputs> &figs, const SimConfig &base,
             bool counters, const std::function<void()> &between,
             SpanLog &log, Digest &digest, RunReport &report)
{
    turnnet::SweepOptions sweep_opts;
    sweep_opts.jobs = kSweepJobs;
    sweep_opts.benchJson = "off";
    sweep_opts.collectCounters = counters;
    const double mean_length = base.lengths.mean();

    SweepPass pass;
    for (const FigureInputs &f : figs) {
        for (std::size_t a = 0; a < f.routings.size(); ++a) {
            const CpuTimes cpu0 = cpuNow();
            const std::size_t span = log.begin("harness.curve");
            const std::vector<turnnet::SweepPoint> points =
                turnnet::runLoadSweep(*f.topo, f.routings[a], f.traffic,
                                      f.spec.loads, base, sweep_opts);
            log.end(span);
            const CpuTimes cpu = cpuSince(cpu0);
            pass.curveCpu.push_back(cpu);
            pass.cpu.user += cpu.user;
            pass.cpu.sys += cpu.sys;
            double curve_cycles = 0.0;
            for (const turnnet::SweepPoint &p : points) {
                const turnnet::SimResult &r = p.result;
                ++report.attempted;
                if (r.deadlocked) {
                    ++report.failed;
                    report.notes.push_back(
                        "FAIL " + f.spec.id + " " + f.spec.algorithms[a] +
                        format(" load %.2f: deadlock", p.offered));
                }
                curve_cycles += static_cast<double>(r.cycles);
                pass.flits += r.acceptedFlitsPerCycle *
                              static_cast<double>(base.measureCycles);
                digest.add(static_cast<std::uint64_t>(r.cycles));
                digest.add(r.packetsFinished);
                digest.add(r.acceptedFlitsPerUsec);
                digest.add(r.avgTotalLatencyUs);
                if (p.counters) {
                    const turnnet::TraceCounters &c = *p.counters;
                    const auto observed =
                        static_cast<double>(c.cyclesObserved());
                    pass.countedCycles += observed;
                    for (const std::uint64_t fl : c.channelFlits())
                        pass.moves += static_cast<double>(fl);
                    pass.occupancy += c.meanOccupancy() *
                                      static_cast<double>(f.buffers) *
                                      observed;
                    pass.blocked += c.blockedTotal();
                }
                pass.queuedFlits += r.avgSourceQueuePackets * mean_length;
                const auto measured =
                    static_cast<double>(r.packetsMeasured);
                pass.latencySum += r.avgNetworkLatencyUs * measured;
                pass.packetsMeasured += measured;
                pass.createdPerCycle +=
                    r.generatedLoad *
                    static_cast<double>(f.topo->numNodes());
                ++pass.points;
            }
            pass.curveSeconds.push_back(spanSeconds(log, span));
            pass.wallS += pass.curveSeconds.back();
            pass.curveCycles.push_back(curve_cycles);
            pass.cycles += curve_cycles;
            pass.sustainableSum += turnnet::maxSustainableThroughput(points);
            pass.saturatedSum += points.back().result.acceptedFlitsPerUsec;
            pass.curveFigure.push_back(
                static_cast<std::size_t>(&f - figs.data()));
            ++pass.curves;
            if (between)
                between();
        }
    }
    return pass;
}

RunReport
runPaperFigures(const RunOptions &opts)
{
    RunReport report;
    SpanLog log;
    Digest digest;
    const SimConfig base = sweepBase(opts);

    SetupTimes cold;
    std::vector<FigureInputs> figs = buildFigures(base, log, cold);

    // Set-up is timed between the curves of every pass, kSetups times
    // spread evenly over them, each on the next CPU in turn; the
    // sweep's worker threads start unpinned.
    std::size_t curves = 0;
    for (const FigureInputs &f : figs)
        curves += kSweepPasses * f.routings.size();
    std::vector<SetupTimes> setups;
    std::uint64_t curve_no = 0;
    CpuRotation cpus;
    const auto between = [&] {
        const std::uint64_t due = (curve_no + 1) * kSetups / curves -
                                  curve_no * kSetups / curves;
        ++curve_no;
        for (std::uint64_t i = 0; i < due; ++i) {
            cpus.next();
            buildFigures(base, log, setups.emplace_back());
        }
        cpus.release();
    };
    // The passes repeat one trajectory, so a slower pass of a curve
    // only measures the host; each curve counts its fastest pass.
    std::vector<SweepPass> passes;
    std::vector<double> drifts;
    for (std::size_t p = 0; p < kSweepPasses; ++p) {
        Digest pass_digest;
        passes.push_back(sweepFigures(figs, base, false, between, log,
                                      pass_digest, report));
        drifts.push_back(rateDrift(passes.back().curveSeconds,
                                   passes.back().curveCycles));
        if (p == 0) {
            digest = pass_digest;
        } else if (pass_digest.hex() != digest.hex()) {
            ++report.failed;
            report.notes.push_back("FAIL pass " + std::to_string(p) +
                                   " did not repeat the trajectory");
        }
    }
    SweepPass pass = passes.front();
    pass.wallS = 0.0;
    pass.cpu = {};
    for (std::size_t c = 0; c < pass.curveSeconds.size(); ++c) {
        for (const SweepPass &other : passes) {
            if (other.curveSeconds[c] < pass.curveSeconds[c]) {
                pass.curveSeconds[c] = other.curveSeconds[c];
                pass.curveCpu[c] = other.curveCpu[c];
            }
        }
        pass.wallS += pass.curveSeconds[c];
        pass.cpu.user += pass.curveCpu[c].user;
        pass.cpu.sys += pass.curveCpu[c].sys;
    }
    const SetupTimes setup = medianSetup(setups);

    // Host time per simulated cycle of each figure, its curves'
    // fastest passes pooled: a single curve's is too noisy to rank,
    // and with 16 curves no tail percentile has ten beyond it.
    std::vector<double> fig_seconds(figs.size());
    std::vector<double> fig_cycles(figs.size());
    for (std::size_t c = 0; c < pass.curveSeconds.size(); ++c) {
        fig_seconds[pass.curveFigure[c]] += pass.curveSeconds[c];
        fig_cycles[pass.curveFigure[c]] += pass.curveCycles[c];
    }
    std::vector<double> fig_us;
    for (std::size_t i = 0; i < figs.size(); ++i)
        fig_us.push_back(fig_seconds[i] * 1e6 / fig_cycles[i]);
    std::sort(fig_us.begin(), fig_us.end());
    const std::size_t n_figs = fig_us.size();
    const double fig_us_median =
        (fig_us[(n_figs - 1) / 2] + fig_us[n_figs / 2]) / 2.0;
    const double drift = median(drifts);
    report.notes.push_back(
        std::to_string(kSweepPasses) + " passes of " +
        std::to_string(pass.points) + " simulations in " +
        std::to_string(pass.curves) + " curves, " +
        format("%.0f simulated cycles each; windows %.0f/%.0f", pass.cycles,
               static_cast<double>(base.warmupCycles),
               static_cast<double>(base.measureCycles)) +
        "/" + std::to_string(base.drainCycles) +
        " warm-up/measure/drain cycles");
    std::vector<double> pass_walls;
    for (const SweepPass &p : passes)
        pass_walls.push_back(p.wallS);
    std::string walls = "pass walls:";
    for (const double w : pass_walls)
        walls += format(" %.3f", w);
    report.notes.push_back(walls + format(" s; sweep time (the curves' "
                                          "fastest passes) %.3f s",
                                          pass.wallS));
    report.notes.push_back(
        "cycle_us_p50 and cycle_us_p99 are the median and the slowest "
        "of the 4 figures' host time per cycle (fastest passes)");
    report.notes.push_back(format(
        "mean over the curves of the max sustainable throughput %.4g "
        "flits/us; of the accepted throughput at the highest load %.4g "
        "flits/us (sim_accepted_flits_per_us)",
        pass.sustainableSum / static_cast<double>(pass.curves),
        pass.saturatedSum / static_cast<double>(pass.curves)));

    if (!opts.trace) {
        report.metrics = {
            {"setup_s", setup.total, "s"},
            {"cycles_per_s", pass.cycles / pass.wallS, "1/s"},
            {"flits_per_s", pass.flits / pass.wallS, "1/s"},
            {"cycle_us_p50", fig_us_median, "us"},
            {"cycle_us_p99", fig_us.back(), "us"},
            {"cpu_s", pass.cpu.total(), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"sim_accepted_flits_per_us",
             pass.saturatedSum / static_cast<double>(pass.curves),
             "flits/us"},
            {"sim_latency_us",
             pass.latencySum / pass.packetsMeasured,
             "us"},
        };
        report.digest = digest.hex();
        return report;
    }

    ProbeTotals probe;
    for (const FigureInputs &f : figs) {
        for (const RoutingPtr &r : f.routings)
            probeLayers(*f.topo, *r, *f.traffic, opts.seed, log, probe);
    }
    Digest traced_digest;
    const std::size_t tspan = log.begin("trace.counters_window");
    const SweepPass traced =
        sweepFigures(figs, base, true, nullptr, log, traced_digest, report);
    log.end(tspan);
    if (traced_digest.hex() != digest.hex()) {
        ++report.failed;
        report.notes.push_back("FAIL counters changed the trajectory");
    }

    const double cycles = traced.countedCycles;
    const auto &b = traced.blocked;
    auto &m = report.metrics;
    addSetupMetrics(m, setup);
    addProbeMetrics(m, probe);
    m.push_back({"traffic.flits_created_per_cycle",
                 traced.createdPerCycle /
                     static_cast<double>(traced.points),
                 "flits/cycle"});
    m.push_back({"network.step_us", traced.cpu.total() * 1e6 / cycles,
                 "us"});
    m.push_back({"network.flit_moves_per_cycle", traced.moves / cycles,
                 "flits/cycle"});
    m.push_back({"network.routing_denied_per_cycle",
                 static_cast<double>(b.routingDenied) / cycles,
                 "count/cycle"});
    m.push_back({"network.output_busy_per_cycle",
                 static_cast<double>(b.outputBusy) / cycles,
                 "count/cycle"});
    m.push_back({"network.downstream_full_per_cycle",
                 static_cast<double>(b.downstreamFull) / cycles,
                 "count/cycle"});
    m.push_back({"network.alloc_useful_ratio",
                 traced.moves /
                     (traced.moves +
                      static_cast<double>(b.routingDenied + b.outputBusy)),
                 "ratio"});
    m.push_back({"network.ns_per_flit_move",
                 traced.cpu.total() * 1e9 / traced.moves, "ns"});
    m.push_back({"network.inflight_flits_mean", traced.occupancy / cycles,
                 "flits"});
    m.push_back({"network.queued_flits_mean",
                 traced.queuedFlits / static_cast<double>(traced.points),
                 "flits"});
    m.push_back({"network.rate_drift", drift, "ratio"});
    m.push_back({"network.cpu_per_wall", pass.cpu.total() / pass.wallS,
                 "ratio"});
    m.push_back({"network.sys_cpu_share", pass.cpu.sys / pass.cpu.total(),
                 "ratio"});
    m.push_back({"harness.curve_s_p50", median(pass.curveSeconds), "s"});
    m.push_back({"harness.curve_s_max",
                 *std::max_element(pass.curveSeconds.begin(),
                                   pass.curveSeconds.end()),
                 "s"});
    m.push_back({"harness.parallel_efficiency",
                 pass.cpu.total() / (pass.wallS * kSweepJobs), "ratio"});
    m.push_back({"trace.counters_overhead",
                 traced.wallS / median(pass_walls) - 1.0, "ratio"});
    report.digest = digest.hex();
    if (!opts.spansOut.empty() &&
        !log.writeJsonLines(opts.spansOut, "paper-figures"))
        throw std::runtime_error("cannot write spans to " + opts.spansOut);
    return report;
}

} // namespace

RunReport
runWorkload(const RunOptions &opts)
{
    if (!(opts.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    if (opts.workload == kSparse16.name)
        return runStepped(kSparse16, opts);
    if (opts.workload == kSaturated16.name)
        return runStepped(kSaturated16, opts);
    if (opts.workload == "paper-figures")
        return runPaperFigures(opts);
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

std::string
defaultEngineDescription()
{
    const SimConfig config;
    const turnnet::EngineDescriptor &engine =
        turnnet::EngineRegistry::instance().at(config.engine);
    std::string shards = "1 (the engine does not shard)";
    if (engine.supportsSharding) {
        shards = config.shards != 0
                     ? std::to_string(config.shards)
                     : "one per hardware thread (" +
                           std::to_string(std::max(
                               1u, std::thread::hardware_concurrency())) +
                           "), capped at the node count";
    }
    return std::string(engine.name) + ", shards " + shards;
}

} // namespace perfbench
