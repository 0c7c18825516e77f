/**
 * @file
 * ltpbench: the benchmark's measuring program (run it through run.py).
 *
 *   ltpbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--work-dir DIR] [--results FILE] [--smoke]
 *   ltpbench --selftest
 *
 * A run repeats whole rounds of the workload's cells (cells.hh) until
 * --seconds of wall time have passed, checks every cell's outputs, and
 * prints one JSON object as its last line: correct / attempted / failed
 * plus the metrics, each the median over the rounds of a per-round
 * figure. --trace 0 reports the end-to-end metrics, measured with no
 * tracing or sampling. --trace 1 reports the per-layer metrics: it runs
 * the rounds under the CPU-time sampler (sampler.hh; samples written to
 * DIR/samples.txt for run.py to attribute), then one plain and one
 * obs-traced round, whose difference is the tracing overhead (the
 * traced round's samples go to DIR/samples-obs.txt).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cells.hh"
#include "checks.hh"
#include "sampler.hh"

using namespace ltpbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool smoke = false;
    bool selftest = false;
    std::string workDir = ".";
    std::string results;
};

/** CPU time between two samples of the traced run's sampler. */
constexpr unsigned samplePeriodUs = 1000;
/** Samples the sampler can hold (over 2 min of CPU time at 1 kHz). */
constexpr std::size_t sampleCapacity = 1u << 17;

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef endToEndMetrics[] = {
    {"sim_cycles_per_s", "1/s"},
    {"sim_cycles_per_cpu_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Per-layer metrics measured here; run.py adds the `*.self_s` ones. */
const MetricDef perLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_s", "1/s"},
    {"sim.overflow_migrations", "count"},
    {"sim.par.rounds", "count"},
    {"sim.par.events_per_round", "count"},
    {"sim.par.barrier_parks", "count"},
    {"sim.par.barrier_wait_s", "s"},
    {"sim.par.spilled_posts", "count"},
    {"net.msgs", "count"},
    {"net.hops", "count"},
    {"net.events_per_msg", "count"},
    {"net.ns_per_msg", "ns"},
    {"net.latency_p50_cycles", "cycles"},
    {"net.latency_p99_cycles", "cycles"},
    {"net.peak_link_util", "ratio"},
    {"net.escape_reroutes", "count"},
    {"net.delivered_per_node_cycle", "1/cycle"},
    {"proto.dir_requests", "count"},
    {"proto.dir_queueing_cycles", "cycles"},
    {"proto.dir_service_cycles", "cycles"},
    {"proto.miss_latency_cycles", "cycles"},
    {"proto.stale_drops", "count"},
    {"proto.ns_per_dir_request", "ns"},
    {"predictor.invalidations", "count"},
    {"predictor.accuracy", "ratio"},
    {"predictor.mispredicted", "count"},
    {"predictor.self_invs_issued", "count"},
    {"predictor.timely_ratio", "ratio"},
    {"predictor.premature", "count"},
    {"predictor.ns_per_mem_op", "ns"},
    {"mem.cache_hits", "count"},
    {"mem.cache_misses", "count"},
    {"kernel.mem_ops", "count"},
    {"dsm.sim_cycles", "cycles"},
    {"dsm.ltp_speedup", "ratio"},
    {"dsm.wall_s", "s"},
    {"obs.trace_overhead_s", "s"},
    {"obs.trace_records", "count"},
    {"obs.trace_dropped", "count"},
};

using Metrics = std::map<std::string, double>;

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Pooled (sum, count) of the average @p name over @p cells. */
struct Pooled
{
    double sum = 0.0;
    double count = 0.0;

    void
    add(const CellResult &c, const char *name)
    {
        auto it = c.stats.averages.find(name);
        if (it != c.stats.averages.end()) {
            sum += it->second.sum;
            count += double(it->second.count);
        }
    }
    double mean() const { return ratio(sum, count); }
};

/**
 * The per-round figures of one round. Host-time figures cover every
 * cell; simulated counts only the cells that completed (a failed cell's
 * counts stop wherever it was cut off).
 */
Metrics
roundMetrics(const Workload &w, const std::vector<CellResult> &cells)
{
    double wall = 0, cpu = 0, setup = 0, runWall = 0, events = 0;
    double cycles = 0, doneEvents = 0, doneRunWall = 0, msgs = 0;
    double hops = 0, escapes = 0, nodeCycles = 0, peakUtil = 0;
    double dirRequests = 0, staleDrops = 0, dsmRunWall = 0;
    double hits = 0, misses = 0, memOps = 0;
    double invals = 0, predicted = 0, passiveInvals = 0, passivePred = 0;
    double mispredicted = 0, issued = 0, timely = 0, late = 0,
           premature = 0, predMemOps = 0, predRunWall = 0;
    double engineRounds = 0, roundEvents = 0, parks = 0, waitNs = 0,
           spills = 0, migrations = 0;
    Pooled queueing, service, missLatency;
    std::optional<ltp::Histogram> latency;
    std::map<std::string, double> baseCycles, activeCycles;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &spec = w.cells[i];
        const CellResult &c = cells[i];
        const ltp::RunResult &r = c.result;
        const ltp::obs::EngineProfile &ep = r.engineProfile;
        wall += c.wall();
        cpu += c.cpu();
        setup += c.construct.wall;
        runWall += c.run.wall;
        events += double(r.eventsExecuted);
        engineRounds += double(ep.rounds);
        if (ep.rounds)
            roundEvents += double(r.eventsExecuted);
        parks += double(ep.barrierParks);
        waitNs += double(ep.barrierWaitNs);
        spills += double(ep.spilledPosts);
        migrations += double(ep.overflowMigrations);
        if (!c.completed)
            continue;

        cycles += double(r.cycles);
        doneEvents += double(r.eventsExecuted);
        doneRunWall += c.run.wall;
        msgs += double(r.netMsgs);
        hops += double(c.counter("net.hops"));
        escapes += double(c.counter("net.escapeReroutes"));
        nodeCycles += double(c.nodes) * double(r.cycles);
        peakUtil = std::max(peakUtil, ratio(double(c.peakLinkBusy),
                                            double(r.cycles)));
        if (c.latency) {
            if (!latency)
                latency = c.latency;
            else if (latency->numBuckets() == c.latency->numBuckets() &&
                     latency->bucketWidth() == c.latency->bucketWidth())
                latency->merge(*c.latency);
        }
        if (spec.kind == CellKind::Netload)
            continue;

        dsmRunWall += c.run.wall;
        dirRequests += double(c.counter("dir.requests"));
        staleDrops += double(c.counter("dir.staleDrops"));
        queueing.add(c, "dir.queueing");
        service.add(c, "dir.service");
        missLatency.add(c, "cache.missLatency");
        hits += double(c.counter("cache.hits"));
        misses += double(c.counter("cache.misses"));
        memOps += double(r.memOps);

        ltp::PredictorMode mode = spec.params.mode;
        if (spec.params.predictor == ltp::PredictorKind::Base) {
            if (spec.kind == CellKind::Kernel)
                baseCycles[spec.kernel] = double(r.cycles);
            continue;
        }
        invals += double(r.invalidations);
        predicted += double(r.predicted);
        mispredicted += double(r.mispredicted);
        predMemOps += double(r.memOps);
        predRunWall += c.run.wall;
        if (mode == ltp::PredictorMode::Passive) {
            passiveInvals += double(r.invalidations);
            passivePred += double(r.predicted);
        } else if (mode == ltp::PredictorMode::Active) {
            issued += double(r.selfInvsIssued);
            timely += double(r.selfInvTimelyCorrect);
            late += double(r.selfInvLateCorrect);
            premature += double(r.selfInvPremature);
            if (spec.kind == CellKind::Kernel)
                activeCycles[spec.kernel] = double(r.cycles);
        }
    }

    // Fig 9's summary: geometric mean of base / Active-LTP cycles.
    double logSum = 0.0;
    unsigned pairs = 0;
    for (const auto &[kernel, active] : activeCycles) {
        auto it = baseCycles.find(kernel);
        if (it != baseCycles.end() && active > 0) {
            logSum += std::log(it->second / active);
            ++pairs;
        }
    }

    Metrics m;
    m["sim_cycles_per_s"] = ratio(cycles, wall);
    m["sim_cycles_per_cpu_s"] = ratio(cycles, cpu);
    m["setup_s"] = setup;
    m["sim.events"] = events;
    m["sim.ns_per_event"] = ratio(runWall * 1e9, events);
    m["sim.events_per_s"] = ratio(events, runWall);
    m["sim.overflow_migrations"] = migrations;
    m["sim.par.rounds"] = engineRounds;
    m["sim.par.events_per_round"] = ratio(roundEvents, engineRounds);
    m["sim.par.barrier_parks"] = parks;
    m["sim.par.barrier_wait_s"] = waitNs * 1e-9;
    m["sim.par.spilled_posts"] = spills;
    m["net.msgs"] = msgs;
    m["net.hops"] = hops;
    m["net.events_per_msg"] = ratio(doneEvents, msgs);
    m["net.ns_per_msg"] = ratio(doneRunWall * 1e9, msgs);
    m["net.latency_p50_cycles"] = latency ? latency->percentile(0.5) : 0.0;
    m["net.latency_p99_cycles"] = latency ? latency->percentile(0.99) : 0.0;
    m["net.peak_link_util"] = peakUtil;
    m["net.escape_reroutes"] = escapes;
    m["net.delivered_per_node_cycle"] = ratio(msgs, nodeCycles);
    m["proto.dir_requests"] = dirRequests;
    m["proto.dir_queueing_cycles"] = queueing.mean();
    m["proto.dir_service_cycles"] = service.mean();
    m["proto.miss_latency_cycles"] = missLatency.mean();
    m["proto.stale_drops"] = staleDrops;
    m["proto.ns_per_dir_request"] = ratio(dsmRunWall * 1e9, dirRequests);
    m["predictor.invalidations"] = invals;
    m["predictor.accuracy"] = passiveInvals > 0
                                  ? ratio(passivePred, passiveInvals)
                                  : ratio(predicted, invals);
    m["predictor.mispredicted"] = mispredicted;
    m["predictor.self_invs_issued"] = issued;
    m["predictor.timely_ratio"] = ratio(timely, timely + late);
    m["predictor.premature"] = premature;
    m["predictor.ns_per_mem_op"] = ratio(predRunWall * 1e9, predMemOps);
    m["mem.cache_hits"] = hits;
    m["mem.cache_misses"] = misses;
    m["kernel.mem_ops"] = memOps;
    m["dsm.sim_cycles"] = cycles;
    m["dsm.ltp_speedup"] = pairs ? std::exp(logSum / pairs) : 0.0;
    m["dsm.wall_s"] = wall;
    return m;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
medianOf(const std::vector<Metrics> &rounds, const std::string &name)
{
    std::vector<double> v;
    for (const Metrics &m : rounds)
        v.push_back(m.at(name));
    return median(v);
}

double
peakRssMb()
{
    rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** attempted / failed / correct over every round a run made. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::map<std::string, std::string> aborts; //!< cell -> last reason

    void
    add(const Workload &w, const std::vector<CellResult> &cells)
    {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++attempted;
            if (!cells[i].completed) {
                ++failed;
                aborts[w.cells[i].id] = cells[i].abortReason;
            }
            if (!cells[i].error.empty()) {
                if (correct) {
                    std::fprintf(stderr, "ltpbench: check failed: %s: %s\n",
                                 w.cells[i].id.c_str(),
                                 cells[i].error.c_str());
                }
                correct = false;
            }
        }
    }
};

std::vector<CellResult>
runRound(const Workload &w, const std::string &trace_dir)
{
    std::vector<CellResult> out;
    out.reserve(w.cells.size());
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const CellSpec &spec = w.cells[i];
        const CellResult *ref =
            spec.reference >= 0 ? &out[std::size_t(spec.reference)] : nullptr;
        std::string trace = trace_dir.empty()
                                ? std::string()
                                : trace_dir + "/trace-" + std::to_string(i) +
                                      ".json";
        out.push_back(runCell(spec, ref, trace));
    }
    for (CellResult &c : out) {
        c.dumpText.clear();
        c.dumpText.shrink_to_fit();
    }
    return out;
}

/** One JSON row per cell of @p cells (the first round of a run). */
void
writeResults(const Options &opt, const Workload &w,
             const std::vector<CellResult> &cells)
{
    std::FILE *f = std::fopen(opt.results.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write " + opt.results);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &s = w.cells[i];
        const CellResult &c = cells[i];
        char digest[20];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      (unsigned long long)c.digest);
        std::fprintf(
            f,
            "{\"workload\": %s, \"seed\": %llu, \"cell\": %s, "
            "\"shards\": %u, \"completed\": %s, \"abortReason\": %s, "
            "\"error\": %s, \"statsDigest\": \"%s\", \"cycles\": %llu, "
            "\"events\": %llu, \"memOps\": %llu, \"tickBudget\": %llu, "
            "\"eventBudget\": %llu, \"setupS\": %s, \"runS\": %s, "
            "\"dumpS\": %s, \"teardownS\": %s}\n",
            jsonString(w.name).c_str(), (unsigned long long)opt.seed,
            jsonString(s.id).c_str(), s.params.simThreads,
            c.completed ? "true" : "false",
            jsonString(c.abortReason).c_str(), jsonString(c.error).c_str(),
            digest, (unsigned long long)c.result.cycles,
            (unsigned long long)c.result.eventsExecuted,
            (unsigned long long)c.result.memOps,
            (unsigned long long)c.tickBudget,
            (unsigned long long)c.eventBudget,
            jsonNumber(c.construct.wall).c_str(),
            jsonNumber(c.run.wall).c_str(), jsonNumber(c.dump.wall).c_str(),
            jsonNumber(c.teardown.wall).c_str());
    }
    std::fclose(f);
}

/** Human-readable table of one round, on stderr. */
void
printRound(const Workload &w, const std::vector<CellResult> &cells)
{
    std::fprintf(stderr, "%-34s %5s %12s %10s %9s\n", "cell", "done",
                 "cycles", "events", "wall s");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &c = cells[i];
        std::fprintf(stderr, "%-34s %5s %12llu %10llu %9.4f%s%s\n",
                     w.cells[i].id.c_str(), c.completed ? "yes" : "no",
                     (unsigned long long)c.result.cycles,
                     (unsigned long long)c.result.eventsExecuted, c.wall(),
                     c.completed ? "" : "  ",
                     c.completed ? "" : c.abortReason.c_str());
    }
}

/** Stats digest of each cell of a round; 0 for a cell that failed. */
std::vector<std::uint64_t>
digests(const std::vector<CellResult> &cells)
{
    std::vector<std::uint64_t> out;
    for (const CellResult &c : cells)
        out.push_back(c.completed ? c.digest : 0);
    return out;
}

/**
 * Rounds until @p seconds of wall time have passed (at least one).
 * @p first receives the first round's digests.
 */
std::vector<Metrics>
timedRounds(const Options &opt, const Workload &w, Tally &tally,
            std::vector<std::uint64_t> &first)
{
    std::vector<Metrics> rounds;
    double start = wallSeconds();
    do {
        std::vector<CellResult> cells = runRound(w, "");
        tally.add(w, cells);
        if (rounds.empty()) {
            first = digests(cells);
            printRound(w, cells);
            if (!opt.results.empty())
                writeResults(opt, w, cells);
        }
        rounds.push_back(roundMetrics(w, cells));
        const Metrics &m = rounds.back();
        double failedWall = 0.0;
        for (const CellResult &c : cells)
            failedWall += c.completed ? 0.0 : c.wall();
        std::fprintf(stderr,
                     "round %zu: %.3f s (failed cells %.3f s), %.0f cycles/s, "
                     "%.0f cycles/cpu-s\n",
                     rounds.size(), m.at("dsm.wall_s"), failedWall,
                     m.at("sim_cycles_per_s"), m.at("sim_cycles_per_cpu_s"));
    } while (wallSeconds() - start < opt.seconds);
    return rounds;
}

/**
 * One plain and one obs-traced round, both under @p sampler so that
 * their difference is the tracer's alone. Returns the index of the
 * traced round's first sample: those samples give obs.self_s. Every
 * completed cell must dump the same statistics in the plain round, in
 * the traced round and in the first sampled round (@p sampled).
 */
std::size_t
obsRounds(const Options &opt, const Workload &w, CpuSampler &sampler,
          const std::vector<std::uint64_t> &sampled, Tally &tally,
          Metrics &m)
{
    sampler.start(samplePeriodUs);
    std::vector<CellResult> plain = runRound(w, "");
    sampler.stop();
    std::size_t mark = sampler.samples();
    double cpu0 = processCpuSeconds();
    sampler.start(samplePeriodUs);
    std::vector<CellResult> traced = runRound(w, opt.workDir);
    sampler.stop();
    m["obs.cpu_s"] = processCpuSeconds() - cpu0;
    tally.add(w, plain);
    tally.add(w, traced);
    std::vector<std::uint64_t> plainDigests = digests(plain);
    std::vector<std::uint64_t> tracedDigests = digests(traced);
    double plainWall = 0, tracedWall = 0, records = 0, dropped = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        plainWall += plain[i].wall();
        tracedWall += traced[i].wall();
        records += double(traced[i].traceRecords);
        dropped += double(traced[i].traceDropped);
        for (std::uint64_t other : {tracedDigests[i], sampled[i]}) {
            if (plainDigests[i] && other && other != plainDigests[i]) {
                std::fprintf(stderr,
                             "ltpbench: check failed: %s: stats dump under "
                             "tracing differs from the untraced one\n",
                             w.cells[i].id.c_str());
                tally.correct = false;
            }
        }
    }
    m["obs.trace_overhead_s"] = tracedWall - plainWall;
    m["obs.trace_records"] = records;
    m["obs.trace_dropped"] = dropped;
    return mark;
}

void
printMetric(bool &first, const std::string &name, double value,
            const char *unit)
{
    std::printf("%s%s: {\"value\": %s, \"unit\": %s}", first ? "" : ", ",
                jsonString(name).c_str(), jsonNumber(value).c_str(),
                jsonString(unit).c_str());
    first = false;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "ltpbench: %s\n"
                 "usage: ltpbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--results FILE] [--smoke]\n"
                 "       ltpbench --selftest\n",
                 msg);
    return 2;
}

int
run(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool has = i + 1 < argc;
        if (a == "--selftest") {
            opt.selftest = true;
        } else if (a == "--smoke") {
            opt.smoke = true;
        } else if (a == "--workload" && has) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && has) {
            opt.seed = std::stoull(argv[++i]);
        } else if (a == "--seconds" && has) {
            opt.seconds = std::stod(argv[++i]);
        } else if (a == "--trace" && has) {
            opt.trace = std::stoi(argv[++i]);
        } else if (a == "--work-dir" && has) {
            opt.workDir = argv[++i];
        } else if (a == "--results" && has) {
            opt.results = argv[++i];
        } else {
            return usage(("unknown argument '" + a + "'").c_str());
        }
    }
    if (opt.selftest)
        return runSelfTest() == 0 ? 0 : 1;
    if (opt.workload.empty())
        return usage("--workload is required");
    if (opt.trace != 0 && opt.trace != 1)
        return usage("--trace must be 0 or 1");
    Workload w = makeWorkload(opt.workload, opt.seed, opt.smoke);

    Tally tally;
    Metrics m;
    std::vector<Metrics> rounds;
    std::uint64_t samples = 0;
    std::uint64_t samplesDropped = 0;
    double sampledCpu = 0.0;
    std::vector<std::uint64_t> firstDigests;
    if (opt.trace == 0) {
        rounds = timedRounds(opt, w, tally, firstDigests);
        for (const MetricDef &d : endToEndMetrics) {
            if (std::strcmp(d.name, "peak_rss_mb") != 0)
                m[d.name] = medianOf(rounds, d.name);
        }
        m["peak_rss_mb"] = peakRssMb();
    } else {
        CpuSampler sampler(sampleCapacity);
        double cpu0 = processCpuSeconds();
        sampler.start(samplePeriodUs);
        rounds = timedRounds(opt, w, tally, firstDigests);
        sampler.stop();
        sampledCpu = processCpuSeconds() - cpu0;
        std::size_t mark = sampler.samples();
        for (const MetricDef &d : perLayerMetrics) {
            if (std::strncmp(d.name, "obs.", 4) != 0)
                m[d.name] = medianOf(rounds, d.name);
        }
        std::size_t obsMark =
            obsRounds(opt, w, sampler, firstDigests, tally, m);
        samples = sampler.samples();
        samplesDropped = sampler.dropped();
        for (auto [file, from, to] :
             {std::tuple("/samples.txt", std::size_t(0), mark),
              std::tuple("/samples-obs.txt", obsMark,
                         std::size_t(samples))}) {
            std::string path = opt.workDir + file;
            if (!sampler.write(path, from, to))
                throw std::runtime_error("cannot write " + path);
        }
    }

    unsigned shards = 1;
    for (const CellSpec &c : w.cells)
        shards = std::max(shards, c.params.simThreads);
    for (const auto &[cell, reason] : tally.aborts)
        std::fprintf(stderr, "failed: %s: %s\n", cell.c_str(),
                     reason.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                tally.correct ? "true" : "false",
                (unsigned long long)tally.attempted,
                (unsigned long long)tally.failed);
    bool first = true;
    if (opt.trace == 0) {
        for (const MetricDef &d : endToEndMetrics)
            printMetric(first, d.name, m.at(d.name), d.unit);
    } else {
        for (const MetricDef &d : perLayerMetrics)
            printMetric(first, d.name, m.at(d.name), d.unit);
    }
    std::printf("}, \"info\": {\"workload\": %s, \"seed\": %llu, "
                "\"rounds\": %zu, \"cellsPerRound\": %zu, \"shards\": %u, "
                "\"samplePeriodUs\": %u, \"samples\": %llu, "
                "\"samplesDropped\": %llu, \"sampledCpuS\": %s, "
                "\"obsCpuS\": %s}}\n",
                jsonString(w.name).c_str(), (unsigned long long)opt.seed,
                rounds.size(), w.cells.size(), shards,
                opt.trace ? samplePeriodUs : 0u,
                (unsigned long long)samples,
                (unsigned long long)samplesDropped,
                jsonNumber(sampledCpu).c_str(),
                jsonNumber(opt.trace ? m.at("obs.cpu_s") : 0.0).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ltpbench: fatal: %s\n", e.what());
        return 1;
    }
}
