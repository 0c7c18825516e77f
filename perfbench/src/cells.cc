#include "cells.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "checks.hh"
#include "net/topo/routed_network.hh"
#include "oracle_kernel.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace ltpbench
{

using namespace ltp;

namespace
{

double
clockSeconds(clockid_t id)
{
    timespec ts;
    clock_gettime(id, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

} // namespace

double
wallSeconds()
{
    return clockSeconds(CLOCK_MONOTONIC);
}

double
processCpuSeconds()
{
    return clockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

namespace
{

// ---- workloads -------------------------------------------------------------

/**
 * Iteration scale per workload: the paper's default kernel inputs
 * (defaultConfig) with their outer iteration counts (raytrace: its job
 * pool) multiplied by this, so that one round takes about a second on a
 * 4-core x86 host.
 */
constexpr double p2pScale = 0.3;
constexpr double meshScale = 0.2;
constexpr double smokeScale = 0.02;
/** Outer iterations of the value oracle (each: 12 updates per node). */
constexpr unsigned oracleIters = 6;
/** Injection window of a netload cell, in cycles. */
constexpr Tick netloadCycles = 60000;

/** A kernel's default input scaled by @p scale, seeded from @p seed. */
KernelConfig
scaledConfig(const std::string &kernel, unsigned nodes, double scale,
             std::uint64_t seed)
{
    KernelConfig cfg = defaultConfig(kernel);
    cfg.nodes = nodes;
    if (kernel == "raytrace") {
        // One pass over a job pool: scale the pool instead.
        cfg.size = std::max(16u, unsigned(std::lround(cfg.size * scale)));
    } else {
        cfg.iters = std::max(1u, unsigned(std::lround(cfg.iters * scale)));
    }
    cfg.seed = seed;
    return cfg;
}

KernelConfig
oracleConfig(unsigned nodes, bool smoke, std::uint64_t seed)
{
    KernelConfig cfg;
    cfg.nodes = nodes;
    cfg.iters = smoke ? 2 : oracleIters;
    cfg.seed = seed;
    return cfg;
}

SystemParams
mesh64(unsigned shards)
{
    SystemParams p = SystemParams::withTopology(TopologyKind::Mesh2D, 64);
    p.simThreads = shards;
    return p;
}

/** Seed of kernel @p index's inputs under benchmark seed @p seed. */
std::uint64_t
kernelSeed(std::uint64_t seed, std::size_t index)
{
    // Kernels draw from Rng(seed); keep it a modest positive number.
    return 1 + counterHash(seed, index, 0x5EEDull) % 1000000007ull;
}

CellSpec
kernelCell(const std::string &kernel, const std::string &config,
           SystemParams params, KernelConfig cfg)
{
    CellSpec c;
    c.id = kernel + "/" + config;
    c.kind = CellKind::Kernel;
    c.kernel = kernel;
    c.params = params;
    c.cfg = cfg;
    return c;
}

CellSpec
oracleCell(const std::string &config, SystemParams params, KernelConfig cfg)
{
    CellSpec c = kernelCell("value-oracle", config, params, cfg);
    c.kind = CellKind::Oracle;
    return c;
}

/** Base, Active (Fig 9) and Passive (Fig 6) per-block LTP at 32 nodes. */
void
addPaperTriple(Workload &w, const std::string &kernel, bool oracle,
               const KernelConfig &cfg)
{
    auto make = [&](const std::string &config, SystemParams p) {
        return oracle ? oracleCell(config, p, cfg)
                      : kernelCell(kernel, config, p, cfg);
    };
    int base = int(w.cells.size());
    w.cells.push_back(make("p2p-base", SystemParams::base()));
    w.cells.push_back(
        make("p2p-ltp-active",
             SystemParams::withPredictor(PredictorKind::LtpPerBlock,
                                         PredictorMode::Active)));
    CellSpec passive =
        make("p2p-ltp-passive",
             SystemParams::withPredictor(PredictorKind::LtpPerBlock,
                                         PredictorMode::Passive));
    passive.reference = base;
    passive.match = Match::NonPredictor;
    w.cells.push_back(passive);
}

/** One shard as the reference, then the same inputs on four shards. */
void
addShardPair(Workload &w, CellSpec one)
{
    int ref = int(w.cells.size());
    CellSpec four = one;
    one.id += "/t1";
    w.cells.push_back(one);
    four.id += "/t4";
    four.params.simThreads = 4;
    four.reference = ref;
    four.match = Match::Exact;
    four.budgeted = true;
    w.cells.push_back(four);
}

} // namespace

Workload
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    Workload w;
    w.name = name;
    const auto &kernels = allKernelNames();
    if (name == "p2p32-paper") {
        double scale = smoke ? smokeScale : p2pScale;
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            addPaperTriple(w, kernels[k], false,
                           scaledConfig(kernels[k], 32, scale,
                                        kernelSeed(seed, k)));
        }
        addPaperTriple(w, "value-oracle", true,
                       oracleConfig(32, smoke,
                                    kernelSeed(seed, kernels.size())));
    } else if (name == "mesh64-dsm") {
        double scale = smoke ? smokeScale : meshScale;
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            w.cells.push_back(kernelCell(
                kernels[k], "mesh64-t1", mesh64(1),
                scaledConfig(kernels[k], 64, scale, kernelSeed(seed, k))));
        }
        w.cells.push_back(oracleCell(
            "mesh64-t1", mesh64(1),
            oracleConfig(64, smoke, kernelSeed(seed, kernels.size()))));
    } else if (name == "mesh64-dsm-4shard") {
        // Fixed inputs (benchmark seed 1): the 4-shard cells fail on the
        // packed NiInterconnect::ingressBusy_ race, and a failing
        // operation is only kept on inputs that do not depend on the
        // seed. The seed rotates the order of the kernels instead.
        double scale = smoke ? smokeScale : meshScale;
        std::size_t rot = std::size_t(seed % kernels.size());
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            std::size_t k = (i + rot) % kernels.size();
            addShardPair(w, kernelCell(kernels[k], "mesh64", mesh64(1),
                                       scaledConfig(kernels[k], 64, scale,
                                                    kernelSeed(1, k))));
        }
        addShardPair(w, oracleCell(
                            "mesh64", mesh64(1),
                            oracleConfig(64, smoke,
                                         kernelSeed(1, kernels.size()))));
    } else if (name == "mesh64-netload") {
        // Offered loads at about half of each configuration's saturation
        // point for this traffic on the 8x8 mesh with 8-slot VCs, from
        // bench_net_synthetic's sweep (perfbench/README.md): DOR ~0.022
        // uniform, ~0.006 hotspot; adaptive ~0.040 / ~0.019.
        struct Mix
        {
            const char *id;
            RoutingPolicy routing;
            bool hotspot;
            double rate;
        };
        const Mix mixes[] = {
            {"dor-uniform", RoutingPolicy::DimensionOrder, false, 0.010},
            {"dor-hotspot", RoutingPolicy::DimensionOrder, true, 0.003},
            {"adaptive-uniform", RoutingPolicy::MinimalAdaptive, false,
             0.020},
            {"adaptive-hotspot", RoutingPolicy::MinimalAdaptive, true,
             0.010},
        };
        for (std::size_t i = 0; i < std::size(mixes); ++i) {
            CellSpec c;
            c.id = std::string("netload/") + mixes[i].id;
            c.kind = CellKind::Netload;
            c.params = mesh64(1);
            c.params.net.routing = mixes[i].routing;
            c.params.net.vcDepth = 8;
            c.net.hotspot = mixes[i].hotspot;
            c.net.rate = mixes[i].rate;
            c.net.cycles = smoke ? netloadCycles / 20 : netloadCycles;
            c.net.seed = counterHash(seed, i, 0x10ADull);
            w.cells.push_back(c);
        }
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

namespace
{

/** Times one span into @p out (wall and whole-process CPU). */
class Span
{
  public:
    explicit Span(SpanTime &out)
        : out_(out), wall0_(wallSeconds()), cpu0_(processCpuSeconds())
    {
    }
    ~Span()
    {
        out_.wall = wallSeconds() - wall0_;
        out_.cpu = processCpuSeconds() - cpu0_;
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanTime &out_;
    double wall0_;
    double cpu0_;
};

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Record the canonical dump and the statistics the metrics need. */
void
captureStats(StatGroup &stats, CellResult &out)
{
    {
        Span s(out.dump);
        std::ostringstream os;
        stats.dump(os);
        out.dumpText = os.str();
    }
    out.digest = fnv1a(out.dumpText);
    out.stats = stats.snapshot();
    if (const Histogram *h = stats.findHistogram("net.endToEndLatency"))
        out.latency = *h;
    out.peakLinkBusy = stats.maxCounterValueWithPrefix("net.linkBusy.");
}

/** Per-shard trace record cap; the tracer counts what it drops. */
constexpr std::size_t traceCapPerShard = std::size_t(1) << 15;

/** Count the records of a Chrome-trace file, then remove it. */
void
consumeTrace(const std::string &path, CellResult &out)
{
    std::ifstream in(path);
    std::string line;
    if (std::getline(in, line)) {
        auto at = line.find("\"dropped\":");
        if (at != std::string::npos)
            out.traceDropped = std::stoull(line.substr(at + 10));
    }
    while (std::getline(in, line)) {
        if (line.rfind("{\"ph\":\"X\"", 0) == 0 ||
            line.rfind("{\"ph\":\"i\"", 0) == 0)
            ++out.traceRecords;
    }
    in.close();
    std::remove(path.c_str());
}

// ---- DSM cells -------------------------------------------------------------

void
checkDsm(const CellSpec &spec, const CellResult *ref, CellResult &out)
{
    const RunResult &r = out.result;
    std::string err = checkHitsMisses(out.counter("cache.hits"),
                                      out.counter("cache.misses"),
                                      r.memOps);
    if (err.empty())
        err = checkPredictionAccounting(r.predicted, r.notPredicted,
                                        r.invalidations);
    if (err.empty() && spec.params.mode == PredictorMode::Active)
        err = checkSelfInvAccounting(r.selfInvsIssued,
                                     r.selfInvTimelyCorrect,
                                     r.selfInvLateCorrect,
                                     r.selfInvPremature);
    if (err.empty() && spec.match != Match::None) {
        if (!ref || !ref->completed)
            err = "reference cell did not complete";
        else if (spec.match == Match::NonPredictor)
            err = checkPassiveMatchesBase(r.cycles, out.dumpText,
                                          ref->result.cycles, ref->dumpText);
        else
            err = checkSameDump(out.dumpText, ref->dumpText);
    }
    if (!err.empty() && out.error.empty())
        out.error = err;
}

CellResult
runDsm(const CellSpec &spec, const CellResult *ref,
       const std::string &trace_file)
{
    CellResult out;
    SystemParams params = spec.params;
    out.nodes = params.numNodes;
    if (spec.budgeted && ref) {
        // Budgets from the same inputs' 1-shard run: a sharded run that
        // matches it ends at exactly its tick and event count.
        out.tickBudget = ref->result.cycles + ref->result.cycles / 4 + 1000;
        out.eventBudget =
            ref->result.eventsExecuted + ref->result.eventsExecuted / 4 +
            1000;
        params.maxTicks = out.tickBudget;
        params.guard.maxEvents = out.eventBudget;
        params.guard.barrierStallMs = 5000;
        params.guard.maxWallMs = std::max<std::uint64_t>(
            10000, std::uint64_t(ref->run.wall * 30000.0));
    }
    if (!trace_file.empty()) {
        params.obs.traceFile = trace_file;
        params.obs.traceEventCapPerShard = traceCapPerShard;
    }

    std::unique_ptr<KernelBase> kernel;
    OracleKernel *oracle = nullptr;
    std::unique_ptr<DsmSystem> sys;
    {
        Span s(out.construct);
        if (spec.kind == CellKind::Oracle) {
            auto k = std::make_unique<OracleKernel>();
            oracle = k.get();
            kernel = std::move(k);
        } else {
            kernel = makeKernel(spec.kernel);
        }
        sys = std::make_unique<DsmSystem>(params);
    }
    {
        Span s(out.run);
        out.result = sys->run(*kernel, spec.cfg);
    }
    captureStats(sys->stats(), out);
    std::vector<std::uint64_t> observed;
    if (oracle)
        observed = oracle->observed(sys->memory());
    {
        Span s(out.teardown);
        sys.reset();
    }

    out.completed = out.result.completed;
    out.abortReason = out.result.abortReason;
    if (out.completed) {
        checkDsm(spec, ref, out);
        if (oracle && out.error.empty())
            out.error = checkCounters(observed, oracle->expected());
    }
    if (!trace_file.empty())
        consumeTrace(trace_file, out);
    return out;
}

// ---- network-only cells ----------------------------------------------------

/** Open-loop traffic on a standalone RoutedNetwork. */
class NetloadRun
{
  public:
    NetloadRun(const CellSpec &spec)
        : spec_(spec),
          net_(eq_, spec.params.numNodes, spec.params.net, stats_),
          checker_(spec.params.numNodes)
    {
        const TopologyGeometry &g = net_.geometry();
        hotspot_ = g.idOf(Coord{g.width() / 2, g.height() / 2});
        NodeId n = spec.params.numNodes;
        for (NodeId node = 0; node < n; ++node) {
            rngs_.emplace_back(counterHash(spec.net.seed, node));
            net_.setSink(node,
                         [this](const Message &m) { deliver(m); });
        }
        for (NodeId src = 0; src < n; ++src)
            arm(src, gap(src));
    }

    void run() { eq_.run(); }

    EventQueue &queue() { return eq_; }
    StatGroup &stats() { return stats_; }
    DeliveryChecker &checker() { return checker_; }
    Tick lastDelivery() const { return lastDelivery_; }

  private:
    /** Geometric inter-arrival gap (>= 1) at the offered rate. */
    Tick
    gap(NodeId src)
    {
        double u = rngs_[src].uniform();
        return Tick(1 + std::floor(std::log1p(-u) /
                                   std::log1p(-spec_.net.rate)));
    }

    void
    arm(NodeId src, Tick at)
    {
        if (at >= spec_.net.cycles)
            return;
        eq_.scheduleAt(at, [this, src, at] {
            inject(src);
            arm(src, at + gap(src));
        });
    }

    void
    inject(NodeId src)
    {
        Rng &rng = rngs_[src];
        NodeId n = spec_.params.numNodes;
        NodeId dst = spec_.net.hotspot && rng.below(5) == 0
                         ? hotspot_
                         : NodeId(rng.below(n));
        if (dst == src)
            return;
        // Header-only requests, as bench_net_synthetic sends, so that its
        // saturation sweep applies to this traffic as it stands.
        Message m;
        m.type = MsgType::GetS;
        m.src = src;
        m.dst = dst;
        m.requester = src;
        m.addr = checker_.nextSend(src, dst);
        net_.send(m);
    }

    void
    deliver(const Message &m)
    {
        const TopologyGeometry &g = net_.geometry();
        Coord a = g.coordOf(m.src);
        Coord b = g.coordOf(m.dst);
        Tick hops = Tick(std::abs(int(a.x) - int(b.x)) +
                         std::abs(int(a.y) - int(b.y)));
        const NetworkParams &p = spec_.params.net;
        Tick per_hop = p.hopLatency + p.routerLatency +
                       net_.serializationTicks(m);
        checker_.onDeliver(m.src, m.dst, std::uint32_t(m.addr),
                           eq_.now() - m.injectedAt, hops * per_hop);
        lastDelivery_ = eq_.now();
    }

    const CellSpec &spec_;
    EventQueue eq_;
    StatGroup stats_;
    RoutedNetwork net_;
    DeliveryChecker checker_;
    std::vector<Rng> rngs_;
    NodeId hotspot_ = 0;
    Tick lastDelivery_ = 0;
};

CellResult
runNetload(const CellSpec &spec)
{
    CellResult out;
    out.nodes = spec.params.numNodes;
    std::unique_ptr<NetloadRun> run;
    {
        Span s(out.construct);
        run = std::make_unique<NetloadRun>(spec);
    }
    {
        Span s(out.run);
        run->run();
    }
    captureStats(run->stats(), out);
    // EventQueue::run() returns only once the queue has drained.
    RunResult &r = out.result;
    r.completed = true;
    r.cycles = run->queue().now();
    r.eventsExecuted = run->queue().eventsExecuted();
    r.netMsgs = out.counter("net.msgs");
    out.completed = true;
    out.error = run->checker().finish();
    // Below saturation the network drains within a few unloaded
    // crossings of its diameter once injection stops; a backlog that
    // grew during the window takes far longer.
    const NetworkParams &np = spec.params.net;
    const TopologyGeometry g(np.topology, spec.params.numNodes,
                             np.meshWidth);
    Tick diameter = g.width() + g.height() - 2;
    Tick header_hop = np.hopLatency + np.routerLatency +
                     (np.headerBytes + np.linkBandwidth - 1) /
                         np.linkBandwidth;
    Tick drain = run->lastDelivery() > spec.net.cycles
                     ? run->lastDelivery() - spec.net.cycles
                     : 0;
    if (out.error.empty() && drain > 4 * diameter * header_hop) {
        out.error = "backlog: traffic drained " + std::to_string(drain) +
                    " cycles after injection stopped";
    }
    if (out.error.empty() && r.netMsgs != run->checker().sent()) {
        out.error = "net.msgs " + std::to_string(r.netMsgs) + " != " +
                    std::to_string(run->checker().sent()) + " sent";
    }
    {
        Span s(out.teardown);
        run.reset();
    }
    return out;
}

} // namespace

std::uint64_t
CellResult::counter(const std::string &name) const
{
    auto it = stats.counters.find(name);
    return it == stats.counters.end() ? 0 : it->second;
}

CellResult
runCell(const CellSpec &spec, const CellResult *reference,
        const std::string &trace_file)
{
    if (spec.kind == CellKind::Netload)
        return runNetload(spec);
    return runDsm(spec, reference, trace_file);
}

} // namespace ltpbench
