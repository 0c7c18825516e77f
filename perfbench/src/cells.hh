/**
 * @file
 * Cells — the benchmark's operations — and the workloads made of them.
 *
 * A cell is one simulated system built and run to its end (a DSM kernel
 * or the value oracle on a DsmSystem), or one network-only open-loop
 * traffic run on a RoutedNetwork. A workload is a fixed list of cells,
 * a "round"; a timed run repeats whole rounds.
 */

#ifndef LTPBENCH_CELLS_HH
#define LTPBENCH_CELLS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dsm/system.hh"
#include "sim/stats.hh"

namespace ltpbench
{

enum class CellKind
{
    Kernel,  //!< one of the paper's nine kernels on a DsmSystem
    Oracle,  //!< the value-oracle kernel on a DsmSystem
    Netload, //!< open-loop synthetic traffic on a RoutedNetwork
};

/** What a cell's statistics must equal in its reference cell's. */
enum class Match
{
    None,
    NonPredictor, //!< cycles and every statistic outside pred.*
    Exact,        //!< the whole dump, byte for byte
};

/** Traffic of a network-only cell (the network is params.net). */
struct NetloadSpec
{
    bool hotspot = false;   //!< 20% of messages target the center node
    double rate = 0.01;     //!< offered msgs per node per cycle
    ltp::Tick cycles = 0;   //!< injection window
    std::uint64_t seed = 1;
};

struct CellSpec
{
    std::string id; //!< "<kernel>/<config>", unique within a workload
    CellKind kind = CellKind::Kernel;
    std::string kernel;
    ltp::SystemParams params;
    ltp::KernelConfig cfg;
    NetloadSpec net;
    /** Earlier cell of the round this one is checked against (-1: none). */
    int reference = -1;
    Match match = Match::None;
    /** Run under tick and event budgets derived from the reference. */
    bool budgeted = false;
};

struct Workload
{
    std::string name;
    std::vector<CellSpec> cells;
};

/**
 * The cells of workload @p name for benchmark seed @p seed. @p smoke
 * shrinks every input so that a round takes a fraction of a second.
 * Throws std::invalid_argument on an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      bool smoke);

/** Monotonic wall-clock seconds. */
double wallSeconds();
/** CPU seconds of the whole process, all threads included. */
double processCpuSeconds();

/** Host time of one span, wall and process CPU. */
struct SpanTime
{
    double wall = 0.0;
    double cpu = 0.0;
};

/** Everything a cell produced. */
struct CellResult
{
    bool completed = false;
    std::string abortReason; //!< why a cell did not complete
    std::string error;       //!< a violated output check
    /** Budgets the cell ran under (0: none). */
    ltp::Tick tickBudget = 0;
    std::uint64_t eventBudget = 0;

    SpanTime construct; //!< build the system and its kernel
    SpanTime run;       //!< run to the end
    SpanTime dump;      //!< canonical stats dump
    SpanTime teardown;  //!< destroy the system

    ltp::RunResult result;
    ltp::NodeId nodes = 0;
    ltp::StatSnapshot stats;
    std::optional<ltp::Histogram> latency; //!< net.endToEndLatency
    std::uint64_t peakLinkBusy = 0;
    std::string dumpText;
    std::uint64_t digest = 0; //!< FNV-1a of dumpText

    std::uint64_t traceRecords = 0;
    std::uint64_t traceDropped = 0;

    double wall() const
    {
        return construct.wall + run.wall + dump.wall + teardown.wall;
    }
    double cpu() const
    {
        return construct.cpu + run.cpu + dump.cpu + teardown.cpu;
    }
    std::uint64_t counter(const std::string &name) const;
};

/**
 * Run @p spec. @p reference is the result of spec.reference in the same
 * round (nullptr when it has none). A non-empty @p trace_file arms the
 * obs tracer for the run and is removed after its records are counted.
 */
CellResult runCell(const CellSpec &spec, const CellResult *reference,
                   const std::string &trace_file);

} // namespace ltpbench

#endif // LTPBENCH_CELLS_HH
