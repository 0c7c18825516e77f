/**
 * @file
 * Self-test of the benchmark's checks: each must pass on a real,
 * untouched output and fire on a doctored copy of it.
 */

#include <cstdio>
#include <functional>
#include <string>

#include "cells.hh"
#include "checks.hh"

namespace ltpbench
{

namespace
{

/** Counts checks that did not behave. */
struct Expect
{
    int bad = 0;

    void
    holds(const char *what, const std::string &err)
    {
        std::printf("%-52s %s\n", what, err.empty() ? "ok" : "UNEXPECTED");
        if (!err.empty()) {
            std::printf("    %s\n", err.c_str());
            ++bad;
        }
    }

    void
    fires(const char *what, const std::string &err)
    {
        std::printf("%-52s %s\n", what, err.empty() ? "MISSED" : "fires");
        if (err.empty())
            ++bad;
        else
            std::printf("    %s\n", err.c_str());
    }
};

/** Replay a delivery order through a fresh DeliveryChecker. */
std::string
replay(const std::vector<std::uint32_t> &order, Tick latency = 100)
{
    DeliveryChecker chk(4);
    for (int i = 0; i < 3; ++i)
        chk.nextSend(1, 3);
    for (std::uint32_t seq : order)
        chk.onDeliver(1, 3, seq, latency, 80);
    return chk.finish();
}

/** Change the value on the dump line that starts with @p name. */
std::string
doctor(const std::string &dump, const std::string &name)
{
    std::size_t at = dump.find("\n" + name + " ");
    if (at == std::string::npos)
        return dump + name + " 1\n";
    std::size_t end = dump.find('\n', at + 1);
    return dump.substr(0, end) + "1" + dump.substr(end);
}

} // namespace

int
runSelfTest()
{
    Expect e;

    // A real base / Active / Passive triple, shrunk to the smoke inputs.
    Workload w = makeWorkload("p2p32-paper", 1, true);
    CellResult base = runCell(w.cells[0], nullptr, "");
    CellResult active = runCell(w.cells[1], nullptr, "");
    CellResult passive = runCell(w.cells[2], &base, "");
    e.holds("real cells complete and pass every check",
            base.completed && active.completed && passive.completed
                ? base.error + active.error + passive.error
                : "a smoke cell did not complete");

    std::uint64_t hits = base.counter("cache.hits");
    std::uint64_t misses = base.counter("cache.misses");
    std::uint64_t ops = base.result.memOps;
    e.holds("hits + misses == memOps", checkHitsMisses(hits, misses, ops));
    e.fires("hits + misses off by one",
            checkHitsMisses(hits + 1, misses, ops));

    const ltp::RunResult &p = passive.result;
    e.fires("predicted + notPredicted off by one",
            checkPredictionAccounting(p.predicted, p.notPredicted + 1,
                                      p.invalidations));
    const ltp::RunResult &a = active.result;
    std::uint64_t verified =
        a.selfInvTimelyCorrect + a.selfInvLateCorrect + a.selfInvPremature;
    e.holds("self-invalidations issued >= verified",
            checkSelfInvAccounting(a.selfInvsIssued, a.selfInvTimelyCorrect,
                                   a.selfInvLateCorrect,
                                   a.selfInvPremature));
    e.fires("more verified self-invalidations than issued",
            checkSelfInvAccounting(verified - 1, a.selfInvTimelyCorrect,
                                   a.selfInvLateCorrect,
                                   a.selfInvPremature));

    e.holds("passive matches base",
            checkPassiveMatchesBase(p.cycles, passive.dumpText,
                                    base.result.cycles, base.dumpText));
    e.holds("passive differs from base only in pred.*",
            checkPassiveMatchesBase(p.cycles,
                                    doctor(passive.dumpText, "pred.predicted"),
                                    base.result.cycles, base.dumpText));
    e.fires("passive cycles shifted by one",
            checkPassiveMatchesBase(p.cycles + 1, passive.dumpText,
                                    base.result.cycles, base.dumpText));
    e.fires("passive non-predictor statistic changed",
            checkPassiveMatchesBase(p.cycles,
                                    doctor(passive.dumpText, "dir.requests"),
                                    base.result.cycles, base.dumpText));

    e.holds("shard dump equals the 1-shard dump",
            checkSameDump(base.dumpText, base.dumpText));
    e.fires("shard dump differs from the 1-shard dump",
            checkSameDump(doctor(base.dumpText, "net.msgs"), base.dumpText));

    e.holds("oracle sums match", checkCounters({5, 7}, {5, 7}));
    e.fires("oracle counter off by one", checkCounters({5, 8}, {5, 7}));

    e.holds("messages delivered once, in order", replay({0, 1, 2}));
    e.fires("a dropped message", replay({0, 2}));
    e.fires("a lost last message", replay({0, 1}));
    e.fires("a duplicated message", replay({0, 1, 1, 2}));
    e.fires("a reordered pair", replay({1, 0, 2}));
    e.fires("a message faster than its minimum flight time",
            replay({0, 1, 2}, 79));

    std::printf("%s\n", e.bad ? "SELF-TEST FAILED" : "self-test passed");
    return e.bad;
}

} // namespace ltpbench
