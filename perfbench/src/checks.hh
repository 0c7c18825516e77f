/**
 * @file
 * The benchmark's output checks. Each one compares a cell's outputs
 * against a property of the method or an independent computation — never
 * against a stored copy — and returns an empty string when the property
 * holds, or a one-line description of the violation.
 *
 * They are free functions over plain values so that the self-test
 * (selftest.cc) can feed each one a doctored input and prove it fires.
 */

#ifndef LTPBENCH_CHECKS_HH
#define LTPBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace ltpbench
{

using ltp::NodeId;
using ltp::Tick;

/** Every memory operation is either a cache hit or a cache miss. */
std::string checkHitsMisses(std::uint64_t hits, std::uint64_t misses,
                            std::uint64_t mem_ops);

/** Every invalidation is classified as predicted or not predicted. */
std::string checkPredictionAccounting(std::uint64_t predicted,
                                      std::uint64_t not_predicted,
                                      std::uint64_t invalidations);

/** Active LTP: a verified self-invalidation was issued before. */
std::string checkSelfInvAccounting(std::uint64_t issued,
                                   std::uint64_t timely,
                                   std::uint64_t late,
                                   std::uint64_t premature);

/**
 * A Passive predictor only observes: the run must match the base run of
 * the same kernel in cycles and in every statistic outside `pred.*`.
 */
std::string checkPassiveMatchesBase(Tick passive_cycles,
                                    const std::string &passive_dump,
                                    Tick base_cycles,
                                    const std::string &base_dump);

/** Sharded runs must dump byte-identical statistics. */
std::string checkSameDump(const std::string &dump,
                          const std::string &reference_dump);

/** Value oracle: observed counter words equal the host-computed sums. */
std::string checkCounters(const std::vector<std::uint64_t> &observed,
                          const std::vector<std::uint64_t> &expected);

/**
 * Network delivery: each (src, dst) pair's messages carry sequence
 * numbers 0, 1, 2, ... in send order; every one must arrive exactly
 * once, in that order, and no sooner than its minimum flight time.
 */
class DeliveryChecker
{
  public:
    explicit DeliveryChecker(NodeId nodes = 0);

    /** Sequence number of the next message @p src sends to @p dst. */
    std::uint32_t nextSend(NodeId src, NodeId dst);

    /** A message arrived after @p latency cycles (minimum @p min). */
    void onDeliver(NodeId src, NodeId dst, std::uint32_t seq, Tick latency,
                   Tick min_latency);

    /** Empty once every sent message arrived once, in order, in time. */
    std::string finish() const;

    std::uint64_t sent() const { return sent_; }

  private:
    void fail(const std::string &what);

    NodeId nodes_;
    std::vector<std::uint32_t> sendSeq_;
    std::vector<std::uint32_t> recvSeq_;
    std::uint64_t sent_ = 0;
    std::uint64_t delivered_ = 0;
    std::string error_;
};

/** Run every check on doctored inputs; returns the number that failed
 *  to fire (0 = all good) and prints one line per check. */
int runSelfTest();

} // namespace ltpbench

#endif // LTPBENCH_CHECKS_HH
