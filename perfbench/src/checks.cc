#include "checks.hh"

#include <sstream>

namespace ltpbench
{

namespace
{

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

/** The dump's lines outside the `pred.*` namespace. */
std::vector<std::string>
nonPredictorLines(const std::string &dump)
{
    std::vector<std::string> out;
    std::istringstream in(dump);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("pred.", 0) != 0)
            out.push_back(line);
    }
    return out;
}

} // namespace

std::string
checkHitsMisses(std::uint64_t hits, std::uint64_t misses,
                std::uint64_t mem_ops)
{
    if (hits + misses == mem_ops)
        return {};
    return "cache.hits + cache.misses = " + num(hits) + " + " +
           num(misses) + " != memOps " + num(mem_ops);
}

std::string
checkPredictionAccounting(std::uint64_t predicted,
                          std::uint64_t not_predicted,
                          std::uint64_t invalidations)
{
    if (predicted + not_predicted == invalidations)
        return {};
    return "predicted + notPredicted = " + num(predicted) + " + " +
           num(not_predicted) + " != invalidations " + num(invalidations);
}

std::string
checkSelfInvAccounting(std::uint64_t issued, std::uint64_t timely,
                       std::uint64_t late, std::uint64_t premature)
{
    if (issued >= timely + late + premature)
        return {};
    return "self-invalidations issued " + num(issued) +
           " < timely + late + premature = " +
           num(timely + late + premature);
}

std::string
checkPassiveMatchesBase(Tick passive_cycles,
                        const std::string &passive_dump, Tick base_cycles,
                        const std::string &base_dump)
{
    if (passive_cycles != base_cycles) {
        return "passive run took " + num(passive_cycles) +
               " cycles, base run " + num(base_cycles);
    }
    std::vector<std::string> p = nonPredictorLines(passive_dump);
    std::vector<std::string> b = nonPredictorLines(base_dump);
    for (std::size_t i = 0; i < p.size() || i < b.size(); ++i) {
        std::string pl = i < p.size() ? p[i] : "<end>";
        std::string bl = i < b.size() ? b[i] : "<end>";
        if (pl != bl)
            return "passive stat '" + pl + "' vs base '" + bl + "'";
    }
    return {};
}

std::string
checkSameDump(const std::string &dump, const std::string &reference_dump)
{
    if (dump == reference_dump)
        return {};
    std::istringstream a(dump);
    std::istringstream b(reference_dump);
    std::string la;
    std::string lb;
    for (unsigned line = 1;; ++line) {
        bool ha = bool(std::getline(a, la));
        bool hb = bool(std::getline(b, lb));
        if (!ha)
            la = "<end>";
        if (!hb)
            lb = "<end>";
        if (la != lb) {
            return "dump line " + std::to_string(line) + ": '" + la +
                   "' vs reference '" + lb + "'";
        }
        if (!ha && !hb)
            return "dumps differ";
    }
}

std::string
checkCounters(const std::vector<std::uint64_t> &observed,
              const std::vector<std::uint64_t> &expected)
{
    if (observed.size() != expected.size()) {
        return "oracle read " + num(observed.size()) + " counters, expected " +
               num(expected.size());
    }
    for (std::size_t i = 0; i < observed.size(); ++i) {
        if (observed[i] != expected[i]) {
            return "oracle counter " + num(i) + " holds " +
                   num(observed[i]) + ", host sum is " + num(expected[i]);
        }
    }
    return {};
}

DeliveryChecker::DeliveryChecker(NodeId nodes)
    : nodes_(nodes),
      sendSeq_(std::size_t(nodes) * nodes, 0),
      recvSeq_(std::size_t(nodes) * nodes, 0)
{
}

std::uint32_t
DeliveryChecker::nextSend(NodeId src, NodeId dst)
{
    ++sent_;
    return sendSeq_[std::size_t(src) * nodes_ + dst]++;
}

void
DeliveryChecker::fail(const std::string &what)
{
    if (error_.empty())
        error_ = what;
}

void
DeliveryChecker::onDeliver(NodeId src, NodeId dst, std::uint32_t seq,
                           Tick latency, Tick min_latency)
{
    ++delivered_;
    if (src >= nodes_ || dst >= nodes_) {
        fail("message to or from unknown node " + num(src) + "->" +
             num(dst));
        return;
    }
    std::size_t pair = std::size_t(src) * nodes_ + dst;
    std::string where = num(src) + "->" + num(dst) + " #" + num(seq);
    if (seq >= sendSeq_[pair])
        fail("message " + where + " was never sent");
    else if (seq < recvSeq_[pair])
        fail("message " + where + " delivered twice or out of order");
    else if (seq > recvSeq_[pair])
        fail("message " + where + " overtook #" + num(recvSeq_[pair]));
    recvSeq_[pair] = seq + 1;
    if (latency < min_latency) {
        fail("message " + where + " arrived after " + num(latency) +
             " cycles, below its " + num(min_latency) + "-cycle minimum");
    }
}

std::string
DeliveryChecker::finish() const
{
    if (!error_.empty())
        return error_;
    for (std::size_t pair = 0; pair < sendSeq_.size(); ++pair) {
        if (recvSeq_[pair] != sendSeq_[pair]) {
            return "pair " + num(pair / nodes_) + "->" + num(pair % nodes_) +
                   ": " + num(sendSeq_[pair]) + " sent, " +
                   num(recvSeq_[pair]) + " delivered";
        }
    }
    if (delivered_ != sent_)
        return num(sent_) + " sent, " + num(delivered_) + " delivered";
    return {};
}

} // namespace ltpbench
