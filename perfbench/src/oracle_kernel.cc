#include "oracle_kernel.hh"

#include "kernel/sync.hh"
#include "sim/rng.hh"

namespace ltpbench
{

using namespace ltp;

namespace
{

constexpr LockPcs lockPcs{0x9000, 0x9004, 0x9008};
constexpr Pc pcLoad = 0x9010;
constexpr Pc pcStore = 0x9014;
constexpr Pc pcFetchAdd = 0x9018;

} // namespace

void
OracleKernel::setup(AddressSpace &as, MemoryValues &mem,
                    const KernelConfig &cfg)
{
    cfg_ = cfg;
    // One block per counter and per lock, striped over the homes so the
    // traffic reaches every directory.
    Addr cbase = as.allocStriped("oracle.counters", 2 * countersPerKind);
    Addr lbase = as.allocStriped("oracle.locks", countersPerKind);
    counters_.clear();
    locks_.clear();
    for (unsigned c = 0; c < 2 * countersPerKind; ++c) {
        counters_.push_back(as.stripedBlock(cbase, c));
        mem.store(counters_.back(), 0);
    }
    for (unsigned c = 0; c < countersPerKind; ++c) {
        locks_.push_back(as.stripedBlock(lbase, c));
        mem.store(locks_.back(), 0);
    }
}

OracleKernel::Update
OracleKernel::update(NodeId node, unsigned iter, unsigned op) const
{
    std::uint64_t h = counterHash(cfg_.seed, node, iter, op, 0x0AC1E);
    return Update{unsigned(h % (2 * countersPerKind)), 1 + (h >> 40) % 997};
}

Task<void>
OracleKernel::run(ThreadCtx &ctx)
{
    for (unsigned it = 0; it < cfg_.iters; ++it) {
        for (unsigned op = 0; op < opsPerIter; ++op) {
            Update u = update(ctx.id(), it, op);
            Addr word = counters_[u.counter];
            if (u.counter < countersPerKind) {
                Addr lock = locks_[u.counter];
                co_await acquireLock(ctx, lock, lockPcs);
                std::uint64_t v = co_await ctx.load(pcLoad, word);
                co_await ctx.compute(10);
                co_await ctx.store(pcStore, word, v + u.delta);
                co_await releaseLock(ctx, lock, lockPcs);
            } else {
                co_await ctx.fetchAdd(pcFetchAdd, word, u.delta);
            }
            co_await ctx.compute(40 + ctx.rng().below(80));
        }
        co_await barrier(ctx);
    }
}

std::vector<std::uint64_t>
OracleKernel::observed(const MemoryValues &mem) const
{
    std::vector<std::uint64_t> out;
    for (Addr a : counters_)
        out.push_back(mem.load(a));
    return out;
}

std::vector<std::uint64_t>
OracleKernel::expected() const
{
    std::vector<std::uint64_t> sums(2 * countersPerKind, 0);
    for (NodeId n = 0; n < cfg_.nodes; ++n) {
        for (unsigned it = 0; it < cfg_.iters; ++it) {
            for (unsigned op = 0; op < opsPerIter; ++op) {
                Update u = update(n, it, op);
                sums[u.counter] += u.delta;
            }
        }
    }
    return sums;
}

} // namespace ltpbench
