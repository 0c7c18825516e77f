/**
 * @file
 * The value-oracle kernel: the benchmark's own workload kernel, written
 * against the public KernelBase / ThreadCtx API.
 *
 * Every node adds seeded deltas to a set of shared counters, half of
 * them through a lock-protected load/store read-modify-write and half
 * through fetchAdd. The final words in MemoryValues must equal the sums
 * the host computes from the same seeds.
 *
 * What this covers: every access's completion is applied to the value
 * store exactly once (one applied twice shows as a wrong sum; one never
 * applied leaves its thread waiting, so the cell does not complete), and
 * the striped value store stays consistent when shards update it
 * concurrently. What it does not cover is the coherence protocol itself:
 * MemoryValues is one word store shared by all nodes, each access takes
 * effect on it when its completion callback runs, and no value travels
 * through the protocol's messages. The lock is a test-and-set on that
 * same store, so it serialises the read-modify-writes whatever the
 * protocol does. Protocol faults show in the structural checks instead.
 */

#ifndef LTPBENCH_ORACLE_KERNEL_HH
#define LTPBENCH_ORACLE_KERNEL_HH

#include <cstdint>
#include <vector>

#include "kernel/kernels.hh"

namespace ltpbench
{

class OracleKernel : public ltp::KernelBase
{
  public:
    /** Counters of each kind (lock-protected and fetchAdd). */
    static constexpr unsigned countersPerKind = 8;
    /** Counter updates per node per iteration. */
    static constexpr unsigned opsPerIter = 12;

    std::string name() const override { return "value-oracle"; }

    void setup(ltp::AddressSpace &as, ltp::MemoryValues &mem,
               const ltp::KernelConfig &cfg) override;

    ltp::Task<void> run(ltp::ThreadCtx &ctx) override;

    /** The words the run left in simulated memory, counter order. */
    std::vector<std::uint64_t> observed(const ltp::MemoryValues &mem) const;

    /** The same sums, computed on the host from the kernel's seeds. */
    std::vector<std::uint64_t> expected() const;

  private:
    /** Counter index and delta of one update (pure function of seeds). */
    struct Update
    {
        unsigned counter; //!< [0, 2 * countersPerKind)
        std::uint64_t delta;
    };
    Update update(ltp::NodeId node, unsigned iter, unsigned op) const;

    std::vector<ltp::Addr> counters_;
    std::vector<ltp::Addr> locks_;
};

} // namespace ltpbench

#endif // LTPBENCH_ORACLE_KERNEL_HH
