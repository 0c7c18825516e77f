/**
 * @file
 * In-process CPU-time sampler for the traced run.
 *
 * A process-wide ITIMER_PROF timer raises SIGPROF once per `period` of
 * CPU time consumed by any thread of the process; the handler records
 * the interrupted thread's call stack into a preallocated buffer. After
 * the run the stacks are written out as offsets into the executable,
 * and run.py maps each one through the DWARF line tables (inlined
 * frames included) to the src/ module of its innermost repository frame.
 *
 * The kernel checks CPU timers on its scheduler tick, so the real rate
 * can be lower than 1/period: scale sample shares by the CPU time
 * measured over the sampled interval, not by the period.
 *
 * One sampler per process; start() and stop() run on the main thread.
 */

#ifndef LTPBENCH_SAMPLER_HH
#define LTPBENCH_SAMPLER_HH

#include <cstdint>
#include <string>

namespace ltpbench
{

class CpuSampler
{
  public:
    /** Frames kept per sample (innermost first). */
    static constexpr unsigned maxDepth = 48;

    explicit CpuSampler(std::size_t capacity);
    ~CpuSampler();

    CpuSampler(const CpuSampler &) = delete;
    CpuSampler &operator=(const CpuSampler &) = delete;

    /** Arm the timer: one sample per @p period_us of process CPU time. */
    void start(unsigned period_us);
    /** Disarm the timer and ignore SIGPROF from then on. */
    void stop();

    std::uint64_t samples() const;
    std::uint64_t dropped() const;

    /**
     * Write samples [@p from, @p to) one per line, "s <hex offset>...",
     * innermost frame first. Offsets are relative to the executable's
     * load address; frames outside the executable (shared libraries)
     * are left out. Returns false when the file cannot be written.
     */
    bool write(const std::string &path, std::size_t from,
               std::size_t to) const;
};

} // namespace ltpbench

#endif // LTPBENCH_SAMPLER_HH
