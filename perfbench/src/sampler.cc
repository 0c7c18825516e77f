#include "sampler.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include <execinfo.h>
#include <link.h>
#include <sys/time.h>
#include <ucontext.h>

namespace ltpbench
{

namespace
{

/** Sample storage the signal handler writes without allocating. */
struct SampleBuffer
{
    std::unique_ptr<std::uintptr_t[]> frames; //!< capacity * maxDepth
    std::unique_ptr<std::atomic<std::uint8_t>[]> depth; //!< 0 = unwritten
    std::size_t capacity = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> dropped{0};
};

SampleBuffer *buffer = nullptr;

std::uintptr_t
interruptedPc(void *uctx)
{
    const auto *uc = static_cast<const ucontext_t *>(uctx);
#if defined(__x86_64__)
    return std::uintptr_t(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return std::uintptr_t(uc->uc_mcontext.pc);
#else
    (void)uc;
    return 0;
#endif
}

void
onProf(int, siginfo_t *, void *uctx)
{
    int saved_errno = errno;
    SampleBuffer *b = buffer;
    std::size_t i = b ? b->next.fetch_add(1, std::memory_order_relaxed) : 0;
    if (!b || i >= b->capacity) {
        if (b)
            b->dropped.fetch_add(1, std::memory_order_relaxed);
        errno = saved_errno;
        return;
    }
    // backtrace() starts in this handler and the kernel's signal
    // trampoline; the interrupted frame follows them. Find it by its
    // exact pc so the caller frames after it can be taken as return
    // addresses (minus one, to land inside the call instruction's line).
    void *raw[CpuSampler::maxDepth + 8];
    int n = backtrace(raw, int(CpuSampler::maxDepth + 8));
    std::uintptr_t pc = interruptedPc(uctx);
    int first = -1;
    for (int k = 0; k < n && pc; ++k) {
        if (std::uintptr_t(raw[k]) == pc) {
            first = k + 1;
            break;
        }
    }
    std::uintptr_t *out = &b->frames[i * CpuSampler::maxDepth];
    unsigned d = 0;
    if (first >= 0) {
        out[d++] = pc;
    } else {
        first = n < 2 ? n : 2;
    }
    for (int k = first; k < n && d < CpuSampler::maxDepth; ++k)
        out[d++] = std::uintptr_t(raw[k]) - 1;
    b->depth[i].store(std::uint8_t(d), std::memory_order_release);
    errno = saved_errno;
}

/** The executable's load bias and mapped address ranges. */
struct ExeImage
{
    std::uintptr_t bias = 0;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;

    bool
    contains(std::uintptr_t a) const
    {
        for (const auto &[lo, hi] : ranges) {
            if (a >= lo && a < hi)
                return true;
        }
        return false;
    }
};

int
collectExe(dl_phdr_info *info, std::size_t, void *data)
{
    // The first object dl_iterate_phdr reports is the main program.
    auto *img = static_cast<ExeImage *>(data);
    img->bias = info->dlpi_addr;
    for (int p = 0; p < info->dlpi_phnum; ++p) {
        const auto &ph = info->dlpi_phdr[p];
        if (ph.p_type == PT_LOAD) {
            std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            img->ranges.emplace_back(lo, lo + ph.p_memsz);
        }
    }
    return 1;
}

} // namespace

CpuSampler::CpuSampler(std::size_t capacity)
{
    if (buffer)
        throw std::logic_error("one CpuSampler per process");
    auto *b = new SampleBuffer;
    b->capacity = capacity;
    b->frames.reset(new std::uintptr_t[capacity * maxDepth]);
    b->depth.reset(new std::atomic<std::uint8_t>[capacity]);
    for (std::size_t i = 0; i < capacity; ++i)
        b->depth[i].store(0, std::memory_order_relaxed);
    buffer = b;
    // The first backtrace() call loads the unwinder; do it here rather
    // than inside the first signal.
    void *warm[4];
    backtrace(warm, 4);
}

CpuSampler::~CpuSampler()
{
    stop();
}

void
CpuSampler::start(unsigned period_us)
{
    struct sigaction sa = {};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        throw std::runtime_error("cannot install the SIGPROF handler");
    itimerval tv = {};
    tv.it_interval.tv_sec = period_us / 1000000;
    tv.it_interval.tv_usec = period_us % 1000000;
    tv.it_value = tv.it_interval;
    if (setitimer(ITIMER_PROF, &tv, nullptr) != 0)
        throw std::runtime_error("cannot arm ITIMER_PROF");
}

void
CpuSampler::stop()
{
    itimerval off = {};
    setitimer(ITIMER_PROF, &off, nullptr);
    // Ignore rather than restore the default action: the default for
    // SIGPROF ends the process, and a late signal may still be pending.
    std::signal(SIGPROF, SIG_IGN);
}

std::uint64_t
CpuSampler::samples() const
{
    std::size_t n = buffer->next.load(std::memory_order_relaxed);
    return n < buffer->capacity ? n : buffer->capacity;
}

std::uint64_t
CpuSampler::dropped() const
{
    return buffer->dropped.load(std::memory_order_relaxed);
}

bool
CpuSampler::write(const std::string &path, std::size_t from,
                  std::size_t to) const
{
    ExeImage img;
    dl_iterate_phdr(collectExe, &img);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    to = std::min<std::size_t>(to, samples());
    for (std::size_t i = from; i < to; ++i) {
        unsigned d = buffer->depth[i].load(std::memory_order_acquire);
        std::fputc('s', f);
        for (unsigned k = 0; k < d; ++k) {
            std::uintptr_t a = buffer->frames[i * maxDepth + k];
            if (img.contains(a))
                std::fprintf(f, " %zx", std::size_t(a - img.bias));
        }
        std::fputc('\n', f);
    }
    return std::fclose(f) == 0;
}

} // namespace ltpbench
