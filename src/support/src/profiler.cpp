#include "eim/support/profiler.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if EIM_PROFILER_SUPPORTED
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <cstdlib>
#include <cstring>
#endif

namespace eim::support::profiler {

#if EIM_PROFILER_SUPPORTED

namespace {

// The SIGPROF disposition is process-global, so exactly one profiler may be
// armed; the handler reads everything it needs through this pointer.
std::atomic<SamplingProfiler*> g_active{nullptr};
struct sigaction g_previous_action;

}  // namespace

bool SamplingProfiler::supported() noexcept { return true; }

SamplingProfiler::SamplingProfiler(Options options) : options_(options) {
  if (options_.hz == 0) options_.hz = 1;
  if (options_.max_samples == 0) options_.max_samples = 1;
}

SamplingProfiler::~SamplingProfiler() { stop(); }

std::size_t SamplingProfiler::num_samples() const noexcept {
  const std::size_t claimed = next_slot_.load(std::memory_order_relaxed);
  return std::min(claimed, options_.max_samples);
}

// Async-signal-safe by construction: one relaxed fetch_add to claim a slot,
// one backtrace() into preallocated storage, one release store to publish
// the depth. No allocation, no locks, no iostream.
void SamplingProfiler::handle_signal(int) {
  SamplingProfiler* self = g_active.load(std::memory_order_acquire);
  if (self == nullptr) return;
  const std::size_t slot = self->next_slot_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= self->options_.max_samples) {
    self->dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  void** frames = self->frames_.get() + slot * kMaxFrames;
  const int depth = ::backtrace(frames, static_cast<int>(kMaxFrames));
  self->depths_[slot].store(depth > 0 ? depth : 0, std::memory_order_release);
}

bool SamplingProfiler::start() {
  if (running_) return true;
  SamplingProfiler* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_acq_rel)) {
    return false;  // another instance holds the SIGPROF disposition
  }

  frames_ = std::make_unique<void*[]>(options_.max_samples * kMaxFrames);
  depths_ = std::make_unique<std::atomic<std::int32_t>[]>(options_.max_samples);
  for (std::size_t i = 0; i < options_.max_samples; ++i) {
    depths_[i].store(0, std::memory_order_relaxed);
  }
  next_slot_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);

  // Prime backtrace() outside the signal context: the first call may dlopen
  // libgcc, which is not async-signal-safe.
  void* prime[4];
  (void)::backtrace(prime, 4);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &SamplingProfiler::handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  if (sigaction(SIGPROF, &action, &g_previous_action) != 0) {
    g_active.store(nullptr, std::memory_order_release);
    return false;
  }

  itimerval timer;
  const long usec = std::max(1L, 1000000L / static_cast<long>(options_.hz));
  timer.it_interval.tv_sec = usec / 1000000L;
  timer.it_interval.tv_usec = usec % 1000000L;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    sigaction(SIGPROF, &g_previous_action, nullptr);
    g_active.store(nullptr, std::memory_order_release);
    return false;
  }
  running_ = true;
  return true;
}

void SamplingProfiler::stop() {
  if (!running_) return;
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, nullptr);
  sigaction(SIGPROF, &g_previous_action, nullptr);
  g_active.store(nullptr, std::memory_order_release);
  running_ = false;
}

namespace {

/// Resolve one captured address to a demangled symbol name; hex fallback
/// when dladdr finds nothing (static binary, JIT page, stripped symbol).
/// `is_return_address` frames point one past the call, so probe addr-1 to
/// land inside the calling instruction.
std::string symbolize_frame(void* addr, bool is_return_address) {
  Dl_info info;
  void* probe = addr;
  if (is_return_address) {
    probe = reinterpret_cast<void*>(reinterpret_cast<std::uintptr_t>(addr) - 1);
  }
  if ((dladdr(probe, &info) == 0 || info.dli_sname == nullptr) &&
      (dladdr(addr, &info) == 0 || info.dli_sname == nullptr)) {
    std::ostringstream hex;
    hex << addr;
    return hex.str();
  }
  int status = 0;
  char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
  if (status == 0 && demangled != nullptr) {
    std::string name(demangled);
    std::free(demangled);
    return name;
  }
  std::free(demangled);
  return info.dli_sname;
}

}  // namespace

void SamplingProfiler::write_folded(std::ostream& out) const {
  // backtrace() captured from inside the handler: frame 0 is the handler
  // itself and frame 1 the kernel signal trampoline — neither belongs to
  // the interrupted program, so the fold skips them.
  constexpr std::size_t kSkipLeadingFrames = 2;

  std::map<void*, std::string> symbol_cache;
  const auto symbol_of = [&](void* addr, bool is_return) -> const std::string& {
    auto it = symbol_cache.find(addr);
    if (it == symbol_cache.end()) {
      it = symbol_cache.emplace(addr, symbolize_frame(addr, is_return)).first;
    }
    return it->second;
  };

  std::map<std::string, std::uint64_t> folded;
  const std::size_t captured = num_samples();
  for (std::size_t slot = 0; slot < captured; ++slot) {
    const auto depth = static_cast<std::size_t>(
        std::max<std::int32_t>(0, depths_[slot].load(std::memory_order_acquire)));
    if (depth <= kSkipLeadingFrames) continue;
    void* const* frames = frames_.get() + slot * kMaxFrames;
    // backtrace() is leaf-first; folded format wants root-first.
    std::string line;
    for (std::size_t f = depth; f-- > kSkipLeadingFrames;) {
      // The interrupted PC (the leaf, f == kSkipLeadingFrames) is exact;
      // every outer frame is a return address.
      const bool is_return = f != kSkipLeadingFrames;
      if (!line.empty()) line += ';';
      line += symbol_of(frames[f], is_return);
    }
    ++folded[line];
  }
  for (const auto& [stack, count] : folded) {
    out << stack << ' ' << count << '\n';
  }
}

#else  // !EIM_PROFILER_SUPPORTED

bool SamplingProfiler::supported() noexcept { return false; }

SamplingProfiler::SamplingProfiler(Options options) : options_(options) {}
SamplingProfiler::~SamplingProfiler() = default;

std::size_t SamplingProfiler::num_samples() const noexcept { return 0; }
void SamplingProfiler::handle_signal(int) {}
bool SamplingProfiler::start() { return false; }
void SamplingProfiler::stop() {}
void SamplingProfiler::write_folded(std::ostream&) const {}

#endif  // EIM_PROFILER_SUPPORTED

}  // namespace eim::support::profiler
