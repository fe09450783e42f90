#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <vector>

namespace faster {
namespace obs {

namespace {

// Saved disposition to restore on Stop (written/read only under the
// Start/Stop caller; the handler never touches it).
struct sigaction g_old_action;

// The calling thread's stack, [lo, hi), or zeros: no walk. Initial-exec
// TLS, so the handler reads it without a lookup that could allocate. A
// sample amid RegisterThread's stores sees hi == 0 (no walk) or lo == 0
// (the bound is still sp and hi).
struct StackBounds {
  uintptr_t lo, hi;
};
[[gnu::tls_model("initial-exec")]] thread_local constinit StackBounds
    t_stack{0, 0};

extern "C" void ProfilerSignalTrampoline(int /*sig*/, siginfo_t* /*info*/,
                                         void* ucontext) {
  Profiler::Instance().OnSignal(ucontext);
}

/// One resolved frame for the collapse pass (drain time, not handler).
std::string SymbolFor(uintptr_t pc, bool return_address) {
  // Return addresses point one past the call; step back one byte so the
  // lookup lands inside the calling function.
  uintptr_t lookup = return_address && pc > 0 ? pc - 1 : pc;
  Dl_info info;
  if (::dladdr(reinterpret_cast<void*>(lookup), &info) != 0 &&
      info.dli_sname != nullptr) {
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string name =
        (status == 0 && demangled != nullptr) ? demangled : info.dli_sname;
    std::free(demangled);
    // Collapsed-stack separators are ';' and ' '; scrub them.
    for (char& c : name) {
      if (c == ';' || c == ' ') c = ':';
    }
    return name;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%zx", static_cast<size_t>(pc));
  return buf;
}

}  // namespace

void Profiler::RegisterThread() {
  pthread_attr_t attr;
  if (::pthread_getattr_np(::pthread_self(), &attr) != 0) return;
  void* base = nullptr;
  size_t size = 0;
  if (::pthread_attr_getstack(&attr, &base, &size) == 0) {
    auto lo = reinterpret_cast<uintptr_t>(base);
    t_stack = {lo, lo + size};
  }
  ::pthread_attr_destroy(&attr);
}

Profiler& Profiler::Instance() {
  static constinit Profiler profiler;
  return profiler;
}

bool Profiler::Start(uint32_t hz) {
  bool expected = false;
  // order: acq_rel CAS — only one Start wins; the release half publishes
  // ring state to the handler, whose acquire load of running_ pairs here.
  if (!running_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    return false;
  }
  if (hz == 0) hz = kDefaultHz;
  if (hz > 10000) hz = 10000;

  struct sigaction sa;
  sa.sa_sigaction = &ProfilerSignalTrampoline;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  if (::sigaction(SIGPROF, &sa, &g_old_action) != 0) {
    running_.store(false, std::memory_order_release);
    return false;
  }

  itimerval timer;
  uint64_t usec = 1000000 / hz;
  if (usec == 0) usec = 1;
  timer.it_interval.tv_sec = static_cast<time_t>(usec / 1000000);
  timer.it_interval.tv_usec = static_cast<suseconds_t>(usec % 1000000);
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    ::sigaction(SIGPROF, &g_old_action, nullptr);
    running_.store(false, std::memory_order_release);
    return false;
  }
  return true;
}

void Profiler::Stop() {
  if (!running()) return;
  itimerval off;
  off.it_interval.tv_sec = 0;
  off.it_interval.tv_usec = 0;
  off.it_value = off.it_interval;
  ::setitimer(ITIMER_PROF, &off, nullptr);
  // A signal already in flight sees running_ == false and bails before
  // touching the ring; after sigaction below, no more deliveries.
  running_.store(false, std::memory_order_release);
  ::sigaction(SIGPROF, &g_old_action, nullptr);
}

void Profiler::OnSignal(void* ucontext) {
  if (!running_.load(std::memory_order_acquire)) return;

  Sample sample{};
  uintptr_t* frames = sample.pc;
  uint32_t depth = 0;
  uintptr_t fp = 0;
  uintptr_t sp = 0;
#if defined(__x86_64__) && defined(__linux__)
  ucontext_t* uc = static_cast<ucontext_t*>(ucontext);
  frames[depth++] = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__) && defined(__linux__)
  ucontext_t* uc = static_cast<ucontext_t*>(ucontext);
  frames[depth++] = static_cast<uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)ucontext;
  truncated_.fetch_add(1, std::memory_order_relaxed);
  return;
#endif

  // Frame-pointer chain walk (monotone, word-aligned, frames under 1 MiB
  // each), inside this thread's own stack: every frame read lies between
  // the interrupted stack pointer and the stack's top. A stale chain (TSan
  // defers the signal and passes the interrupt's registers) stops at the
  // first frame outside; an unregistered thread records its PC alone.
  constexpr uintptr_t kAlignMask = sizeof(uintptr_t) - 1;
  constexpr uintptr_t kMaxFrameSpan = uintptr_t{1} << 20;
  const StackBounds stack = t_stack;
  while (depth < kMaxFrames) {
    if (fp == 0 || (fp & kAlignMask) != 0) break;
    if (fp < std::max(sp, stack.lo) || fp + 2 * sizeof(fp) > stack.hi) break;
    const uintptr_t* frame = reinterpret_cast<const uintptr_t*>(fp);
    uintptr_t ret = frame[1];
    uintptr_t next = frame[0];
    if (ret < 4096) break;  // null page: not a code address
    frames[depth++] = ret;
    if (next <= fp || next - fp > kMaxFrameSpan) break;
    fp = next;
  }

  sample.depth = depth;
  ring_.Push(sample);
}

std::string Profiler::Collapse() const {
  std::unordered_map<uintptr_t, std::string> symbols;
  std::map<std::string, uint64_t> stacks;
  ring_.ForEach(kCapacity, [&](uint64_t, const Sample& sample) {
    // pc[] is leaf-first; collapsed format wants root-first.
    std::string line;
    for (uint64_t i = sample.depth; i-- > 0;) {
      uintptr_t pc = sample.pc[i];
      auto it = symbols.find(pc);
      if (it == symbols.end()) {
        it = symbols.emplace(pc, SymbolFor(pc, /*return_address=*/i != 0))
                 .first;
      }
      if (!line.empty()) line += ';';
      line += it->second;
    }
    ++stacks[line];
  });

  std::string out;
  for (const auto& [stack, count] : stacks) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::string Profiler::ProfileForSeconds(double seconds, uint32_t hz) {
  if (seconds < 0.1) seconds = 0.1;
  if (seconds > 60.0) seconds = 60.0;
  if (!Start(hz)) return "# profiler busy or unavailable\n";
  Clear();
  timespec ts;
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec =
      static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) * 1e9);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    // SIGPROF interrupts the sleep even with SA_RESTART on some kernels;
    // keep waiting out the remainder.
  }
  Stop();
  std::string out = Collapse();
  if (out.empty()) {
    out = "# no samples (process idle, or ITIMER_PROF unavailable)\n";
  }
  return out;
}

}  // namespace obs
}  // namespace faster
