// Host-side measurement for the host-cost benchmark: wall and CPU clocks,
// peak RSS, and the benchmark's own span log.
//
// Everything here reads the host, never the simulator, so none of it may
// feed a simulated result: the benchmark only *reports* these numbers.
// Spans are recorded from the benchmark's side of each call into a layer
// (fleet build, each submit, Simulator::run, readout, teardown, ...) and
// kept in memory; a layer's self time is its spans' durations minus the
// durations of the spans nested directly inside them.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace hostcost {

inline std::int64_t wall_ns() {
  timespec ts{};
  // faaspart-lint: allow(D1) -- host-cost benchmark: wall time of the
  // harness itself is the quantity measured; it never feeds the simulation
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double cpu_seconds() {
  timespec ts{};
  // faaspart-lint: allow(D1) -- host-cost benchmark: process CPU time is a
  // reported metric; it never feeds the simulation
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set of this process image so far, in MiB. Reads VmHWM,
/// which starts afresh at exec; getrusage's ru_maxrss would also count the
/// launching process's pages at fork time.
inline double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Simulated events per timed slice of a repetition's run (about 1 ms).
constexpr std::uint64_t kEventsPerSlice = 2048;

/// Host wall and CPU time of a repetition's consecutive phases: setup, the
/// run in slices of kEventsPerSlice events, readout, teardown. Every
/// repetition of one seed does the same work in each phase, so the phases
/// can be compared one by one across repetitions.
class Phases {
 public:
  struct Phase {
    double wall_s;
    double cpu_s;
  };

  Phases() : wall_ns_(wall_ns()), cpu_s_(cpu_seconds()) {}

  /// Ends the current phase and starts the next.
  void end() {
    const std::int64_t now_ns = wall_ns();
    const double now_cpu = cpu_seconds();
    phases_.push_back({static_cast<double>(now_ns - wall_ns_) * 1e-9, now_cpu - cpu_s_});
    wall_ns_ = now_ns;
    cpu_s_ = now_cpu;
  }

  [[nodiscard]] std::size_t size() const { return phases_.size(); }
  [[nodiscard]] const Phase& at(std::size_t i) const { return phases_.at(i); }

  /// Wall seconds of phases [from, to).
  [[nodiscard]] double wall_s(std::size_t from, std::size_t to) const {
    double s = 0;
    for (std::size_t i = from; i < std::min(to, phases_.size()); ++i) s += phases_[i].wall_s;
    return s;
  }

  /// CPU seconds of every ended phase.
  [[nodiscard]] double cpu_s() const {
    double s = 0;
    for (const Phase& p : phases_) s += p.cpu_s;
    return s;
  }

 private:
  std::int64_t wall_ns_;
  double cpu_s_;
  std::vector<Phase> phases_;
};

/// Interpolation-free quantile of a sample (nearest rank); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// The benchmark's span log. Disabled (the untraced runs) it reads no
/// clock at all, so the end-to-end metrics carry no tracing cost.
class Spans {
 public:
  struct Span {
    const char* name;  ///< "<layer>.<call>" literal, e.g. "federation.submit"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int depth = 0;
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span; returns its index, or -1 when disabled.
  long begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, wall_ns(), 0, static_cast<int>(open_.size())});
    open_.push_back(spans_.size() - 1);
    return static_cast<long>(spans_.size() - 1);
  }

  /// Closes the innermost open span (which `index` must be); returns its
  /// duration in ns (0 when disabled).
  std::int64_t end(long index) {
    if (index < 0) return 0;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = wall_ns();
    open_.pop_back();
    return s.end_ns - s.start_ns;
  }

  /// Total duration of every span called `name`, in seconds.
  [[nodiscard]] double total_s(const std::string& name) const {
    std::int64_t ns = 0;
    for (const Span& s : spans_) {
      if (name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Duration in ns of each span called `name`, in recorded order.
  [[nodiscard]] std::vector<double> durations_ns(const std::string& name) const {
    std::vector<double> ns;
    for (const Span& s : spans_) {
      if (name == s.name) ns.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return ns;
  }

  /// Self time per span name: duration minus directly nested spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::map<std::string, double> self;
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      while (static_cast<int>(stack.size()) > s.depth) stack.pop_back();
      const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      self[s.name] += d;
      if (!stack.empty()) self[spans_[stack.back()].name] -= d;
      stack.push_back(i);
    }
    return self;
  }

  /// Writes the log as a Chrome trace (chrome://tracing, Perfetto).
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string name = s.name;
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}\n",
                   i == 0 ? "" : ",", s.name, layer.c_str(),
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span for straight-line calls (not across co_await).
class Scoped {
 public:
  Scoped(Spans& spans, const char* name) : spans_(spans), index_(spans.begin(name)) {}
  ~Scoped() { spans_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans& spans_;
  long index_;
};

}  // namespace hostcost
