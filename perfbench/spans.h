// In-memory span log for the traced benchmark run.
//
// The benchmark records a span around each of its own calls into a
// layer (coloring, partitioning, ingest, engine creation, Start, a
// sampled update function and its GAS phases, snapshot restore): name,
// start, end, parent and machine.  Spans stay in memory until the
// repetition ends, then go to a Chrome trace file (chrome://tracing,
// Perfetto) and into the worker-seconds ledger.  Untraced runs pass a
// null log and record nothing.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name;  // string literal
  int64_t parent;    // index of the parent span, -1 for a root
  uint32_t machine;
  uint64_t start_ns;
  uint64_t end_ns;  // 0 while open
};

class SpanLog {
 public:
  /// Opens a span and returns its id (for End() and as a parent).
  int64_t Begin(const char* name, int64_t parent, uint32_t machine) {
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, parent, machine, now, 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void End(int64_t id) {
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// Records a span whose times the caller measured.
  int64_t Add(const char* name, int64_t parent, uint32_t machine,
              uint64_t start_ns, uint64_t end_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, parent, machine, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Summed duration in seconds of every closed span called `name`.
  double TotalSeconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.end_ns != 0 && name == s.name) ns += s.end_ns - s.start_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Writes the spans as Chrome trace "complete" events; the parent id
  /// rides in args.  Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const uint64_t end = s.end_ns == 0 ? s.start_ns : s.end_ns;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%lld}}\n",
                   i == 0 ? "" : ",", s.name, s.machine, s.machine,
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(end - s.start_ns) * 1e-3, i,
                   static_cast<long long>(s.parent));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t parent, uint32_t machine)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent, machine) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
