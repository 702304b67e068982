// The benchmark's own span recorder. Spans are recorded only around the
// benchmark's calls into the library's public entry points (the library's
// internal tracing is left alone), kept in memory, and written out as a
// Chrome/Perfetto trace when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  struct SpanRecord {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;          // index of the enclosing span, -1 at top level
    std::uint64_t request;  // request id the span belongs to, 0 = none
  };

  /// Closes its span on destruction. A null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t request)
        : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name, request);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Tracer() : origin_(Clock::now()) {}

  /// Durations (ms) of every closed span named `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  int Open(const char* name, std::uint64_t request);
  void Close(int index);
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
