#include "trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::Open(const char* name, std::uint64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowNs(), -1, parent, request});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::Close(int index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.request), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
