// bddfc_perfbench: runs one benchmark workload in this process and prints
// its metrics, one "name value unit" line each, then one JSON line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status is 0 only when every output check passed and no operation
// failed. perfbench/run.py builds this binary and runs it once per call.
//
//   bddfc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "gen.h"
#include "runners.h"

namespace {

using perfbench::Result;

// Workload sizes. tc-tournament is the paper's Example 1 on a 200-edge
// path; onto-materialize is the university ontology at 5e4 students; the
// server's KB is the same ontology at 1e4 students.
constexpr std::size_t kTcEdges = 200;
constexpr std::size_t kOntoStudents = 50000;
constexpr std::size_t kServeStudents = 10000;

int Usage() {
  std::fprintf(stderr,
               "usage: bddfc_perfbench --workload "
               "tc-tournament|onto-materialize|serve-mixed --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // the result line stays valid JSON
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  long long seed = -1;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::atoll(value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = std::atoi(value);
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }

  // The seed drives the generators only; the library sees their text.
  const std::uint64_t s = static_cast<std::uint64_t>(seed);
  Result result;
  if (workload == "tc-tournament") {
    // The chase_cli defaults: oblivious chase, kAuto.
    result = perfbench::RunBatch(perfbench::TcTournament(s, kTcEdges),
                                 bddfc::ReasonerOptions{}, seconds, trace == 1,
                                 trace_out);
  } else if (workload == "onto-materialize") {
    bddfc::ReasonerOptions options;
    options.chase.variant = bddfc::ChaseVariant::kSemiOblivious;
    options.chase.exec.max_atoms = 8000000;
    result = perfbench::RunBatch(perfbench::Ontology(workload, s, kOntoStudents),
                                 options, seconds, trace == 1, trace_out);
  } else if (workload == "serve-mixed") {
    result = perfbench::RunServeMixed(
        perfbench::Ontology(workload, s, kServeStudents), seconds, trace == 1,
        trace_out);
  } else {
    return Usage();
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  result.Note("error_rate",
              static_cast<double>(result.failed) /
                  static_cast<double>(std::max<std::uint64_t>(result.attempted, 1)),
              "ratio");
  for (const perfbench::Metric& m : result.notes) {
    std::printf("%-30s %16.6f %s (no bound)\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s\n", json.c_str());
  return result.correct && result.failed == 0 ? 0 : 1;
}
