// Seeded text generators for the three benchmark workloads. Everything the
// library sees is text produced here (rules, facts, queries, protocol
// request lines); the expected answers the checks compare against come from
// the generator's own bookkeeping, never from the library.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64, owned by the benchmark so the inputs of a seed never change
/// when the library's own generators do.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// A sorted set of answer rows, each row the constant names of one tuple.
using AnswerSet = std::vector<std::vector<std::string>>;

/// One read of the request phase. `line` is the protocol line (the NDJSON
/// request of serve/codec.h) without the trailing newline.
struct Request {
  enum class Kind { kLookup, kJoinCount };
  Kind kind = Kind::kLookup;
  std::string line;
  std::size_t oracle = 0;  // kLookup: index into Workload::lookups
};

/// One batch query with the check that applies to it.
struct BatchQuery {
  std::string text;
  /// Compare the materialized answers against a kRewrite session's (the
  /// rewriting is known to saturate).
  bool check_rewrite = false;
  /// Expected number of answers, or -1 when only the rewrite check applies.
  long long expected_count = -1;
  /// Expected answers when the generator can enumerate them; empty = none.
  AnswerSet expected;
};

struct Workload {
  std::string name;
  std::string rules;
  std::string facts;
  std::vector<BatchQuery> queries;

  /// tc-tournament: edges of the generated path (E atoms must equal
  /// n(n+1)/2 after saturation).
  std::size_t path_edges = 0;

  /// Requests. `lookups` are the CQ texts of the point lookups; each
  /// kLookup request names one of them. `join` is the prepared join-count
  /// query. `adds` are facts texts of 32 all-new facts each, applied in
  /// order (one epoch each). Reads and adds are drawn by cycling.
  std::vector<std::string> lookups;
  std::string join;
  std::vector<std::string> adds;
  /// Expected lookup answers (the lookups never touch facts the adds
  /// introduce) and join count, independent of the epoch.
  std::vector<AnswerSet> lookup_expected;
  long long join_expected = 0;

  /// The read requests, drawn from the lookup/join mix; a request phase
  /// cycles through them.
  std::vector<Request> reads;
};

/// Example 1 (transitivity) over a directed path of `edges` edges whose
/// constants and fact order are shuffled by the seed.
Workload TcTournament(std::uint64_t seed, std::size_t edges);

/// The university ontology: two existential rules, two join rules,
/// `students` students in groups of four professors.
Workload Ontology(const std::string& name, std::uint64_t seed,
                  std::size_t students);

/// Renders a protocol request line.
std::string QueryLine(std::string_view cq, const char* mode);
std::string PreparedLine(std::string_view name, const char* mode);
std::string PrepareLine(std::string_view name, std::string_view cq);
std::string AddLine(std::string_view facts);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
