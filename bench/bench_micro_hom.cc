// Microbenchmarks: homomorphism solver hot paths (shared harness).

#include "bench/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "chase/chase.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"

namespace bddfc {
namespace {

// A random E-graph instance over n constants with m edges.
Instance RandomGraph(Universe* u, int n, int m, std::uint64_t seed) {
  Instance db(u);
  PredicateId e = u->InternPredicate("E", 2);
  std::vector<Term> verts;
  for (int i = 0; i < n; ++i) {
    verts.push_back(u->InternConstant("v" + std::to_string(i)));
  }
  Rng rng(seed);
  for (int i = 0; i < m; ++i) {
    db.AddAtom(Atom(e, {verts[rng.Below(n)], verts[rng.Below(n)]}));
  }
  return db;
}

void BM_PathQueryEntailment(bench::State& state) {
  const int path_len = static_cast<int>(state.range(0));
  Universe u;
  Instance db = RandomGraph(&u, 60, 240, 17);
  // Build the path query of the requested length.
  std::string text = "? :- ";
  for (int i = 0; i < path_len; ++i) {
    text += "E(p" + std::to_string(i) + ",p" + std::to_string(i + 1) + ")";
    if (i + 1 < path_len) text += ", ";
  }
  Cq q = MustParseCq(&u, text);
  for (auto _ : state) {
    bench::DoNotOptimize(Entails(db, q));
  }
}
BENCHMARK(BM_PathQueryEntailment)->Arg(2)->Arg(4)->Arg(8);

void BM_InjectivePathQuery(bench::State& state) {
  const int path_len = static_cast<int>(state.range(0));
  Universe u;
  Instance db = RandomGraph(&u, 60, 240, 17);
  std::string text = "? :- ";
  for (int i = 0; i < path_len; ++i) {
    text += "E(p" + std::to_string(i) + ",p" + std::to_string(i + 1) + ")";
    if (i + 1 < path_len) text += ", ";
  }
  Cq q = MustParseCq(&u, text);
  for (auto _ : state) {
    bench::DoNotOptimize(EntailsInjectively(db, q));
  }
}
BENCHMARK(BM_InjectivePathQuery)->Arg(2)->Arg(4)->Arg(8);

void BM_TriangleQuery(bench::State& state) {
  const int edges = static_cast<int>(state.range(0));
  Universe u;
  Instance db = RandomGraph(&u, 40, edges, 23);
  Cq q = MustParseCq(&u, "? :- E(x,y), E(y,z), E(z,x)");
  for (auto _ : state) {
    bench::DoNotOptimize(Entails(db, q));
  }
}
BENCHMARK(BM_TriangleQuery)->Arg(60)->Arg(120)->Arg(240);

void BM_HomEquivalenceOfChases(bench::State& state) {
  Universe u;
  RuleSet rules = MustParseRuleSet(&u, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u, "E(a,b). E(c,d).");
  Instance a = Chase(db, rules, {.exec = {.max_steps = 6}});
  Instance b = Chase(db, rules, {.exec = {.max_steps = 7}});
  for (auto _ : state) {
    bench::DoNotOptimize(MapsInto(a, b));
  }
}
BENCHMARK(BM_HomEquivalenceOfChases);

void BM_CoreComputation(bench::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Universe u;
    Cq q = MustParseCq(&u,
                       "? :- E(x,y), E(x,z), E(x,w), E(u,y), E(v,v)");
    state.ResumeTiming();
    bench::DoNotOptimize(Core(q, &u).size());
  }
}
BENCHMARK(BM_CoreComputation);

// Best-of-kReps wall nanoseconds of `run`, which returns its result count.
template <typename Run>
double BestNs(const Run& run, std::size_t* results) {
  constexpr int kReps = 5;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    *results = run();
    best = std::min(best, std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

}  // namespace
}  // namespace bddfc

// The two slot-image hot paths, reported per homomorphism: the chase's
// delta-anchored trigger search (Example 1's transitivity body over the
// transitive closure of a 200-edge path, the last growing chase step as
// the delta window) and the query path's answer projection (one atom,
// 10^5 facts).
BDDFC_BENCH_EXPERIMENT(hom_slot_paths) {
  using namespace bddfc;
  {
    Universe u;
    RuleSet rules = MustParseRuleSet(&u, "E(x,y), E(y,z) -> E(x,z)");
    std::string facts;
    for (int i = 0; i < 200; ++i) {
      facts += "E(v" + std::to_string(i) + ",v" + std::to_string(i + 1) +
               "). ";
    }
    ObliviousChase chase(MustParseInstance(&u, facts), rules);
    chase.Run();
    BDDFC_CHECK(chase.Saturated());
    // The last step that added atoms (a final step may fire only
    // duplicates).
    std::size_t last = chase.StepsExecuted();
    while (last > 1 &&
           chase.AtomCountAtStep(last) == chase.AtomCountAtStep(last - 1)) {
      --last;
    }
    const auto delta_begin =
        static_cast<std::uint32_t>(chase.AtomCountAtStep(last - 1));
    const auto delta_end =
        static_cast<std::uint32_t>(chase.AtomCountAtStep(last));
    const Rule& rule = rules.front();
    HomSearch search(rule.body(), &chase.Result());
    std::size_t homs = 0;
    const double ns = BestNs(
        [&] {
          std::size_t sum = 0;
          const std::size_t n = search.ForEachDelta(
              {}, delta_begin, delta_end, [&](const Term* image) {
                sum += image[0].raw();
                return true;
              });
          bench::DoNotOptimize(sum);
          return n;
        },
        &homs);
    BDDFC_CHECK_GT(homs, 0u);
    ctx.Metric("delta_anchor/homs", static_cast<double>(homs));
    ctx.Metric("delta_anchor/ns_per_hom", ns / homs);
    std::printf("  delta-anchored E(x,y),E(y,z): %zu homs, %.1f ns/hom\n",
                homs, ns / homs);
  }
  {
    constexpr int kFacts = 100000;
    Universe u;
    Instance db(&u);
    const PredicateId takes = u.InternPredicate("Takes", 2);
    std::vector<Term> courses;
    for (int c = 0; c < 100; ++c) {
      courses.push_back(u.InternConstant("c" + std::to_string(c)));
    }
    for (int i = 0; i < kFacts; ++i) {
      db.AddAtom(Atom(takes, {u.InternConstant("s" + std::to_string(i)),
                              courses[i % courses.size()]}));
    }
    Cq q = MustParseCq(&u, "?(s) :- Takes(s,c)");
    HomSearch search(q.atoms(), &db);
    const std::vector<std::size_t> columns = {search.SlotOf(q.answers()[0])};
    std::vector<Term> rows;
    std::size_t count = 0;
    const double ns = BestNs(
        [&] {
          rows.clear();
          const std::size_t n = search.Project(columns, &rows);
          bench::DoNotOptimize(rows.data());
          return n;
        },
        &count);
    BDDFC_CHECK_EQ(count, static_cast<std::size_t>(kFacts));
    ctx.Metric("project/rows", static_cast<double>(count));
    ctx.Metric("project/ns_per_hom", ns / count);
    std::printf("  one-atom answer projection: %zu rows, %.1f ns/hom\n",
                count, ns / count);
  }
  return 0;
}

BENCHMARK_MAIN();
