// bench_storage: the RowStore and ColumnStore backends head to head on a
// wide-EDB workload (>= 10^6 facts over ~10^5 distinct constants).
//
// Three measurements per backend land in BENCH_bench_storage.json:
//   * peak_rss_mb  — peak RSS attributable to the fully indexed store,
//                    measured in a forked child (the parent pre-builds the
//                    universe and the atom list, so the COW-shared baseline
//                    cancels out of the delta against an empty child).
//                    bytes_per_fact divides it by the workload's fact
//                    count; CI holds each backend under its own ceiling.
//                    The column backend's O(atoms) index layout is the
//                    headline: about half the row backend's hash-map
//                    indexes.
//   * lookup_ns / contains_ns — per-operation latencies of the point
//                    lookups the homomorphism join performs, sampled over
//                    the loaded store.
//   * chase_ms     — wall time of a bounded transitive-closure chase run
//                    with the backend as ChaseOptions::storage; both
//                    backends must land on the exact same atom count
//                    (CHECKed — the bit-identical guarantee, at scale).
//
//   ./bench_storage --repetitions 1 --json=BENCH_storage.json

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "bench/harness.h"
#include "chase/chase.h"
#include "logic/instance.h"
#include "storage/fact_store.h"

namespace {

using bddfc::Atom;
using bddfc::ChaseOptions;
using bddfc::Instance;
using bddfc::PredicateId;
using bddfc::Rng;
using bddfc::StorageKind;
using bddfc::Term;
using bddfc::Universe;

constexpr int kNumPredicates = 4;
constexpr int kNumConstants = 100000;
constexpr std::size_t kNumFacts = 1000000;
constexpr std::size_t kNumLookups = 200000;

struct WideWorkload {
  Universe universe;
  std::vector<PredicateId> preds;
  std::vector<Term> constants;
  std::vector<Atom> atoms;
};

// ~10^6 ternary facts over ~10^5 constants: index keys are mostly
// distinct, the regime where per-key hash-map overhead dominates the row
// backend (every real-world large EDB looks like this).
void BuildWideWorkload(WideWorkload* w) {
  for (int p = 0; p < kNumPredicates; ++p) {
    w->preds.push_back(
        w->universe.InternPredicate("R" + std::to_string(p), 3));
  }
  w->constants.reserve(kNumConstants);
  for (int c = 0; c < kNumConstants; ++c) {
    w->constants.push_back(
        w->universe.InternConstant("c" + std::to_string(c)));
  }
  Rng rng(42);
  w->atoms.reserve(kNumFacts);
  for (std::size_t i = 0; i < kNumFacts; ++i) {
    w->atoms.push_back(Atom(w->preds[rng.Below(kNumPredicates)],
                            {w->constants[rng.Below(kNumConstants)],
                             w->constants[rng.Below(kNumConstants)],
                             w->constants[rng.Below(kNumConstants)]}));
  }
}

// Loads the workload into a store of the given kind and forces the index
// structures (the row backend builds its hash maps lazily; the column
// backend seals its sorted runs) so the measured state is query-serving.
Instance LoadStore(WideWorkload* w, StorageKind kind) {
  Instance inst(&w->universe, kind);
  inst.AddAtoms(w->atoms);
  std::size_t probe = 0;
  for (PredicateId pred : w->preds) {
    probe += inst.AtomsWith(pred).size();
    probe += inst.AtomsWith(pred, 0, w->constants[0]).size();
  }
  bddfc::bench::DoNotOptimize(probe);
  return inst;
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Per-operation latency of the point lookups the join engine issues.
void TimeLookups(const Instance& inst, const WideWorkload& w,
                 double* lookup_ns, double* contains_ns) {
  Rng rng(7);
  std::size_t total = 0;
  const std::uint32_t n = static_cast<std::uint32_t>(inst.size());
  auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kNumLookups; ++i) {
    PredicateId pred = w.preds[rng.Below(kNumPredicates)];
    const int pos = static_cast<int>(rng.Below(3));
    Term t = w.constants[rng.Below(kNumConstants)];
    total += inst.AtomsWithIn(pred, pos, t, 0, n).size();
  }
  *lookup_ns = MsSince(start) * 1e6 / static_cast<double>(kNumLookups);
  bddfc::bench::DoNotOptimize(total);
  start = std::chrono::steady_clock::now();
  std::size_t hits = 0;
  for (std::size_t i = 0; i < kNumLookups; ++i) {
    hits += inst.Contains(w.atoms[rng.Below(kNumFacts)]) ? 1 : 0;
  }
  *contains_ns = MsSince(start) * 1e6 / static_cast<double>(kNumLookups);
  bddfc::bench::DoNotOptimize(hits);
}

// Bounded transitive closure over a long chain: every chase step is one
// wide join driven by AtomsWithIn point lookups — the storage hot path.
std::size_t TimeChase(StorageKind kind, double* chase_ms) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Instance db(&u, kind);
  std::vector<Atom> edges;
  constexpr int kChain = 30000;
  std::vector<Term> nodes;
  nodes.reserve(kChain + 1);
  for (int i = 0; i <= kChain; ++i) {
    nodes.push_back(u.InternConstant("n" + std::to_string(i)));
  }
  for (int i = 0; i < kChain; ++i) {
    edges.push_back(Atom(e, {nodes[i], nodes[i + 1]}));
  }
  db.AddAtoms(edges);
  Term x = u.InternVariable("x"), y = u.InternVariable("y"),
       z = u.InternVariable("z");
  bddfc::RuleSet rules;
  rules.push_back(bddfc::Rule({Atom(e, {x, y}), Atom(e, {y, z})},
                              {Atom(e, {x, z})}));
  ChaseOptions options;
  options.exec.max_steps = 3;
  options.exec.max_atoms = 1000000;
  options.exec.storage = kind;
  const auto start = std::chrono::steady_clock::now();
  Instance result = bddfc::Chase(db, rules, options);
  *chase_ms = MsSince(start);
  BDDFC_CHECK_EQ(static_cast<int>(result.storage()),
                 static_cast<int>(kind));
  return result.size();
}

}  // namespace

BDDFC_BENCH_EXPERIMENT(storage) {
  static WideWorkload* workload = [] {
    auto* w = new WideWorkload();
    BuildWideWorkload(w);
    return w;
  }();

  constexpr StorageKind kBackends[] = {StorageKind::kRow,
                                       StorageKind::kColumn};
  std::printf("  wide EDB: %zu facts, %d preds x arity 3, %d constants\n",
              kNumFacts, kNumPredicates, kNumConstants);

  // Peak RSS first, before any in-process build perturbs the parent's
  // heap: one empty child for the COW-shared baseline, one child per
  // backend (the fork-isolated helper now lives in the shared harness).
  // All three fork from the same parent state, so the deltas measure
  // exactly the loaded, fully indexed stores.
  double rss_mb[2] = {0, 0};
  const long baseline_kb = bddfc::bench::PeakRssInChildKb([] {});
  if (baseline_kb >= 0) {
    ctx.Metric("baseline_rss_mb", static_cast<double>(baseline_kb) / 1024.0);
    for (int b = 0; b < 2; ++b) {
      const StorageKind kind = kBackends[b];
      const long child_kb = bddfc::bench::PeakRssInChildKb([kind] {
        Instance inst = LoadStore(workload, kind);
        bddfc::bench::DoNotOptimize(inst.size());
      });
      rss_mb[b] = static_cast<double>(child_kb - baseline_kb) / 1024.0;
      const double bytes_per_fact =
          rss_mb[b] * 1024.0 * 1024.0 / static_cast<double>(kNumFacts);
      ctx.Metric(std::string(bddfc::ToString(kind)) + "/peak_rss_mb",
                 rss_mb[b]);
      ctx.Metric(std::string(bddfc::ToString(kind)) + "/bytes_per_fact",
                 bytes_per_fact);
      std::printf(
          "  %-6s  peak RSS %8.1f MB (store only; child %ld KB), "
          "%.0f B/fact\n",
          bddfc::ToString(kind), rss_mb[b], child_kb, bytes_per_fact);
    }
    if (rss_mb[0] > 0) {
      std::printf("  column/row RSS ratio: %.2fx\n", rss_mb[1] / rss_mb[0]);
      ctx.Metric("column_over_row_rss", rss_mb[1] / rss_mb[0]);
    }
  }

  std::size_t chase_atoms[2] = {0, 0};
  for (int b = 0; b < 2; ++b) {
    const StorageKind kind = kBackends[b];
    const std::string prefix = bddfc::ToString(kind);
    // Build + index wall time and per-lookup latency (in-process; the
    // store is destroyed before the next backend runs).
    double build_ms = 0, lookup_ns = 0, contains_ns = 0;
    {
      const auto start = std::chrono::steady_clock::now();
      Instance inst = LoadStore(workload, kind);
      build_ms = MsSince(start);
      TimeLookups(inst, *workload, &lookup_ns, &contains_ns);
      BDDFC_CHECK_GE(inst.size(), kNumFacts / 2);
    }
    double chase_ms = 0;
    chase_atoms[b] = TimeChase(kind, &chase_ms);

    ctx.Metric(prefix + "/build_ms", build_ms);
    ctx.Metric(prefix + "/lookup_ns", lookup_ns);
    ctx.Metric(prefix + "/contains_ns", contains_ns);
    ctx.Metric(prefix + "/chase_ms", chase_ms);
    ctx.Metric(prefix + "/chase_atoms", static_cast<double>(chase_atoms[b]));
    std::printf(
        "  %-6s  build %8.1f ms  lookup %7.0f ns  contains %7.0f ns  "
        "chase %8.1f ms (%zu atoms)\n",
        prefix.c_str(), build_ms, lookup_ns, contains_ns, chase_ms,
        chase_atoms[b]);
  }
  // The bit-identical guarantee, observed at scale.
  BDDFC_CHECK_EQ(chase_atoms[0], chase_atoms[1]);
  return 0;
}

BDDFC_BENCH_MAIN();
