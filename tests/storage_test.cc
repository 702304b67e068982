// The storage differential suite: the RowStore and ColumnStore backends
// must answer every FactStore query identically — same atoms() sequence,
// same index-lookup results, same delta views, same active domain — and
// produce bit-identical chase transcripts (atoms, trigger order,
// provenance, fresh-null numbering) across all three chase variants and
// thread counts. Plus targeted regressions: the debug-build IndexView
// generation guard, the bulk-AddAtoms Restrict/Map/DisjointUnion paths,
// and the column store's lazy run-merge discipline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "chase/chase.h"
#include "generators/workload.h"
#include "logic/instance.h"
#include "logic/parser.h"
#include "storage/column_store.h"
#include "storage/fact_store.h"
#include "storage/row_store.h"

namespace bddfc {
namespace {

constexpr StorageKind kBackends[] = {StorageKind::kRow, StorageKind::kColumn};

std::vector<std::uint32_t> Materialize(const IndexView& view) {
  return std::vector<std::uint32_t>(view.begin(), view.end());
}

// Walks a SortedRunsView checking the per-run contract — strictly
// ascending (term, global) within every run — and returns the flattened
// (term, global) multiset in sorted order, so two views with different run
// structures (column store: O(log n) native runs; row store: one
// materialized run) can be compared for content equality.
std::vector<std::pair<Term, std::uint32_t>> CheckAndFlattenRuns(
    const SortedRunsView& runs) {
  std::vector<std::pair<Term, std::uint32_t>> flat;
  flat.reserve(runs.size());
  for (std::size_t r = 0; r < runs.num_runs(); ++r) {
    for (std::uint32_t k = runs.run_begin(r); k < runs.run_end(r); ++k) {
      if (k > runs.run_begin(r)) {
        const bool ascending =
            runs.term(k - 1) < runs.term(k) ||
            (runs.term(k - 1) == runs.term(k) &&
             runs.global(k - 1) < runs.global(k));
        EXPECT_TRUE(ascending) << "run " << r << " entry " << k;
      }
      flat.push_back({runs.term(k), runs.global(k)});
    }
  }
  std::sort(flat.begin(), flat.end());
  return flat;
}

// The SortedRuns leg of the differential: both backends must expose the
// same (term, global) content at every (pred, pos), covering every atom of
// the predicate exactly once and agreeing with the point-lookup index.
void ExpectSortedRunsAgree(const Instance& row, const Instance& column) {
  for (PredicateId pred = 0; pred < row.universe()->num_predicates();
       ++pred) {
    const int arity = row.universe()->ArityOf(pred);
    for (int pos = 0; pos < arity; ++pos) {
      const auto row_flat =
          CheckAndFlattenRuns(row.store().SortedRuns(pred, pos));
      const auto column_flat =
          CheckAndFlattenRuns(column.store().SortedRuns(pred, pos));
      EXPECT_EQ(row_flat, column_flat) << "pred " << pred << " pos " << pos;
      // Exactly the predicate's atoms, each exactly once, with the term
      // actually stored at the viewed position.
      std::vector<std::uint32_t> globals;
      globals.reserve(row_flat.size());
      for (const auto& [t, g] : row_flat) {
        EXPECT_EQ(row.atoms()[g].arg(static_cast<std::size_t>(pos)), t);
        globals.push_back(g);
      }
      std::sort(globals.begin(), globals.end());
      EXPECT_EQ(globals, row.AtomsWith(pred))
          << "pred " << pred << " pos " << pos;
      // Consistency with the point lookup: the runs' equal-term entries
      // are AtomsWith(pred, pos, t) for every active-domain term.
      for (Term t : row.ActiveDomain()) {
        std::vector<std::uint32_t> expected =
            Materialize(row.AtomsWith(pred, pos, t));
        std::vector<std::uint32_t> from_runs;
        for (const auto& [term, g] : row_flat) {
          if (term == t) from_runs.push_back(g);
        }
        EXPECT_EQ(from_runs, expected) << "pred " << pred << " pos " << pos;
      }
    }
    // A position beyond the arity is an empty view on every backend.
    EXPECT_TRUE(row.store().SortedRuns(pred, arity).empty());
    EXPECT_TRUE(column.store().SortedRuns(pred, arity).empty());
  }
}

// Every query of the FactStore contract, cross-checked between two
// instances that were built from the same atom sequence.
void ExpectStoresAgree(const Instance& row, const Instance& column) {
  ASSERT_EQ(row.size(), column.size());
  for (std::size_t i = 0; i < row.size(); ++i) {
    ASSERT_EQ(row.atoms()[i], column.atoms()[i]) << "atom " << i;
  }
  EXPECT_EQ(row.ActiveDomain(), column.ActiveDomain());
  for (Term t : row.ActiveDomain()) {
    EXPECT_TRUE(column.InActiveDomain(t));
  }
  // Membership, positions, and every per-(pred, pos, term) lookup over the
  // active domain plus one absent term.
  std::vector<Term> probes = row.ActiveDomain();
  probes.push_back(Term::MakeConstant(0x2fffffu));  // never interned
  const std::uint32_t n = static_cast<std::uint32_t>(row.size());
  for (const Atom& a : row.atoms()) {
    EXPECT_TRUE(column.Contains(a));
    EXPECT_EQ(row.IndexOf(a), column.IndexOf(a));
  }
  for (PredicateId pred = 0; pred < row.universe()->num_predicates();
       ++pred) {
    EXPECT_EQ(row.AtomsWith(pred), column.AtomsWith(pred)) << "pred " << pred;
    const int arity = row.universe()->ArityOf(pred);
    for (int pos = 0; pos < arity; ++pos) {
      for (Term t : probes) {
        EXPECT_EQ(Materialize(row.AtomsWith(pred, pos, t)),
                  Materialize(column.AtomsWith(pred, pos, t)))
            << "pred " << pred << " pos " << pos;
        // Delta views over a few representative ranges, including empty
        // and partial windows.
        const std::uint32_t ranges[][2] = {
            {0, n}, {0, n / 2}, {n / 2, n}, {n / 3, (2 * n) / 3}, {n, n}};
        for (const auto& range : ranges) {
          EXPECT_EQ(
              Materialize(row.AtomsWithIn(pred, pos, t, range[0], range[1])),
              Materialize(
                  column.AtomsWithIn(pred, pos, t, range[0], range[1])))
              << "pred " << pred << " pos " << pos << " range ["
              << range[0] << "," << range[1] << ")";
        }
      }
    }
    for (std::uint32_t lo = 0; lo <= n; lo += n / 3 + 1) {
      EXPECT_EQ(Materialize(row.AtomsWithIn(pred, lo, n)),
                Materialize(column.AtomsWithIn(pred, lo, n)));
    }
  }
  ExpectSortedRunsAgree(row, column);
}

TEST(StorageDifferentialTest, HandWrittenWorkload) {
  for (bool bulk : {false, true}) {
    SCOPED_TRACE(bulk ? "bulk" : "atomwise");
    Universe u;
    PredicateId e = u.InternPredicate("E", 2);
    PredicateId p = u.InternPredicate("P", 1);
    Term a = u.InternConstant("a"), b = u.InternConstant("b"),
         c = u.InternConstant("c");
    std::vector<Atom> atoms = {Atom(e, {a, b}), Atom(e, {b, c}),
                               Atom(e, {a, c}), Atom(e, {c, a}),
                               Atom(p, {a}),    Atom(p, {c}),
                               Atom(e, {a, b})};  // duplicate
    Instance row(&u, StorageKind::kRow);
    Instance column(&u, StorageKind::kColumn);
    if (bulk) {
      row.AddAtoms(atoms);
      column.AddAtoms(atoms);
    } else {
      for (const Atom& atom : atoms) {
        EXPECT_EQ(row.AddAtom(atom), column.AddAtom(atom));
      }
    }
    EXPECT_EQ(row.size(), 7u);  // ⊤ + 6 distinct
    ExpectStoresAgree(row, column);
  }
}

TEST(StorageDifferentialTest, RandomizedGeneratorWorkloads) {
  generators::RuleSetSpec spec;
  spec.num_predicates = 4;
  spec.num_rules = 4;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Universe u;
    Rng rng(seed);
    RuleSet rules = generators::RandomBinaryRuleSet(&u, spec, &rng);
    Instance row = generators::RandomInstance(&u, rules, /*num_constants=*/9,
                                              /*num_atoms=*/60, &rng);
    Instance column(row, StorageKind::kColumn);
    EXPECT_EQ(row.storage(), StorageKind::kRow);
    EXPECT_EQ(column.storage(), StorageKind::kColumn);
    ExpectStoresAgree(row, column);
  }
}

TEST(StorageDifferentialTest, InterleavedInsertAndLookup) {
  // Interleaving queries with single-atom inserts forces the column store
  // through many seal/merge cycles; results must stay identical at every
  // point, not just at the end.
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Rng rng(7);
  Instance row(&u, StorageKind::kRow);
  Instance column(&u, StorageKind::kColumn);
  std::vector<Term> terms;
  for (int i = 0; i < 12; ++i) {
    terms.push_back(u.InternConstant("t" + std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    Term x = terms[rng.Below(12)];
    Term y = terms[rng.Below(12)];
    Atom atom(e, {x, y});
    EXPECT_EQ(row.AddAtom(atom), column.AddAtom(atom));
    Term probe = terms[rng.Below(12)];
    const int pos = static_cast<int>(rng.Below(2));
    EXPECT_EQ(Materialize(row.AtomsWith(e, pos, probe)),
              Materialize(column.AtomsWith(e, pos, probe)))
        << "after insert " << i;
  }
  ExpectStoresAgree(row, column);
}

TEST(StorageDifferentialTest, WideArityPositions) {
  // Positions beyond 255 exercised on both backends (the historical packed
  // pos-key regression, now part of the shared contract).
  Universe u;
  PredicateId wide = u.InternPredicate("W", 258);
  Term a = u.InternConstant("a"), b = u.InternConstant("b");
  std::vector<Term> args(258, a);
  args[257] = b;
  Instance row(&u, StorageKind::kRow);
  Instance column(&u, StorageKind::kColumn);
  row.AddAtom(Atom(wide, args));
  column.AddAtom(Atom(wide, args));
  for (const Instance* inst : {&row, &column}) {
    ASSERT_EQ(inst->AtomsWith(wide, 257, b).size(), 1u);
    EXPECT_EQ(inst->AtomsWith(wide, 257, b)[0], 1u);
    EXPECT_TRUE(inst->AtomsWith(wide, 257, a).empty());
    EXPECT_EQ(inst->AtomsWith(wide, 0, a).size(), 1u);
  }
}

// --- Chase transcripts ------------------------------------------------------
// Bit-identical chase runs on both backends: the full differential
// observable set (atoms, order, steps, provenance, null numbering), all
// three variants, serial and parallel.

struct EngineRun {
  Universe universe;
  std::unique_ptr<ObliviousChase> chase;
};

void RunChase(std::uint64_t seed, const generators::RuleSetSpec& spec,
              ChaseOptions options, EngineRun* run) {
  Rng rng(seed);
  RuleSet rules = generators::RandomBinaryRuleSet(&run->universe, spec, &rng);
  Instance db = generators::RandomInstance(&run->universe, rules,
                                           /*num_constants=*/5,
                                           /*num_atoms=*/8, &rng);
  run->chase = std::make_unique<ObliviousChase>(db, std::move(rules),
                                                options);
  run->chase->Run();
}

void ExpectTranscriptsIdentical(const EngineRun& a, const EngineRun& b) {
  const ObliviousChase& x = *a.chase;
  const ObliviousChase& y = *b.chase;
  EXPECT_EQ(x.Saturated(), y.Saturated());
  EXPECT_EQ(x.HitBounds(), y.HitBounds());
  ASSERT_EQ(x.StepsExecuted(), y.StepsExecuted());
  EXPECT_EQ(x.TriggersFired(), y.TriggersFired());
  for (std::size_t k = 0; k <= x.StepsExecuted(); ++k) {
    EXPECT_EQ(x.AtomCountAtStep(k), y.AtomCountAtStep(k)) << "step " << k;
  }
  ASSERT_EQ(x.Result().size(), y.Result().size());
  ASSERT_EQ(a.universe.num_nulls(), b.universe.num_nulls());
  for (std::size_t i = 0; i < x.Result().size(); ++i) {
    ASSERT_EQ(x.Result().atoms()[i], y.Result().atoms()[i]) << "atom " << i;
    EXPECT_EQ(x.StepOfAtom(i), y.StepOfAtom(i));
    const auto& px = x.ProvenanceOf(i);
    const auto& py = y.ProvenanceOf(i);
    EXPECT_EQ(px.database, py.database);
    EXPECT_EQ(px.step, py.step);
    EXPECT_EQ(px.rule_index, py.rule_index);
    EXPECT_EQ(px.trigger.entries(), py.trigger.entries());
  }
}

TEST(StorageDifferentialTest, ChaseTranscriptsAllVariantsAndThreads) {
  constexpr ChaseVariant kVariants[] = {ChaseVariant::kOblivious,
                                        ChaseVariant::kSemiOblivious,
                                        ChaseVariant::kRestricted};
  generators::RuleSetSpec spec;
  spec.num_predicates = 3;
  spec.num_rules = 4;
  spec.max_body_atoms = 3;
  spec.datalog_fraction = 0.5;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    for (ChaseVariant variant : kVariants) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " variant " +
                     std::to_string(static_cast<int>(variant)) + " threads " +
                     std::to_string(threads));
        ChaseOptions options{.variant = variant,
                             .exec = {.max_steps = 4, .max_atoms = 4000}};
        options.exec.num_threads = threads;
        EngineRun row, column;
        options.exec.storage = StorageKind::kRow;
        RunChase(seed, spec, options, &row);
        options.exec.storage = StorageKind::kColumn;
        RunChase(seed, spec, options, &column);
        EXPECT_EQ(row.chase->Result().storage(), StorageKind::kRow);
        EXPECT_EQ(column.chase->Result().storage(), StorageKind::kColumn);
        ExpectTranscriptsIdentical(row, column);
      }
    }
  }
}

// --- Bulk construction paths ------------------------------------------------
// Restrict/Map/DisjointUnion now route through one bulk AddAtoms (deferred
// index construction); the results must be indistinguishable from the
// historical atom-by-atom construction on either backend.

TEST(StorageBulkOpsTest, RestrictMapUnionMatchAtomwiseConstruction) {
  for (StorageKind kind : kBackends) {
    SCOPED_TRACE(ToString(kind));
    Universe u;
    PredicateId e = u.InternPredicate("E", 2);
    PredicateId p = u.InternPredicate("P", 1);
    Term a = u.InternConstant("a"), b = u.InternConstant("b"),
         c = u.InternConstant("c");
    Instance inst(&u, kind);
    inst.AddAtoms({Atom(e, {a, b}), Atom(e, {b, c}), Atom(p, {a}),
                   Atom(p, {b})});

    // Restrict.
    Instance restricted = inst.Restrict({p});
    Instance restricted_ref(&u, kind);
    for (const Atom& atom : inst.atoms()) {
      if (atom.pred() == p) restricted_ref.AddAtom(atom);
    }
    ASSERT_EQ(restricted.atoms(), restricted_ref.atoms());
    EXPECT_EQ(restricted.ActiveDomain(), restricted_ref.ActiveDomain());
    EXPECT_EQ(restricted.AtomsWith(p), restricted_ref.AtomsWith(p));
    EXPECT_EQ(restricted.storage(), kind);

    // Map with a non-injective substitution (bulk dedup must kick in).
    Substitution collapse;
    collapse.Bind(b, a);
    Instance mapped = inst.Map(collapse);
    Instance mapped_ref(&u, kind);
    for (const Atom& atom : inst.atoms()) {
      mapped_ref.AddAtom(collapse.Apply(atom));
    }
    ASSERT_EQ(mapped.atoms(), mapped_ref.atoms());
    EXPECT_EQ(mapped.IndexOf(Atom(p, {a})), mapped_ref.IndexOf(Atom(p, {a})));

    // DisjointUnion: null renaming and the atom sequence must match the
    // historical construction (checked against a twin universe so the
    // fresh-null counters line up).
    Universe u2;
    PredicateId e2 = u2.InternPredicate("E", 2);
    PredicateId p2 = u2.InternPredicate("P", 1);
    Term a2 = u2.InternConstant("a"), b2 = u2.InternConstant("b"),
         c2 = u2.InternConstant("c");
    auto build = [&](Universe* uu, PredicateId ee, PredicateId pp, Term aa,
                     Term bb, Term cc) {
      Instance left(uu, kind);
      left.AddAtoms({Atom(ee, {aa, bb}), Atom(pp, {aa})});
      Instance right(uu, kind);
      right.AddAtoms({Atom(ee, {bb, cc}), Atom(pp, {cc})});
      return Instance::DisjointUnion(left, right);
    };
    Instance joined = build(&u, e, p, a, b, c);
    Instance joined_ref = build(&u2, e2, p2, a2, b2, c2);
    ASSERT_EQ(joined.size(), joined_ref.size());
    for (std::size_t i = 0; i < joined.size(); ++i) {
      EXPECT_EQ(joined.atoms()[i], joined_ref.atoms()[i]) << "atom " << i;
    }
  }
}

// --- Column-store internals -------------------------------------------------

TEST(ColumnStoreTest, LazyMergeKeepsRunCountLogarithmic) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Instance inst(&u, StorageKind::kColumn);
  const auto& store = static_cast<const ColumnStore&>(inst.store());
  Rng rng(3);
  // Many small batches, each sealed by the interleaved lookup: the merge
  // discipline must keep the run count O(log n), not one run per batch.
  for (int batch = 0; batch < 64; ++batch) {
    std::vector<Atom> atoms;
    for (int i = 0; i < 16; ++i) {
      atoms.push_back(
          Atom(e, {Term::MakeConstant(rng.Below(5000)),
                   Term::MakeConstant(rng.Below(5000))}));
    }
    inst.AddAtoms(atoms);
    (void)inst.AtomsWith(e, 0, atoms[0].arg(0));  // forces a seal
    EXPECT_LE(store.NumRuns(e), 11u) << "batch " << batch;
  }
  EXPECT_GE(inst.size(), 512u);
}

TEST(ColumnStoreTest, PerPredicateIndexReferenceSurvivesNewPredicates) {
  // AtomsWith(pred) hands out a reference to the predicate's row index;
  // it must stay valid when later insertions introduce higher predicate
  // ids (the per-predicate tables are heap-stable, matching the row
  // store's node-based map).
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Term a = u.InternConstant("a"), b = u.InternConstant("b");
  Instance inst(&u, StorageKind::kColumn);
  inst.AddAtom(Atom(e, {a, b}));
  const std::vector<std::uint32_t>& rows = inst.AtomsWith(e);
  ASSERT_EQ(rows.size(), 1u);
  for (int p = 0; p < 40; ++p) {
    PredicateId fresh = u.InternPredicate("F" + std::to_string(p), 1);
    inst.AddAtom(Atom(fresh, {a}));
  }
  inst.AddAtom(Atom(e, {b, a}));
  EXPECT_EQ(rows.size(), 2u);  // same reference, grown in place
  EXPECT_EQ(rows[0], 1u);
}

TEST(ColumnStoreTest, EmptyAndAbsentPredicates) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  PredicateId lonely = u.InternPredicate("L", 1);
  Instance inst(&u, StorageKind::kColumn);
  Term a = u.InternConstant("a");
  inst.AddAtom(Atom(e, {a, a}));
  EXPECT_TRUE(inst.AtomsWith(lonely).empty());
  EXPECT_TRUE(inst.AtomsWith(lonely, 0, a).empty());
  EXPECT_TRUE(inst.AtomsWithIn(lonely, 0, a, 0, 10).empty());
  EXPECT_FALSE(inst.Contains(Atom(lonely, {a})));
  EXPECT_EQ(inst.IndexOf(Atom(lonely, {a})), SIZE_MAX);
  // The implicit ⊤ is a nullary atom: position lookups must stay empty.
  EXPECT_TRUE(inst.AtomsWith(u.top(), 0, a).empty());
  EXPECT_EQ(inst.AtomsWith(u.top()).size(), 1u);
}

// --- SortedRuns lifetime ----------------------------------------------------

TEST(SortedRunsTest, AbsentPredicateAndNullaryPositionsAreEmpty) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  PredicateId lonely = u.InternPredicate("L", 1);
  for (StorageKind kind : kBackends) {
    SCOPED_TRACE(ToString(kind));
    Instance inst(&u, kind);
    Term a = u.InternConstant("a");
    inst.AddAtom(Atom(e, {a, a}));
    EXPECT_TRUE(inst.store().SortedRuns(lonely, 0).empty());
    EXPECT_TRUE(inst.store().SortedRuns(e, 2).empty());
    EXPECT_TRUE(inst.store().SortedRuns(u.top(), 0).empty());
    EXPECT_EQ(inst.store().SortedRuns(e, 0).size(), 1u);
  }
}

TEST(SortedRunsTest, RowStoreSnapshotSurvivesMutationAndRebuilds) {
  // The row store's SortedRuns hands out a snapshot that shares ownership
  // with the cache: it stays dereferenceable (just stale) across mutation,
  // and a fresh call after growth sees the new atoms.
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Term a = u.InternConstant("a"), b = u.InternConstant("b"),
       c = u.InternConstant("c");
  Instance inst(&u, StorageKind::kRow);
  inst.AddAtom(Atom(e, {b, a}));
  inst.AddAtom(Atom(e, {a, c}));
  SortedRunsView before = inst.store().SortedRuns(e, 0);
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before.term(0), a);  // sorted by term, not insertion order
  EXPECT_EQ(before.term(1), b);
  inst.AddAtom(Atom(e, {a, b}));
  // The old snapshot is stale but safe.
  EXPECT_EQ(before.size(), 2u);
  EXPECT_EQ(before.term(0), a);
  // A fresh view reflects the grown predicate.
  SortedRunsView after = inst.store().SortedRuns(e, 0);
  ASSERT_EQ(after.size(), 3u);
  // Atom indices: ⊤ = 0, E(b,a) = 1, E(a,c) = 2, E(a,b) = 3; equal-term
  // entries ascend by global index.
  EXPECT_EQ(after.term(0), a);
  EXPECT_EQ(after.global(0), 2u);
  EXPECT_EQ(after.term(1), a);
  EXPECT_EQ(after.global(1), 3u);
  EXPECT_EQ(after.term(2), b);
}

// --- Clone equivalence -------------------------------------------------------
// FactStore::Clone() (reached through the Instance copy constructor — the
// path serve/ snapshots take) must preserve atom order, index answers and
// sorted-run content on both backends, and the copy must be fully
// independent of the original afterwards.

TEST(Storage, CloneEquivalenceAndIndependence) {
  for (StorageKind kind : kBackends) {
    SCOPED_TRACE(ToString(kind));
    Universe u;
    PredicateId e = u.InternPredicate("E", 2);
    PredicateId p = u.InternPredicate("P", 1);
    Term a = u.InternConstant("a"), b = u.InternConstant("b"),
         c = u.InternConstant("c");
    Instance inst(&u, kind);
    inst.AddAtom(Atom(e, {a, b}));
    inst.AddAtom(Atom(e, {b, c}));
    inst.AddAtom(Atom(p, {c}));
    inst.AddAtom(Atom(e, {a, c}));

    Instance copy(inst);
    EXPECT_EQ(copy.store().kind(), kind);
    ASSERT_EQ(copy.size(), inst.size());
    for (std::size_t i = 0; i < inst.size(); ++i) {
      EXPECT_EQ(copy.atoms()[i], inst.atoms()[i]) << "atom " << i;
    }
    EXPECT_EQ(Materialize(copy.AtomsWith(e, 0, a)),
              Materialize(inst.AtomsWith(e, 0, a)));
    EXPECT_EQ(Materialize(copy.AtomsWith(e, 1, c)),
              Materialize(inst.AtomsWith(e, 1, c)));
    EXPECT_EQ(CheckAndFlattenRuns(copy.store().SortedRuns(e, 0)),
              CheckAndFlattenRuns(inst.store().SortedRuns(e, 0)));

    // Independence both ways: growing one side is invisible to the other.
    const std::size_t size_before = inst.size();
    copy.AddAtom(Atom(e, {c, a}));
    EXPECT_EQ(inst.size(), size_before);
    EXPECT_EQ(Materialize(inst.AtomsWith(e, 0, c)).size(), 0u);
    inst.AddAtom(Atom(p, {a}));
    EXPECT_EQ(Materialize(copy.AtomsWith(p, 0, a)).size(), 0u);
    EXPECT_EQ(Materialize(copy.AtomsWith(e, 0, c)).size(), 1u);
  }
}

// Cross-backend clone: Instance(other, storage) re-ingests into the target
// backend; content must survive the conversion in both directions.
TEST(Storage, CloneAcrossBackendsPreservesContent) {
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Term a = u.InternConstant("a"), b = u.InternConstant("b");
  for (StorageKind from : kBackends) {
    for (StorageKind to : kBackends) {
      SCOPED_TRACE(ToString(from) + std::string("->") + ToString(to));
      Instance inst(&u, from);
      inst.AddAtom(Atom(e, {a, b}));
      inst.AddAtom(Atom(e, {b, a}));
      Instance converted(inst, to);
      EXPECT_EQ(converted.store().kind(), to);
      ASSERT_EQ(converted.size(), inst.size());
      for (std::size_t i = 0; i < inst.size(); ++i) {
        EXPECT_EQ(converted.atoms()[i], inst.atoms()[i]);
      }
      EXPECT_EQ(Materialize(converted.AtomsWith(e, 0, a)),
                Materialize(inst.AtomsWith(e, 0, a)));
    }
  }
}

// --- Shared membership table -------------------------------------------------
// Both backends answer Contains/IndexOf from FactStore's one flat
// open-addressing table; these drive it through its growth path directly.

TEST(StorageMembershipTest, MembershipSurvivesManyRehashes) {
  for (StorageKind kind : kBackends) {
    SCOPED_TRACE(ToString(kind));
    Universe u;
    PredicateId e = u.InternPredicate("E", 2);
    std::vector<Term> consts;
    for (int c = 0; c < 200; ++c) {
      consts.push_back(u.InternConstant("c" + std::to_string(c)));
    }
    std::unique_ptr<FactStore> store = FactStore::Create(kind);
    // 20000 atoms from an empty table: a dozen doublings, each re-placing
    // every stored index.
    std::vector<Atom> added;
    for (int i = 0; i < 200; ++i) {
      for (int j = 0; j < 100; ++j) {
        const Atom atom(e, {consts[i], consts[(i + 7 * j) % 200]});
        ASSERT_TRUE(store->AddAtom(atom));
        added.push_back(atom);
        // Re-adding is rejected and changes nothing.
        ASSERT_FALSE(store->AddAtom(atom));
      }
      // Spot-check the oldest and the newest atom after every batch.
      ASSERT_EQ(store->IndexOf(added.front()), 0u);
      ASSERT_EQ(store->IndexOf(added.back()), added.size() - 1);
    }
    ASSERT_EQ(store->size(), added.size());
    for (std::size_t i = 0; i < added.size(); ++i) {
      ASSERT_TRUE(store->Contains(added[i])) << "atom " << i;
      ASSERT_EQ(store->IndexOf(added[i]), i) << "atom " << i;
    }
  }
}

TEST(StorageMembershipTest, AbsentAtomsAreNotFound) {
  for (StorageKind kind : kBackends) {
    SCOPED_TRACE(ToString(kind));
    Universe u;
    PredicateId e = u.InternPredicate("E", 2);
    PredicateId p = u.InternPredicate("P", 1);
    Term a = u.InternConstant("a"), b = u.InternConstant("b");
    std::unique_ptr<FactStore> store = FactStore::Create(kind);
    // An empty store has no table yet.
    EXPECT_EQ(store->IndexOf(Atom(e, {a, b})), SIZE_MAX);
    EXPECT_FALSE(store->Contains(Atom(e, {a, b})));
    store->AddAtom(Atom(e, {a, b}));
    store->AddAtom(Atom(p, {a}));
    // Same terms, other order / other predicate: absent.
    EXPECT_EQ(store->IndexOf(Atom(e, {b, a})), SIZE_MAX);
    EXPECT_EQ(store->IndexOf(Atom(p, {b})), SIZE_MAX);
    EXPECT_FALSE(store->Contains(Atom(e, {a, a})));
    EXPECT_EQ(store->IndexOf(Atom(p, {a})), 1u);
  }
}

TEST(StorageMembershipTest, CloneIsIndependentOfItsSource) {
  for (StorageKind kind : kBackends) {
    SCOPED_TRACE(ToString(kind));
    Universe u;
    PredicateId e = u.InternPredicate("E", 2);
    std::vector<Term> consts;
    for (int c = 0; c < 100; ++c) {
      consts.push_back(u.InternConstant("c" + std::to_string(c)));
    }
    std::unique_ptr<FactStore> original = FactStore::Create(kind);
    for (int i = 0; i < 99; ++i) {
      original->AddAtom(Atom(e, {consts[i], consts[i + 1]}));
    }
    std::unique_ptr<FactStore> clone = original->Clone();
    EXPECT_EQ(clone->kind(), kind);
    ASSERT_EQ(clone->size(), original->size());
    for (std::size_t i = 0; i < original->size(); ++i) {
      EXPECT_EQ(clone->IndexOf(original->atoms()[i]), i);
    }
    // Grow the clone well past its copied table: the original's table and
    // atoms must not see any of it.
    std::vector<Atom> extra;
    for (int i = 0; i < 100; ++i) {
      for (int j = 0; j < 10; ++j) {
        extra.push_back(Atom(e, {consts[i], consts[(i + 11 + j) % 100]}));
      }
    }
    for (const Atom& atom : extra) clone->AddAtom(atom);
    EXPECT_EQ(original->size(), 99u);
    for (const Atom& atom : extra) {
      if (clone->IndexOf(atom) >= 99) {
        EXPECT_FALSE(original->Contains(atom));
        EXPECT_EQ(original->IndexOf(atom), SIZE_MAX);
      }
    }
    // And the other way round: the original grows on its own.
    const Atom fresh(e, {consts[0], consts[0]});
    ASSERT_TRUE(original->AddAtom(fresh));
    EXPECT_EQ(original->IndexOf(fresh), 99u);
    EXPECT_NE(clone->IndexOf(fresh), 99u);
    for (std::size_t i = 0; i < 99; ++i) {
      EXPECT_EQ(original->IndexOf(clone->atoms()[i]), i);
    }
  }
}

// --- IndexView generation guard ---------------------------------------------
// Borrowed views are invalidated by mutation; in debug builds the captured
// generation counter turns a deref of a stale view into a CHECK failure.

#ifndef NDEBUG
using StorageDeathTest = ::testing::Test;

TEST(StorageDeathTest, StaleBorrowedViewDiesOnDeref) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  for (StorageKind kind : kBackends) {
    SCOPED_TRACE(ToString(kind));
    Universe u;
    PredicateId e = u.InternPredicate("E", 2);
    Term a = u.InternConstant("a"), b = u.InternConstant("b");
    Instance inst(&u, kind);
    inst.AddAtom(Atom(e, {a, b}));
    IndexView view = inst.AtomsWithIn(e, 0, static_cast<std::uint32_t>(
                                                inst.size()));
    EXPECT_EQ(view.size(), 1u);  // valid while the store is unchanged
    inst.AddAtom(Atom(e, {b, a}));
    EXPECT_DEATH((void)view.size(), "CHECK failed");
  }
}

TEST(StorageDeathTest, OwnedViewsSurviveMutation) {
  // Owning views (column-store point lookups) hold a private buffer; they
  // must stay dereferenceable across mutations.
  Universe u;
  PredicateId e = u.InternPredicate("E", 2);
  Term a = u.InternConstant("a"), b = u.InternConstant("b");
  Instance inst(&u, StorageKind::kColumn);
  inst.AddAtom(Atom(e, {a, b}));
  IndexView view = inst.AtomsWith(e, 0, a);
  ASSERT_EQ(view.size(), 1u);
  inst.AddAtom(Atom(e, {b, a}));
  EXPECT_EQ(view.size(), 1u);
  EXPECT_EQ(view[0], 1u);
}
#endif  // NDEBUG

}  // namespace
}  // namespace bddfc
