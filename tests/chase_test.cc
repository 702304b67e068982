// Unit tests for the chase engine, including the paper's Example 1 and the
// structural facts of Section 5 (timestamps, DAG shape, Lemma 33).

#include <gtest/gtest.h>

#include "chase/chase.h"
#include "chase/rule_scheduler.h"
#include "homomorphism/homomorphism.h"
#include "logic/parser.h"
#include "obs/obs.h"

namespace bddfc {
namespace {

class ChaseTest : public ::testing::Test {
 protected:
  Universe u_;
};

TEST_F(ChaseTest, SingleRuleFiresOnce) {
  // Observation 13: a ⊤-bodied rule triggers exactly once.
  RuleSet rules = MustParseRuleSet(&u_, "true -> E(x,y)");
  Instance db(&u_);
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 10}});
  chase.Run();
  EXPECT_TRUE(chase.Saturated());
  EXPECT_EQ(chase.TriggersFired(), 1u);
  PredicateId e = u_.FindPredicate("E");
  EXPECT_EQ(chase.Result().AtomsWith(e).size(), 1u);
}

TEST_F(ChaseTest, DatalogSaturation) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> E(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c). E(c,d).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 32}});
  chase.Run();
  EXPECT_TRUE(chase.Saturated());
  // Transitive closure of the path a->b->c->d: 6 edges.
  PredicateId e = u_.FindPredicate("E");
  EXPECT_EQ(chase.Result().AtomsWith(e).size(), 6u);
}

TEST_F(ChaseTest, Example1NeverEntailsLoop) {
  // Example 1: E(a,b), successor rule + transitivity. The chase (of any
  // finite prefix) never entails ∃x E(x,x).
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 5, .max_atoms = 20000}});
  chase.Run();
  PredicateId e = u_.FindPredicate("E");
  Cq loop = LoopQuery(&u_, e);
  EXPECT_FALSE(Entails(chase.Result(), loop));
  // And the chase keeps growing (not saturated).
  EXPECT_FALSE(chase.Saturated());
  EXPECT_GT(chase.Result().AtomsWith(e).size(), 5u);
}

TEST_F(ChaseTest, BddifiedExample1EntailsLoop) {
  // The bdd variant from the introduction: replacing transitivity with
  // E(x,x'), E(y,y') -> E(x,y') makes the loop derivable from any edge —
  // Property (p) in action.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,x1), E(y,y1) -> E(x,y1)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 3, .max_atoms = 50000}});
  chase.Run();
  PredicateId e = u_.FindPredicate("E");
  EXPECT_TRUE(Entails(chase.Result(), LoopQuery(&u_, e)));
}

TEST_F(ChaseTest, TimestampsAndFrontiers) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 3}});
  chase.Run();
  // Database terms have timestamp 0.
  Term a = u_.FindConstant("a");
  Term b = u_.FindConstant("b");
  EXPECT_EQ(chase.TimestampOf(a), 0);
  EXPECT_EQ(chase.TimestampOf(b), 0);
  EXPECT_FALSE(chase.InfoOf(a).has_value());
  // Chase terms have increasing timestamps and their frontier is the
  // previous node of the chain.
  int seen_depth[4] = {0, 0, 0, 0};
  for (Term t : chase.Result().ActiveDomain()) {
    const std::optional<ChaseTermInfo> info = chase.InfoOf(t);
    if (!info.has_value()) continue;
    ASSERT_GE(info->timestamp, 1);
    ASSERT_LE(info->timestamp, 3);
    ++seen_depth[info->timestamp];
    ASSERT_EQ(info->frontier.size(), 1u);
    EXPECT_EQ(chase.TimestampOf(info->frontier[0]), info->timestamp - 1);
  }
  EXPECT_EQ(seen_depth[1], 1);
  EXPECT_EQ(seen_depth[2], 1);
  EXPECT_EQ(seen_depth[3], 1);
}

TEST_F(ChaseTest, StepPrefixesAreMonotone) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 4}});
  chase.Run();
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_LE(chase.AtomCountAtStep(k), chase.AtomCountAtStep(k + 1));
    Instance prefix = chase.Prefix(k);
    EXPECT_EQ(prefix.size(), chase.AtomCountAtStep(k));
  }
}

TEST_F(ChaseTest, ForwardExistentialChaseIsDag) {
  // Observation 35: with forward-existential rules and no database edges,
  // the chase is a DAG.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "true -> A(x)\n"
                                   "A(x) -> E(x,y), A(y)\n");
  Instance db(&u_);
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 5}});
  chase.Run();
  EXPECT_TRUE(chase.IsDag());
}

TEST_F(ChaseTest, LoopBreaksDag) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,y)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 2}});
  chase.Run();
  EXPECT_FALSE(chase.IsDag());
}

TEST_F(ChaseTest, RestrictedChaseTerminatesWhenObliviousDoesNot) {
  // E(x,y) -> E(y,x): oblivious keeps inventing, restricted saturates.
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,a).");
  ObliviousChase restricted(
      db, rules, {.variant = ChaseVariant::kRestricted, .exec = {.max_steps = 50}});
  restricted.Run();
  EXPECT_TRUE(restricted.Saturated());
  ObliviousChase oblivious(db, rules, {.exec = {.max_steps = 50, .max_atoms = 500}});
  oblivious.Run();
  EXPECT_FALSE(oblivious.Saturated());
}

TEST_F(ChaseTest, ChaseThenDatalogMatchesLemma33Shape) {
  // Lemma 33: Ch(S) ↔ Ch(Ch(S∃), S_DL) for quick rule sets. Here we only
  // check the engine plumbing: Datalog applied after the existential part
  // produces a hom-equivalent result for a quick set.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "A(x) -> E(x,y), A(y)\n"
                                   "E(x,y) -> F(x,y)\n");
  Instance db = MustParseInstance(&u_, "A(a).");
  auto [datalog, existential] = SplitDatalog(rules);
  Instance combined = Chase(db, rules, {.exec = {.max_steps = 6}});
  Instance staged = ChaseThenDatalog(db, existential, datalog,
                                     {.exec = {.max_steps = 6}});
  EXPECT_TRUE(MapsInto(staged, combined) || MapsInto(combined, staged));
}

TEST_F(ChaseTest, MaxAtomBoundStopsRun) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z), E(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 100, .max_atoms = 50}});
  chase.Run();
  EXPECT_TRUE(chase.HitBounds());
  EXPECT_LE(chase.Result().size(), 60u);  // bound plus one step's slack
}

TEST_F(ChaseTest, ExhaustedBoundDoesNotCountPhantomStep) {
  // Regression: when max_atoms is already exhausted before any trigger of
  // the next step fires, no step must be counted and no duplicate entry
  // pushed onto the per-step atom counts.
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");  // 2 atoms with ⊤
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 10, .max_atoms = 2}});
  chase.Run();
  EXPECT_EQ(chase.StepsExecuted(), 0u);
  EXPECT_TRUE(chase.HitBounds());
  EXPECT_FALSE(chase.LastStepTruncated());  // nothing fired at all
  EXPECT_FALSE(chase.Saturated());
  EXPECT_EQ(chase.TriggersFired(), 0u);
  EXPECT_EQ(chase.AtomCountAtStep(0), 2u);
  EXPECT_EQ(chase.Result().size(), 2u);
}

TEST_F(ChaseTest, PartiallyFiredStepIsMarkedTruncated) {
  // Step 1 has two triggers on the path a->b->c->d but the bound admits
  // only one: the step counts, and it is flagged as truncated.
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> F(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c). E(c,d).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 10, .max_atoms = 5}});
  chase.Run();
  EXPECT_EQ(chase.StepsExecuted(), 1u);
  EXPECT_TRUE(chase.HitBounds());
  EXPECT_TRUE(chase.LastStepTruncated());
  EXPECT_EQ(chase.TriggersFired(), 1u);
  EXPECT_EQ(chase.AtomCountAtStep(1), 5u);
}

TEST_F(ChaseTest, CompleteRunIsNotTruncated) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> E(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c). E(c,d).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 32}});
  chase.Run();
  EXPECT_TRUE(chase.Saturated());
  EXPECT_FALSE(chase.HitBounds());
  EXPECT_FALSE(chase.LastStepTruncated());
}

TEST_F(ChaseTest, NaiveEnumerationFlagKeepsEngineBehavior) {
  // The escape hatch re-enumerates everything but must not change any
  // observable: the differential suite covers this exhaustively; here we
  // pin the basics on Example 1.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "E(x,y) -> E(y,z)\n"
                                   "E(x,y), E(y,z) -> E(x,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase naive(db, rules,
                       {.naive_enumeration = true, .exec = {.max_steps = 4}});
  naive.Run();
  // Same universe: run the delta engine on a twin universe so the labeled
  // nulls are invented with identical indices.
  Universe u2;
  RuleSet rules2 = MustParseRuleSet(&u2,
                                    "E(x,y) -> E(y,z)\n"
                                    "E(x,y), E(y,z) -> E(x,z)\n");
  Instance db2 = MustParseInstance(&u2, "E(a,b).");
  ObliviousChase delta(db2, rules2, {.exec = {.max_steps = 4}});
  delta.Run();
  EXPECT_EQ(naive.TriggersFired(), delta.TriggersFired());
  EXPECT_EQ(naive.Result().size(), delta.Result().size());
  ASSERT_EQ(naive.Result().atoms().size(), delta.Result().atoms().size());
  for (std::size_t i = 0; i < naive.Result().atoms().size(); ++i) {
    EXPECT_EQ(naive.Result().atoms()[i], delta.Result().atoms()[i]);
  }
}

TEST_F(ChaseTest, ProvenanceTracksTriggers) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "[succ] E(x,y) -> E(y,z)\n");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 2}});
  chase.Run();
  // Atom 0 is ⊤, atom 1 is E(a,b): database provenance.
  EXPECT_TRUE(chase.ProvenanceOf(1).database);
  // Atom 2 is the first derived edge.
  const auto& p = chase.ProvenanceOf(2);
  EXPECT_FALSE(p.database);
  EXPECT_EQ(p.step, 1);
  EXPECT_EQ(p.rule_index, 0u);
}

TEST_F(ChaseTest, ExplainRendersDerivationTree) {
  RuleSet rules = MustParseRuleSet(&u_,
                                   "[pq] P(x) -> Q(x)\n"
                                   "[qr] Q(x) -> R(x)\n");
  Instance db = MustParseInstance(&u_, "P(a).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 4}});
  chase.Run();
  PredicateId r = u_.FindPredicate("R");
  Term a = u_.FindConstant("a");
  std::string explanation = chase.Explain(Atom(r, {a}));
  // R(a) via qr from Q(a) via pq from database P(a).
  EXPECT_NE(explanation.find("R(a)"), std::string::npos);
  EXPECT_NE(explanation.find("rule qr"), std::string::npos);
  EXPECT_NE(explanation.find("Q(a)"), std::string::npos);
  EXPECT_NE(explanation.find("rule pq"), std::string::npos);
  EXPECT_NE(explanation.find("[database]"), std::string::npos);
}

TEST_F(ChaseTest, ExplainDepthLimit) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 5}});
  chase.Run();
  // The deepest edge: last atom.
  const Atom& deepest = chase.Result().atoms().back();
  std::string shallow = chase.Explain(deepest, 1);
  EXPECT_NE(shallow.find("..."), std::string::npos);
  std::string full = chase.Explain(deepest, 10);
  EXPECT_EQ(full.find("..."), std::string::npos);
  EXPECT_NE(full.find("[database]"), std::string::npos);
}

TEST_F(ChaseTest, ExplainUnknownAtom) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 1}});
  chase.Run();
  PredicateId e = u_.FindPredicate("E");
  Term a = u_.FindConstant("a");
  std::string text = chase.Explain(Atom(e, {a, a}));
  EXPECT_NE(text.find("NOT IN CHASE"), std::string::npos);
}

TEST_F(ChaseTest, SemiObliviousCollapsesNonFrontierVariables) {
  // Rule with a non-frontier body variable: E(x,y), E(x,z) -> E(y,w).
  // The oblivious chase fires once per (x,y,z) triple; the semi-oblivious
  // chase once per frontier image (y).
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(x,z) -> F(y,w)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(a,c). E(a,d).");
  PredicateId f = u_.FindPredicate("F");

  ObliviousChase oblivious(db, rules, {.exec = {.max_steps = 2}});
  oblivious.Run();
  ObliviousChase semi(db, rules,
                      {.variant = ChaseVariant::kSemiOblivious,
                       .exec = {.max_steps = 2}});
  semi.Run();
  // Oblivious: 3 choices of y × 3 of z = 9 triggers; semi: 3 frontier
  // images.
  EXPECT_EQ(oblivious.Result().AtomsWith(f).size(), 9u);
  EXPECT_EQ(semi.Result().AtomsWith(f).size(), 3u);
  // Same universal model up to homomorphic equivalence.
  EXPECT_TRUE(MapsInto(semi.Result(), oblivious.Result()));
  EXPECT_TRUE(MapsInto(oblivious.Result(), semi.Result()));
}

TEST_F(ChaseTest, SemiObliviousStillFiresDistinctFrontiers) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> F(y,w)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(c,d).");
  ObliviousChase semi(db, rules,
                      {.variant = ChaseVariant::kSemiOblivious,
                       .exec = {.max_steps = 2}});
  semi.Run();
  PredicateId f = u_.FindPredicate("F");
  EXPECT_EQ(semi.Result().AtomsWith(f).size(), 2u);
}

TEST_F(ChaseTest, AddBaseFactsResumesAfterSaturation) {
  // Saturate a Datalog transitive closure, insert a bridging edge, resume:
  // only the new closure atoms are derived, and the result matches a
  // from-scratch chase of the extended instance exactly (Datalog invents
  // no nulls, so plain atom-set equality holds).
  const char* rules_text = "E(x,y), E(y,z) -> E(x,z)";
  RuleSet rules = MustParseRuleSet(&u_, rules_text);
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c). E(d,e).");
  ObliviousChase chase(db, rules, {});
  chase.Run();
  ASSERT_TRUE(chase.Saturated());
  const std::size_t atoms_before = chase.Result().size();
  const std::size_t triggers_before = chase.TriggersFired();

  PredicateId e = u_.FindPredicate("E");
  Term c = u_.InternConstant("c");
  Term d = u_.InternConstant("d");
  EXPECT_EQ(chase.AddBaseFacts({Atom(e, {c, d})}), 1u);
  EXPECT_FALSE(chase.Saturated());
  chase.Run();
  EXPECT_TRUE(chase.Saturated());
  EXPECT_GT(chase.Result().size(), atoms_before + 1);
  EXPECT_GT(chase.TriggersFired(), triggers_before);

  Instance extended = MustParseInstance(
      &u_, "E(a,b). E(b,c). E(d,e). E(c,d).");
  ObliviousChase scratch(extended, rules, {});
  scratch.Run();
  ASSERT_TRUE(scratch.Saturated());
  EXPECT_EQ(chase.Result().size(), scratch.Result().size());
  for (const Atom& atom : scratch.Result().atoms()) {
    EXPECT_TRUE(chase.Result().Contains(atom));
  }
  EXPECT_EQ(chase.CanonicalAtoms(), scratch.CanonicalAtoms());
}

TEST_F(ChaseTest, AddBaseFactsSkipsKnownAtoms) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y), E(y,z) -> E(x,z)");
  Instance db = MustParseInstance(&u_, "E(a,b). E(b,c).");
  ObliviousChase chase(db, rules, {});
  chase.Run();
  ASSERT_TRUE(chase.Saturated());
  PredicateId e = u_.FindPredicate("E");
  Term a = u_.InternConstant("a");
  Term b = u_.InternConstant("b");
  Term c = u_.InternConstant("c");
  // E(a,b) is a database atom, E(a,c) was derived: both add nothing, and
  // the chase stays saturated.
  EXPECT_EQ(chase.AddBaseFacts({Atom(e, {a, b}), Atom(e, {a, c})}), 0u);
  EXPECT_TRUE(chase.Saturated());
}

TEST_F(ChaseTest, AddBaseFactsWithExistentialRules) {
  // Resume across null-inventing rules: the incremental result must be
  // isomorphic (CanonicalAtoms-equal) to the from-scratch chase — null
  // *numbering* differs, which plain atom equality would reject.
  const char* rules_text =
      "Student(s) -> Advises(p,s), Prof(p)\n"
      "Advises(p,s), Advises(q,s) -> Colleague(p,q)\n";
  RuleSet rules = MustParseRuleSet(&u_, rules_text);
  Instance db = MustParseInstance(&u_, "Student(alice).");
  ObliviousChase chase(db, rules, {});
  chase.Run();
  ASSERT_TRUE(chase.Saturated());

  PredicateId student = u_.FindPredicate("Student");
  Term bob = u_.InternConstant("bob");
  EXPECT_EQ(chase.AddBaseFacts({Atom(student, {bob})}), 1u);
  chase.Run();
  ASSERT_TRUE(chase.Saturated());

  Instance extended = MustParseInstance(&u_, "Student(alice). Student(bob).");
  ObliviousChase scratch(extended, rules, {});
  scratch.Run();
  ASSERT_TRUE(scratch.Saturated());
  EXPECT_EQ(chase.CanonicalAtoms(), scratch.CanonicalAtoms());
}

TEST_F(ChaseTest, CanonicalAtomsInvariantUnderDatabaseOrder) {
  // The same database parsed in two different orders chases to different
  // null numberings; CanonicalAtoms erases exactly that difference.
  RuleSet rules1 = MustParseRuleSet(&u_, "P(x,y) -> Q(y,z)");
  Instance db1 = MustParseInstance(&u_, "P(a,b). P(b,c).");
  ObliviousChase chase1(db1, rules1, {});
  chase1.Run();

  Universe u2;
  RuleSet rules2 = MustParseRuleSet(&u2, "P(x,y) -> Q(y,z)");
  Instance db2 = MustParseInstance(&u2, "P(b,c). P(a,b).");
  ObliviousChase chase2(db2, rules2, {});
  chase2.Run();

  EXPECT_EQ(chase1.CanonicalAtoms(), chase2.CanonicalAtoms());
}

TEST_F(ChaseTest, ChaseOfTopOnlyInstance) {
  // Ch(R) := Ch({⊤}, R) — the Section 4.1 normal form.
  RuleSet rules = MustParseRuleSet(&u_,
                                   "true -> E(x,y)\n"
                                   "E(x,y) -> E(y,z)\n");
  Instance db(&u_);
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 4}});
  chase.Run();
  PredicateId e = u_.FindPredicate("E");
  EXPECT_EQ(chase.Result().AtomsWith(e).size(), 4u);
}

// --- Trigger ledger edge cases ----------------------------------------------

TEST_F(ChaseTest, SemiObliviousEmptyFrontierFiresOnce) {
  // P(x) -> Q(y) has an empty frontier: under the semi-oblivious identity
  // every body image is the same (zero-width) trigger, so it fires once
  // and invents one null however many P facts there are — naive or not.
  for (bool naive : {false, true}) {
    SCOPED_TRACE(naive ? "naive" : "delta");
    Universe u;
    RuleSet rules = MustParseRuleSet(&u, "P(x) -> Q(y)");
    std::string facts;
    for (int i = 0; i < 50; ++i) facts += "P(c" + std::to_string(i) + "). ";
    Instance db = MustParseInstance(&u, facts);
    ChaseOptions options;
    options.variant = ChaseVariant::kSemiOblivious;
    options.naive_enumeration = naive;
    options.exec.max_steps = 8;
    ObliviousChase chase(db, rules, options);
    chase.Run();
    EXPECT_TRUE(chase.Saturated());
    EXPECT_EQ(chase.TriggersFired(), 1u);
    EXPECT_EQ(u.num_nulls(), 1u);
    EXPECT_EQ(chase.Result().AtomsWith(u.FindPredicate("Q")).size(), 1u);
    const RuleSchedulerStats& stats = chase.scheduler().stats();
    EXPECT_EQ(stats.candidates[0] - stats.ledger_rejected[0], 1u);
  }
}

// --- Provenance records -------------------------------------------------------

// Checks every null of `own` against its own provenance and against a
// second chase `other` on the same universe; returns the null count.
std::size_t CheckOwnNulls(const ObliviousChase& own,
                          const ObliviousChase& other) {
  std::size_t nulls = 0;
  for (Term t : own.Result().ActiveDomain()) {
    if (!t.IsNull()) {
      EXPECT_EQ(own.TimestampOf(t), 0);
      continue;
    }
    ++nulls;
    EXPECT_FALSE(other.InfoOf(t).has_value());
    EXPECT_EQ(other.TimestampOf(t), 0);
    const std::optional<ChaseTermInfo> info = own.InfoOf(t);
    if (!info.has_value()) {
      ADD_FAILURE() << "null without provenance";
      continue;
    }
    EXPECT_EQ(own.TimestampOf(t), info->timestamp);
    // The creating trigger maps an existential to t, and its body image
    // lies in the chase, derived strictly before TS(t).
    const Rule& rule = own.rules()[info->rule_index];
    bool invents_t = false;
    for (Term x : rule.existentials()) {
      invents_t = invents_t || info->trigger.Apply(x) == t;
    }
    EXPECT_TRUE(invents_t);
    for (const Atom& body : rule.body()) {
      const std::size_t idx = own.Result().IndexOf(info->trigger.Apply(body));
      EXPECT_NE(idx, SIZE_MAX);
      if (idx != SIZE_MAX) {
        EXPECT_LT(own.StepOfAtom(idx), info->timestamp);
      }
    }
    // TS(t) is the first step whose atoms mention t.
    int first = -1;
    for (std::size_t i = 0; i < own.Result().size(); ++i) {
      if (own.Result().atoms()[i].Mentions(t)) {
        first = own.StepOfAtom(i);
        break;
      }
    }
    EXPECT_EQ(first, info->timestamp);
  }
  return nulls;
}

TEST_F(ChaseTest, InterleavedChasesOnOneUniverseKeepTheirProvenance) {
  // Two chases draw fresh nulls from one universe in interleaved rounds, so
  // each chase's nulls ascend but are not contiguous. Every lookup must
  // still find exactly the chase's own nulls with their creating triggers.
  RuleSet chain = MustParseRuleSet(&u_, "E(x,y) -> E(y,z)");
  RuleSet pq = MustParseRuleSet(&u_,
                                "P(x) -> Q(x,y)\n"
                                "Q(x,y) -> P(y)\n");
  ObliviousChase a(MustParseInstance(&u_, "E(a,b)."), chain,
                   {.exec = {.max_steps = 6}});
  ObliviousChase b(MustParseInstance(&u_, "P(c). P(d)."), pq,
                   {.exec = {.max_steps = 6}});
  for (std::size_t k = 1; k <= 6; ++k) {
    a.RunSteps(k);
    b.RunSteps(k);
  }
  ASSERT_EQ(a.StepsExecuted(), 6u);
  ASSERT_EQ(b.StepsExecuted(), 6u);
  const std::size_t a_nulls = CheckOwnNulls(a, b);
  const std::size_t b_nulls = CheckOwnNulls(b, a);
  EXPECT_EQ(a_nulls, 6u);
  EXPECT_EQ(b_nulls, 6u);
  EXPECT_EQ(a_nulls + b_nulls, u_.num_nulls());
}

TEST_F(ChaseTest, AddedBaseFactsReportDatabaseProvenance) {
  RuleSet rules = MustParseRuleSet(&u_, "E(x,y) -> F(y,z)");
  Instance db = MustParseInstance(&u_, "E(a,b).");
  ObliviousChase chase(db, rules, {.exec = {.max_steps = 8}});
  chase.Run();
  ASSERT_TRUE(chase.Saturated());
  PredicateId e = u_.FindPredicate("E");
  Term c = u_.InternConstant("c");
  Term d = u_.InternConstant("d");
  const Atom fact(e, {c, d});
  ASSERT_EQ(chase.AddBaseFacts({fact}), 1u);
  const std::size_t idx = chase.Result().IndexOf(fact);
  ASSERT_NE(idx, SIZE_MAX);
  EXPECT_TRUE(chase.ProvenanceOf(idx).database);
  EXPECT_EQ(chase.StepOfAtom(idx), 0);
  chase.Run();
  // The resumed round derives F(d, n) from the inserted fact.
  ASSERT_EQ(chase.Result().size(), idx + 2);
  const ObliviousChase::AtomProvenance p = chase.ProvenanceOf(idx + 1);
  EXPECT_FALSE(p.database);
  EXPECT_EQ(p.rule_index, 0u);
  EXPECT_EQ(p.trigger.Apply(u_.FindVariable("y")), d);
  EXPECT_TRUE(chase.ProvenanceOf(idx).database);
}

// --- Per-rule work counters ---------------------------------------------------

TEST_F(ChaseTest, PerRuleCountersAccountForEveryAtom) {
  // The university ontology of examples/, semi-oblivious.
  RuleSet rules = MustParseRuleSet(
      &u_,
      "[advisor]    Student(s) -> Advises(p,s), Prof(p)\n"
      "[dept]       Prof(p) -> WorksIn(p,d), Dept(d)\n"
      "[coadvised]  Advises(p,s), Advises(q,s) -> Colleague(p,q)\n"
      "[colltrans]  Colleague(p,q), Colleague(q,r) -> Colleague(p,r)\n");
  Instance db = MustParseInstance(
      &u_,
      "Student(alice). Student(bob). Student(carol).\n"
      "Prof(turing).\n"
      "Advises(turing,alice). Advises(turing,bob).\n");
  obs::MetricsRegistry metrics;
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.exec.max_steps = 32;
  options.exec.metrics = &metrics;
  ObliviousChase chase(db, rules, options);
  chase.Run();
  ASSERT_TRUE(chase.Saturated());
  const RuleSchedulerStats& stats = chase.scheduler().stats();
  std::size_t atoms_new = 0, candidates = 0, rejected = 0, duplicates = 0;
  for (std::size_t r = 0; r < rules.size(); ++r) {
    SCOPED_TRACE(rules[r].label());
    EXPECT_GE(stats.candidates[r] - stats.ledger_rejected[r], stats.fired[r]);
    EXPECT_GT(stats.fired[r], 0u);
    atoms_new += stats.atoms_new[r];
    candidates += stats.candidates[r];
    rejected += stats.ledger_rejected[r];
    duplicates += stats.atoms_duplicate[r];
  }
  EXPECT_EQ(atoms_new, chase.Result().size() - db.size());
  EXPECT_GT(duplicates, 0u);
  // The registry mirrors the totals.
  EXPECT_EQ(metrics.GetCounter("chase.atoms_new")->Value(), atoms_new);
  EXPECT_EQ(metrics.GetCounter("chase.candidates")->Value(), candidates);
  EXPECT_EQ(metrics.GetCounter("chase.ledger_rejected")->Value(), rejected);
  EXPECT_EQ(metrics.GetCounter("chase.atoms_duplicate")->Value(), duplicates);
}

}  // namespace
}  // namespace bddfc
