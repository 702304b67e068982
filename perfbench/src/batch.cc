// The batch workloads (tc-tournament, onto-materialize): pass after pass, a
// session is set up from text and asked every query. The traced run then
// replays reads and adds through the server's layer calls on the workload's
// KB.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "logic/parser.h"
#include "obs/obs.h"
#include "requests.h"
#include "runners.h"

namespace perfbench {

namespace {

using Scope = Tracer::Scope;

double Seconds(Clock::time_point a) { return MsBetween(a, Clock::now()) / 1e3; }

double Counter(const std::vector<std::pair<std::string, double>>& snap,
               const char* name) {
  for (const auto& [key, value] : snap) {
    if (key == name) return value;
  }
  return 0;
}

// Passes run until this share of --seconds is spent (at least kMinPasses);
// the traced run spends the rest on the replay.
constexpr double kPassShare = 0.9;
constexpr double kTracedPassShare = 0.5;
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 5;
constexpr int kMaxPasses = 100;
// Extra set-ups (parse + construct only) after each untraced pass, up to
// kSetupsPerPass samples or kSetupMs: they steady the set-up median, most
// of all where a set-up takes well under a millisecond, and spread it over
// the run, so a few slow seconds of the machine move few samples.
constexpr std::size_t kSetupsPerPass = 50;
constexpr double kSetupMs = 150;
// The traced replay: the first kReplayReads reads of the workload's mix,
// with kReplayAdds adds spread evenly among them.
constexpr std::size_t kReplayReads = 1000;
constexpr std::size_t kReplayAdds = 8;

}  // namespace

PassTimes RunPass(const Workload& w, const bddfc::ReasonerOptions& options,
                  Tracer* tracer, bool check, Result* result,
                  LayerFigures* layers) {
  PassTimes times;
  ReleaseFreeMemory();
  const auto before = bddfc::obs::Metrics().Snapshot(true);
  auto universe = std::make_unique<bddfc::Universe>();
  const Clock::time_point t0 = Clock::now();
  std::optional<bddfc::RuleSet> rules;
  std::optional<bddfc::Instance> facts;
  std::vector<bddfc::Cq> queries;
  {
    Scope span(tracer, "parse", 0);
    rules = bddfc::ParseRuleSet(universe.get(), w.rules);
    facts = bddfc::ParseInstance(universe.get(), w.facts);
    for (const BatchQuery& q : w.queries) {
      std::optional<bddfc::Cq> cq = bddfc::ParseCq(universe.get(), q.text);
      if (cq.has_value()) queries.push_back(std::move(*cq));
    }
  }
  if (!rules.has_value() || !facts.has_value() ||
      queries.size() != w.queries.size()) {
    result->Mismatch("the workload text does not parse");
    return times;
  }
  const std::size_t base_atoms = facts->size();
  std::unique_ptr<bddfc::Reasoner> reasoner;
  {
    Scope span(tracer, "session.init", 0);
    reasoner = std::make_unique<bddfc::Reasoner>(*facts, std::move(*rules),
                                                 options);
  }
  times.setup_s = Seconds(t0);
  facts.reset();

  const Clock::time_point t1 = Clock::now();
  if (tracer != nullptr) {
    {
      Scope span(tracer, "analysis", 0);
      reasoner->analysis();
    }
    const double rss = CurrentRssMb();
    {
      Scope span(tracer, "chase", 0);
      reasoner->Materialize();
    }
    layers->rss_delta_mb = CurrentRssMb() - rss;
  }
  std::vector<bddfc::PreparedQuery> plans;
  std::vector<std::vector<bddfc::AnswerTuple>> answers;
  for (const bddfc::Cq& cq : queries) {
    {
      Scope span(tracer, "prepare", 0);
      plans.push_back(reasoner->Prepare(cq));
    }
    Scope span(tracer, "query.eval", 0);
    answers.push_back(plans.back().All());
  }
  times.answer_s = Seconds(t1);

  if (tracer != nullptr) {
    const bddfc::ReasonerStats& stats = reasoner->stats();
    const auto after = bddfc::obs::Metrics().Snapshot(true);
    layers->parse_ms = tracer->DurationsMs("parse").back();
    layers->parse_mb = (w.rules.size() + w.facts.size()) / 1e6;
    layers->init_ms = tracer->DurationsMs("session.init").back();
    layers->analysis_ms = tracer->DurationsMs("analysis").back();
    layers->chase_ms = tracer->DurationsMs("chase").back();
    layers->chase_steps = static_cast<double>(stats.chase_steps.size());
    layers->triggers = static_cast<double>(stats.triggers_fired);
    layers->atoms = static_cast<double>(reasoner->Materialize().size());
    layers->atoms_new = layers->atoms - static_cast<double>(base_atoms);
    layers->nulls = static_cast<double>(universe->num_nulls());
    const std::vector<double> prep = tracer->DurationsMs("prepare");
    const std::vector<double> eval = tracer->DurationsMs("query.eval");
    for (std::size_t i = 0; i < plans.size(); ++i) {
      layers->prepare_ms += prep[prep.size() - plans.size() + i];
      layers->eval_ms += eval[eval.size() - plans.size() + i];
      layers->disjuncts += static_cast<double>(plans[i].evaluated().size());
      layers->answers += static_cast<double>(answers[i].size());
    }
    auto delta = [&](const char* name) {
      return Counter(after, name) - Counter(before, name);
    };
    layers->index_builds = delta("storage.index_builds");
    layers->run_seals = delta("storage.run_seals");
    layers->run_merges = delta("storage.run_merges");
  }

  // Checks, outside the timed regions.
  result->attempted += w.queries.size();
  std::vector<AnswerSet> rendered;
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    const BatchQuery& q = w.queries[i];
    if (!plans[i].complete()) {
      result->Mismatch(q.text + ": answers incomplete");
      continue;
    }
    if (q.expected_count >= 0 &&
        static_cast<long long>(answers[i].size()) != q.expected_count) {
      result->Mismatch(q.text + ": " + std::to_string(answers[i].size()) +
                       " answers, expected " +
                       std::to_string(q.expected_count));
      continue;
    }
    if (check) {
      rendered.push_back(Render(*universe, answers[i]));
      if ((!q.expected.empty() || q.expected_count == 0) &&
          rendered.back() != q.expected) {
        result->Mismatch(q.text + ": wrong answers");
      }
    }
  }
  answers.clear();
  if (w.path_edges > 0) {
    // Example 1 saturates into the transitive tournament on the path.
    ++result->attempted;
    const bddfc::PredicateId e = universe->FindPredicate("E");
    std::size_t edges = 0;
    for (const bddfc::Atom& atom : reasoner->Materialize().atoms()) {
      if (atom.pred() == e) ++edges;
    }
    const std::size_t n = w.path_edges;
    if (!reasoner->stats().chase_saturated || edges != n * (n + 1) / 2) {
      result->Mismatch("tc: " + std::to_string(edges) + " E atoms, expected " +
                       std::to_string(n * (n + 1) / 2));
    }
  }

  // The rewrite check builds a session of its own: free this one first, so
  // the peak RSS stays the workload's.
  plans.clear();
  reasoner.reset();
  universe.reset();
  if (check && rendered.size() == w.queries.size()) {
    CheckAgainstRewrite(w, rendered, result);
  }
  return times;
}

void CheckAgainstRewrite(const Workload& w,
                         const std::vector<AnswerSet>& materialized,
                         Result* result) {
  bddfc::Universe universe;
  std::optional<bddfc::RuleSet> rules = bddfc::ParseRuleSet(&universe, w.rules);
  std::optional<bddfc::Instance> facts =
      bddfc::ParseInstance(&universe, w.facts);
  if (!rules.has_value() || !facts.has_value()) return;
  bddfc::ReasonerOptions options;
  options.strategy = bddfc::AnswerStrategy::kRewrite;
  bddfc::Reasoner rewriting(*facts, std::move(*rules), options);
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    if (!w.queries[i].check_rewrite) continue;
    ++result->attempted;
    bddfc::PreparedQuery plan =
        rewriting.Prepare(bddfc::MustParseCq(&universe, w.queries[i].text));
    if (!plan.complete()) {
      result->Mismatch(w.queries[i].text + ": rewriting did not saturate");
    } else if (Render(universe, plan.All()) != materialized[i]) {
      result->Mismatch(w.queries[i].text +
                       ": materialized and rewritten answers differ");
    }
  }
}

void AddLayerMetrics(const LayerFigures& l, Result* r) {
  r->Add("parse.ms", l.parse_ms, "ms");
  r->Add("parse.mb_per_s", l.parse_mb / (l.parse_ms / 1e3), "MB/s");
  r->Add("session.init_ms", l.init_ms, "ms");
  r->Add("analysis.ms", l.analysis_ms, "ms");
  r->Add("chase.ms", l.chase_ms, "ms");
  r->Add("chase.steps", l.chase_steps, "count");
  r->Add("chase.triggers", l.triggers, "count");
  r->Add("chase.atoms_new", l.atoms_new, "count");
  r->Add("chase.nulls", l.nulls, "count");
  r->Add("chase.useful_ratio", l.triggers > 0 ? l.atoms_new / l.triggers : 0,
         "ratio");
  r->Add("chase.ns_per_trigger",
         l.triggers > 0 ? l.chase_ms * 1e6 / l.triggers : 0, "ns");
  r->Add("storage.bytes_per_atom",
         l.atoms > 0 ? l.rss_delta_mb * 1048576.0 / l.atoms : 0, "B");
  r->Add("storage.index_builds", l.index_builds, "count");
  r->Add("storage.run_seals", l.run_seals, "count");
  r->Add("storage.run_merges", l.run_merges, "count");
  r->Add("prepare.ms", l.prepare_ms, "ms");
  r->Add("rewrite.disjuncts", l.disjuncts, "count");
  r->Add("query.eval_ms", l.eval_ms, "ms");
  r->Add("query.answers", l.answers, "count");
}

Result RunBatch(const Workload& w, const bddfc::ReasonerOptions& options,
                double seconds, bool trace, const std::string& trace_out) {
  Result result;
  Tracer tracer;
  const Clock::time_point start = Clock::now();
  std::vector<double> setups;
  std::vector<double> answers[2];  // [traced]
  LayerFigures layers;
  // Traced runs alternate traced and untraced passes. The first pass is
  // traced and gives the layer figures (its RSS delta is the only one not
  // blurred by memory freed before) but, being cold, stays out of the
  // traced/untraced ratio.
  const int min_passes = trace ? kMinTracedPasses : kMinPasses;
  const double pass_seconds = seconds * (trace ? kTracedPassShare : kPassShare);
  for (int pass = 0; pass < min_passes ||
                     (pass < kMaxPasses && Seconds(start) < pass_seconds);
       ++pass) {
    const bool traced = trace && pass % 2 == 0;
    LayerFigures figures;
    const std::uint64_t failed = result.failed;
    const PassTimes t = RunPass(w, options, traced ? &tracer : nullptr,
                                pass == 0, &result, &figures);
    if (result.failed != failed) return result;  // no figures from a failure
    setups.push_back(t.setup_s);
    if (pass > 0 || !trace) answers[traced].push_back(t.answer_s);
    if (pass == 0) layers = figures;
    const Clock::time_point extra = Clock::now();
    for (std::size_t i = 0; !trace && i < kSetupsPerPass &&
                            MsBetween(extra, Clock::now()) < kSetupMs;
         ++i) {
      ReleaseFreeMemory();
      const Clock::time_point t0 = Clock::now();
      bddfc::Universe universe;
      std::optional<bddfc::RuleSet> rules =
          bddfc::ParseRuleSet(&universe, w.rules);
      std::optional<bddfc::Instance> facts =
          bddfc::ParseInstance(&universe, w.facts);
      for (const BatchQuery& q : w.queries) bddfc::ParseCq(&universe, q.text);
      bddfc::Reasoner reasoner(*facts, std::move(*rules), options);
      setups.push_back(Seconds(t0));
    }
  }

  std::fprintf(stderr, "perfbench: answer_s of each pass:");
  for (double a : answers[0]) std::fprintf(stderr, " %.4f", a);
  std::fprintf(stderr, "\n");
  if (!trace) {
    result.Add("setup_s", Median(setups), "s");
    result.Add("answer_s", Median(answers[0]), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  // The replay: reads and adds, serially, through the server's layer calls
  // on the workload's KB; every reply is checked afterwards.
  std::vector<std::string> add_lines;
  for (std::size_t i = 0; i < kReplayAdds; ++i) {
    add_lines.push_back(AddLine(w.adds[i]));
  }
  std::vector<const std::string*> lines;
  std::vector<const Request*> reads;  // per line; null for an add
  for (std::size_t i = 0; i < kReplayReads; ++i) {
    if (i % (kReplayReads / kReplayAdds) == 0) {
      lines.push_back(&add_lines[i / (kReplayReads / kReplayAdds)]);
      reads.push_back(nullptr);
    }
    lines.push_back(&w.reads[i].line);
    reads.push_back(&w.reads[i]);
  }
  const Replay replay = ReplayLayers(w, options, 0, lines, &tracer, &result);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ++result.attempted;
    const std::string& reply = replay.replies[i];
    if (reads[i] == nullptr ? ReplyInt(reply, "added") != 32
                            : !ReadReplyMatches(w, *reads[i], reply)) {
      result.Mismatch(*lines[i] + " -> " + reply.substr(0, 200));
    }
  }
  AddLayerMetrics(layers, &result);
  result.Add("trace.answer_ratio", Median(answers[1]) / Median(answers[0]),
             "ratio");
  if (!trace_out.empty()) tracer.WriteChromeJson(trace_out);
  return result;
}

}  // namespace perfbench
