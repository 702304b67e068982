#include "requests.h"

#include <malloc.h>

#include <algorithm>
#include <fstream>
#include <optional>

#include "base/json.h"
#include "logic/parser.h"
#include "serve/codec.h"

namespace perfbench {

using bddfc::AnswerTuple;
using bddfc::JsonValue;
using bddfc::PreparedQuery;
using bddfc::serve::QueryMode;
using bddfc::serve::RequestOp;

Handler::Handler(bddfc::serve::SnapshotManager* snapshots)
    : snapshots_(snapshots) {}

std::string Handler::Handle(std::string_view line, Tracer* tracer,
                            std::uint64_t request) {
  using Scope = Tracer::Scope;
  bddfc::Reasoner& reasoner = snapshots_->reasoner();
  bddfc::Universe* universe = reasoner.universe();
  std::optional<bddfc::serve::Request> req;
  std::optional<std::int64_t> id;
  std::string error;
  {
    Scope span(tracer, "codec.decode", request);
    std::optional<JsonValue> doc = bddfc::JsonParse(line, &error);
    if (doc.has_value()) req = bddfc::serve::DecodeRequest(*doc, &error, &id);
  }
  if (!req.has_value()) return bddfc::serve::ErrorReply(id, "bad_request", error);

  auto plan_for = [&](const std::string& text)
      -> std::shared_ptr<const PreparedQuery> {
    std::optional<bddfc::Cq> cq;
    {
      Scope span(tracer, "serve.parse", request);
      cq = bddfc::ParseCq(universe, text);
    }
    if (!cq.has_value()) return nullptr;
    Scope span(tracer, "serve.plan", request);
    return std::make_shared<const PreparedQuery>(reasoner.PrepareDetached(*cq));
  };

  switch (req->op) {
    case RequestOp::kPrepare: {
      std::shared_ptr<const PreparedQuery> plan = plan_for(req->query);
      if (plan == nullptr) return bddfc::serve::ErrorReply(id, "parse_error", "");
      plans_[req->name] = std::move(plan);
      Scope span(tracer, "codec.encode", request);
      return bddfc::serve::OkReply(id).Dump();
    }
    case RequestOp::kQuery: {
      std::shared_ptr<const PreparedQuery> plan;
      if (req->use_prepared) {
        auto it = plans_.find(req->prepared);
        if (it != plans_.end()) plan = it->second;
      } else {
        plan = plan_for(req->query);
      }
      if (plan == nullptr) return bddfc::serve::ErrorReply(id, "no_plan", "");
      std::vector<AnswerTuple> answers;
      std::size_t count = 0;
      std::uint64_t epoch = 0;
      bool complete = false;
      {
        Scope span(tracer, "snapshot.eval", request);
        std::shared_ptr<const bddfc::serve::EpochSnapshot> snap =
            snapshots_->Pin();
        epoch = snap->epoch;
        complete = snap->saturated;
        if (req->mode == QueryMode::kCount) {
          count = plan->CountOn(*snap->materialization);
        } else {
          answers = plan->AllOn(*snap->materialization);
        }
      }
      Scope span(tracer, "codec.encode", request);
      JsonValue reply = bddfc::serve::OkReply(id);
      reply.Set("epoch", JsonValue::Int(static_cast<std::int64_t>(epoch)));
      reply.Set("complete", JsonValue::Bool(complete));
      if (req->mode == QueryMode::kCount) {
        reply.Set("count", JsonValue::Int(static_cast<std::int64_t>(count)));
      } else {
        reply.Set("count",
                  JsonValue::Int(static_cast<std::int64_t>(answers.size())));
        JsonValue rows = JsonValue::Array();
        for (const AnswerTuple& tuple : answers) {
          JsonValue row = JsonValue::Array();
          for (bddfc::Term t : tuple) {
            row.Push(JsonValue::Str(universe->TermName(t)));
          }
          rows.Push(std::move(row));
        }
        reply.Set("answers", std::move(rows));
      }
      return reply.Dump();
    }
    case RequestOp::kAdd: {
      std::optional<bddfc::Instance> parsed;
      {
        Scope span(tracer, "serve.parse_facts", request);
        parsed = bddfc::ParseInstance(universe, req->facts);
      }
      if (!parsed.has_value()) {
        return bddfc::serve::ErrorReply(id, "parse_error", "");
      }
      // atoms()[0] is the scratch instance's implicit ⊤.
      const std::vector<bddfc::Atom>& atoms = parsed->atoms();
      std::vector<bddfc::Atom> facts(atoms.begin() + 1, atoms.end());
      const std::size_t steps_before = reasoner.stats().chase_steps.size();
      std::size_t added = 0;
      {
        Scope span(tracer, "snapshot.apply", request);
        bddfc::serve::SnapshotManager::ApplyResult r =
            snapshots_->ApplyFacts(facts);
        added = r.added;
        epoch_ = r.snapshot->epoch;
      }
      double chase_ms = 0;
      const auto& steps = reasoner.stats().chase_steps;
      for (std::size_t i = steps_before; i < steps.size(); ++i) {
        chase_ms += steps[i].wall_ms;
      }
      if (tracer != nullptr) add_chase_ms_.push_back(chase_ms);
      Scope span(tracer, "codec.encode", request);
      JsonValue reply = bddfc::serve::OkReply(id);
      reply.Set("added", JsonValue::Int(static_cast<std::int64_t>(added)));
      reply.Set("epoch", JsonValue::Int(static_cast<std::int64_t>(epoch_)));
      return reply.Dump();
    }
    default:
      return bddfc::serve::ErrorReply(id, "unsupported", "");
  }
}

AnswerSet Render(const bddfc::Universe& universe,
                 const std::vector<bddfc::AnswerTuple>& answers) {
  AnswerSet rows;
  rows.reserve(answers.size());
  for (const bddfc::AnswerTuple& tuple : answers) {
    std::vector<std::string> row;
    for (bddfc::Term t : tuple) row.push_back(universe.TermName(t));
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool ReplyBool(const std::string& reply, const char* key) {
  std::optional<JsonValue> doc = bddfc::JsonParse(reply);
  const JsonValue* v = doc ? doc->FindBool(key) : nullptr;
  return v != nullptr && v->AsBool();
}

AnswerSet ReplyAnswers(const std::string& reply, bool* ok) {
  AnswerSet rows;
  std::optional<JsonValue> doc = bddfc::JsonParse(reply);
  const JsonValue* okv = doc ? doc->FindBool("ok") : nullptr;
  const JsonValue* answers = doc ? doc->Find("answers") : nullptr;
  *ok = okv != nullptr && okv->AsBool() && answers != nullptr &&
        answers->is_array();
  if (!*ok) return rows;
  for (const JsonValue& row : answers->AsArray()) {
    std::vector<std::string> names;
    for (const JsonValue& v : row.is_array() ? row.AsArray()
                                             : std::vector<JsonValue>{}) {
      names.push_back(v.is_string() ? v.AsString() : "?");
    }
    rows.push_back(std::move(names));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

long long ReplyInt(const std::string& reply, const char* key) {
  std::optional<JsonValue> doc = bddfc::JsonParse(reply);
  const JsonValue* v = doc ? doc->FindInt(key) : nullptr;
  return v != nullptr ? v->AsInt() : -1;
}

bool ReadReplyMatches(const Workload& w, const Request& r,
                      const std::string& reply) {
  if (r.kind == Request::Kind::kJoinCount) {
    return ReplyInt(reply, "count") == w.join_expected;
  }
  bool ok = false;
  AnswerSet got = ReplyAnswers(reply, &ok);
  return ok && got == w.lookup_expected[r.oracle];
}

Replay ReplayLayers(const Workload& w, const bddfc::ReasonerOptions& options,
                    std::size_t first_add,
                    const std::vector<const std::string*>& lines,
                    Tracer* tracer, Result* r) {
  bddfc::Universe universe;
  bddfc::serve::SnapshotManager snapshots(
      bddfc::MustParseInstance(&universe, w.facts),
      bddfc::MustParseRuleSet(&universe, w.rules), options);
  Handler handler(&snapshots);
  std::uint64_t rid = 1;
  ++r->attempted;
  const std::string prepared =
      handler.Handle(PrepareLine("j", w.join), tracer, rid++);
  if (prepared.rfind("{\"ok\":true", 0) != 0) r->Mismatch("prepare: " + prepared);
  for (std::size_t i = 0; i < first_add; ++i) {
    handler.Handle(AddLine(w.adds[i]), nullptr, rid++);
  }
  Replay out;
  const double rss = CurrentRssMb();
  for (const std::string* line : lines) {
    out.replies.push_back(handler.Handle(*line, tracer, rid++));
  }
  const double rss_delta_mb = CurrentRssMb() - rss;

  auto median_us = [&](const char* name) {
    return Median(tracer->DurationsMs(name)) * 1e3;
  };
  const double decode = median_us("codec.decode");
  const double encode = median_us("codec.encode");
  const double parse = median_us("serve.parse");
  const double plan = median_us("serve.plan");
  const double eval = median_us("snapshot.eval");
  r->Add("codec.decode_us", decode, "us");
  r->Add("codec.encode_us", encode, "us");
  r->Add("serve.parse_us", parse, "us");
  r->Add("serve.plan_us", plan, "us");
  r->Add("snapshot.eval_us", eval, "us");
  out.read_layers_us = decode + parse + plan + eval + encode;
  const std::vector<double> apply = tracer->DurationsMs("snapshot.apply");
  const std::vector<double>& chase = handler.add_chase_ms();
  std::vector<double> publish;
  for (std::size_t i = 0; i < apply.size() && i < chase.size(); ++i) {
    publish.push_back(apply[i] - chase[i]);
  }
  r->Add("snapshot.apply_ms", Median(apply), "ms");
  r->Add("snapshot.chase_ms", Median(chase), "ms");
  r->Add("snapshot.publish_ms", Median(publish), "ms");
  r->Add("snapshot.rss_mb_per_epoch",
         chase.empty() ? 0 : rss_delta_mb / static_cast<double>(chase.size()),
         "MB");
  return out;
}

namespace {

double StatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace

void ReleaseFreeMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double PeakRssMb() { return StatusMb("VmHWM"); }
double CurrentRssMb() { return StatusMb("VmRSS"); }

}  // namespace perfbench
