// serve-mixed: an in-process serve::Server over loopback TCP, loaded from
// this process by at most four client connections (one thread each):
//
//   1. set-up, several times: parse the KB text, construct the Server
//      (epoch-0 materialization), start ServeTcp, connect, first reply;
//      then answer rounds (the ontology's four queries, mode "all") and a
//      closed-loop burst: four connections each send their next read when
//      the previous reply arrives;
//   2. open loop: three reader connections send at a fixed total rate
//      (inline point lookups, prepared join counts) while one writer sends
//      a 32-fact add on its own schedule; latency runs from each request's
//      scheduled send time.
//
// Every reply is checked after the run against an oracle for its epoch:
// epochs 0 and last by a one-shot chase of that epoch's base facts, the
// ones between by one incremental session (which must agree with the
// one-shot chase at the last epoch).

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "logic/parser.h"
#include "obs/obs.h"
#include "requests.h"
#include "runners.h"
#include "serve/server.h"

namespace perfbench {

namespace {

constexpr int kReaders = 3;         // open-loop reader connections
// Offered load of the open loop: reads per second over all reader
// connections, and the gap between two adds on the writer connection.
constexpr double kReadRate = 1500;
constexpr double kAddEveryMs = 400;
constexpr int kSetups = 8;          // set-ups per run
constexpr int kAnswerRounds = 6;    // answer rounds per set-up
constexpr double kOpenShare = 0.5;  // of --seconds
constexpr double kBurstSeconds = 0.5;  // closed-loop reads per set-up
constexpr double kTimeoutMs = 2000;  // a reply later than this failed
constexpr double kDrainMs = 1000;    // backlog allowed after the schedule
// Each connection executes its requests inline: with one request in flight
// per connection a pool only adds a hand-off, and its per-thread malloc
// arenas made peak RSS and add latency vary by a third between runs.
constexpr std::size_t kDispatchThreads = 1;
// Adds (and reads per connection) sent before the open loop, untimed: the
// session's first adds pay one-time costs that would otherwise decide the
// tail percentiles.
constexpr std::size_t kWarmupAdds = 3;
constexpr std::size_t kWarmupReads = 50;

double Seconds(Clock::time_point a) { return MsBetween(a, Clock::now()) / 1e3; }

// Completions per second: the median over twenty equal windows of the
// `seconds` after `start`, the first two left out as warm-up, so neither a
// short stall of the machine nor a cold start moves it.
double WindowedRate(std::vector<Clock::time_point> completed,
                    Clock::time_point start, double seconds) {
  constexpr int kWindows = 20;
  constexpr int kWarmupWindows = 2;
  const double window_ms = seconds * 1000.0 / kWindows;
  std::sort(completed.begin(), completed.end());
  // Per window: completions after its first one, over the time they took.
  std::vector<double> first(kWindows, -1), last(kWindows, -1), count(kWindows, 0);
  for (Clock::time_point t : completed) {
    const double at = MsBetween(start, t);
    const int k = static_cast<int>(at / window_ms);
    if (k < 0 || k >= kWindows) continue;
    if (count[k]++ == 0) first[k] = at;
    last[k] = at;
  }
  std::vector<double> rates;
  for (int k = kWarmupWindows; k < kWindows; ++k) {
    if (count[k] >= 2) rates.push_back((count[k] - 1) * 1000.0 / (last[k] - first[k]));
  }
  return Median(rates);
}

// Waits until `due` (sleeping, then spinning the last stretch so the
// wake-up is not late) and returns the time it woke.
Clock::time_point WaitUntil(Clock::time_point due) {
  // A late wake-up would count as latency of the request about to be sent.
  std::this_thread::sleep_until(due - std::chrono::microseconds(150));
  Clock::time_point now = Clock::now();
  while (now < due) now = Clock::now();
  return now;
}

bddfc::serve::ServerOptions Options() {
  bddfc::serve::ServerOptions options;
  // bddfc_server's default variant; room for every add of a run.
  options.reasoner.chase.variant = bddfc::ChaseVariant::kSemiOblivious;
  options.reasoner.chase.exec.max_atoms = 8000000;
  options.dispatch_threads = kDispatchThreads;
  return options;
}

bool SendLine(int fd, const std::string& line) {
  std::string data = line + "\n";
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Newline framing of one connection's replies.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Reads what is available (waiting at most `timeout_ms`) and appends
  /// every completed line to `out`. False on end-of-stream or error.
  bool Poll(double timeout_ms, std::vector<std::string>* out) {
    struct pollfd p = {fd_, POLLIN, 0};
    const long long ns = static_cast<long long>(std::max(0.0, timeout_ms) * 1e6);
    struct timespec ts = {static_cast<time_t>(ns / 1000000000LL),
                          static_cast<long>(ns % 1000000000LL)};
    if (::ppoll(&p, 1, &ts, nullptr) <= 0) return true;
    char buf[65536];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n <= 0) return false;
    // Acknowledge at once. The server leaves Nagle on, so a reply waits for
    // the ACK of the previous one; a delayed ACK would make the latency
    // measure the client's ACK timer instead of the server.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    partial_.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = partial_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      out->push_back(partial_.substr(start, nl - start));
    }
    partial_.erase(0, start);
    return true;
  }

  /// Blocks for the next line; nullopt on timeout or end-of-stream.
  std::optional<std::string> Next(double timeout_ms) {
    const Clock::time_point start = Clock::now();
    while (pending_.empty()) {
      const double left = timeout_ms - MsBetween(start, Clock::now());
      if (left <= 0 || !Poll(left, &pending_)) return std::nullopt;
    }
    std::string line = std::move(pending_.front());
    pending_.erase(pending_.begin());
    return line;
  }

 private:
  int fd_;
  std::string partial_;
  std::vector<std::string> pending_;
};

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One running server: its Universe, the Server, the ServeTcp thread.
struct Running {
  std::unique_ptr<bddfc::Universe> universe;
  std::unique_ptr<bddfc::serve::Server> server;
  std::thread thread;
  int port = -1;
  int announce[2] = {-1, -1};

  Running() = default;
  Running(const Running&) = delete;
  Running& operator=(const Running&) = delete;
  ~Running() { Stop(); }

  void Stop() {
    if (thread.joinable()) {
      bddfc::obs::RequestCancel();
      thread.join();
      bddfc::obs::ClearCancel();
    }
    for (int& fd : announce) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    server.reset();
    universe.reset();
  }
};

// Parses the KB, constructs the Server, starts serving. False on failure.
bool Start(const Workload& w, Running* r) {
  r->universe = std::make_unique<bddfc::Universe>();
  std::optional<bddfc::RuleSet> rules =
      bddfc::ParseRuleSet(r->universe.get(), w.rules);
  std::optional<bddfc::Instance> facts =
      bddfc::ParseInstance(r->universe.get(), w.facts);
  if (!rules.has_value() || !facts.has_value() || ::pipe(r->announce) != 0) {
    return false;
  }
  r->server = std::make_unique<bddfc::serve::Server>(*facts, std::move(*rules),
                                                     Options());
  bddfc::serve::Server* server = r->server.get();
  const int announce_fd = r->announce[1];
  r->thread = std::thread([server, announce_fd] {
    server->ServeTcp(0, announce_fd);
  });
  LineReader announce(r->announce[0]);
  std::optional<std::string> line = announce.Next(10000);
  if (!line.has_value() || line->rfind("LISTENING ", 0) != 0) return false;
  r->port = std::atoi(line->c_str() + 10);
  return true;
}

// One request sent and its reply, for the after-run check.
struct Record {
  const Request* read = nullptr;  // null for an add
  std::size_t add = 0;            // adds: index into w.adds
  std::string reply;
};

// One open-loop connection's schedule and what happened to it.
struct OpenConn {
  Clock::time_point start;     // of the phase
  std::vector<double> due_ms;  // from `start`
  std::vector<const std::string*> lines;
  std::vector<Record> records;
  std::vector<Clock::time_point> sent;
  std::vector<Clock::time_point> received;
  bool backlogged = false;

  Clock::time_point Due(std::size_t i) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(due_ms[i]));
  }
};

void RunOpenConn(int fd, OpenConn* c) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  LineReader reader(fd);
  const std::size_t n = c->lines.size();
  c->sent.resize(n);
  c->received.resize(n);
  const Clock::time_point drain_end =
      (n == 0 ? c->start : c->Due(n - 1)) +
      std::chrono::milliseconds(static_cast<int>(kDrainMs));
  std::size_t next = 0;
  std::size_t got = 0;
  std::vector<std::string> lines;
  while (got < n) {
    const Clock::time_point now = Clock::now();
    if (next < n && now >= c->Due(next) - std::chrono::microseconds(150)) {
      c->sent[next] = WaitUntil(c->Due(next));
      if (!SendLine(fd, *c->lines[next])) break;
      ++next;
      continue;
    }
    if (next == n && now > drain_end) {
      c->backlogged = true;  // replies still missing after the drain window
      break;
    }
    const double wait_ms =
        next < n ? MsBetween(now, c->Due(next)) - 0.15
                 : MsBetween(now, drain_end);
    lines.clear();
    if (!reader.Poll(wait_ms, &lines)) break;
    const Clock::time_point at = Clock::now();
    for (std::string& line : lines) {
      if (got >= next) break;  // a reply to nothing sent: the check fails it
      c->received[got] = at;
      c->records[got].reply = std::move(line);
      ++got;
    }
  }
}

// Closed loop on one connection until `end`, recording each completion.
void RunClosedConn(int fd, const Workload& w, std::size_t offset,
                   Clock::time_point end, std::vector<Record>* records,
                   std::vector<Clock::time_point>* completed) {
  LineReader reader(fd);
  for (std::size_t i = offset; Clock::now() < end; ++i) {
    const Request& r = w.reads[i % w.reads.size()];
    if (!SendLine(fd, r.line)) break;
    std::optional<std::string> reply = reader.Next(kTimeoutMs * 5);
    records->push_back({&r, 0, reply.value_or("")});
    completed->push_back(Clock::now());
    if (!reply.has_value()) break;
  }
}

// kBurstSeconds of closed-loop reads on every connection at once; returns
// the windowed read rate and keeps the replies for the check.
double ClosedLoopBurst(const Workload& w, const int* fds, int burst,
                       std::vector<Record>* records) {
  std::vector<std::vector<Record>> replies(kReaders + 1);
  std::vector<std::vector<Clock::time_point>> completed(kReaders + 1);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::milliseconds(static_cast<int>(kBurstSeconds * 1000));
  std::vector<std::thread> threads;
  for (int k = 0; k <= kReaders; ++k) {
    threads.emplace_back(RunClosedConn, fds[k], std::cref(w),
                         static_cast<std::size_t>(burst * 4 + k) * 997, end,
                         &replies[k], &completed[k]);
  }
  for (std::thread& t : threads) t.join();
  std::vector<Clock::time_point> all;
  for (int k = 0; k <= kReaders; ++k) {
    all.insert(all.end(), completed[k].begin(), completed[k].end());
    records->insert(records->end(), replies[k].begin(), replies[k].end());
  }
  return WindowedRate(all, start, kBurstSeconds);
}

// The answers of the reads a run saw, per epoch, and the check against
// them. See the file comment.
class Oracle {
 public:
  Oracle(const Workload& w, Result* result) : w_(w), result_(result) {}

  void Need(std::uint64_t epoch, const Request* read) {
    needed_[epoch].insert(Key(read));
  }

  /// Computes every needed answer; a disagreement between the incremental
  /// session and the one-shot chase is recorded as a mismatch.
  void Build() {
    if (needed_.empty()) return;
    const std::uint64_t last = needed_.rbegin()->first;
    if (last > w_.adds.size()) {
      result_->Mismatch("epoch beyond the adds sent");
      return;
    }
    needed_[0];
    bddfc::Universe universe;
    std::unique_ptr<bddfc::Reasoner> session = Session(&universe, 0);
    for (std::uint64_t e = 0; e <= last; ++e) {
      if (e > 0) {
        // atoms()[0] is the scratch instance's implicit ⊤.
        const bddfc::Instance batch =
            bddfc::MustParseInstance(&universe, w_.adds[e - 1]);
        session->AddFacts(std::vector<bddfc::Atom>(batch.atoms().begin() + 1,
                                                   batch.atoms().end()));
      }
      if (needed_.count(e) != 0) Evaluate(session.get(), &universe, e, &answers_);
    }
    for (std::uint64_t e : {std::uint64_t{0}, last}) {
      bddfc::Universe fresh;
      std::unique_ptr<bddfc::Reasoner> one_shot = Session(&fresh, e);
      std::map<std::pair<std::uint64_t, long long>, AnswerSet> exact;
      Evaluate(one_shot.get(), &fresh, e, &exact);
      for (const auto& [key, rows] : exact) {
        if (answers_[key] != rows) {
          result_->Mismatch("epoch " + std::to_string(e) +
                            ": incremental and one-shot answers differ");
        }
        answers_[key] = rows;
      }
    }
  }

  /// True when `reply` to `read` holds the oracle's answers for its epoch.
  bool Matches(const Request* read, const std::string& reply) const {
    const long long epoch = ReplyInt(reply, "epoch");
    auto it = answers_.find({static_cast<std::uint64_t>(epoch), Key(read)});
    if (epoch < 0 || it == answers_.end() || !ReplyBool(reply, "complete")) {
      return false;
    }
    if (read->kind == Request::Kind::kJoinCount) {
      return std::to_string(ReplyInt(reply, "count")) == it->second[0][0];
    }
    bool ok = false;
    return ReplyAnswers(reply, &ok) == it->second && ok;
  }

 private:
  // Lookups by their text index; the join count as -1.
  static long long Key(const Request* read) {
    return read->kind == Request::Kind::kJoinCount
               ? -1
               : static_cast<long long>(read->oracle);
  }

  // A materializing session over the base facts as of `epoch`.
  std::unique_ptr<bddfc::Reasoner> Session(bddfc::Universe* universe,
                                           std::uint64_t epoch) const {
    std::string facts = w_.facts;
    for (std::uint64_t b = 0; b < epoch; ++b) facts += w_.adds[b];
    bddfc::ReasonerOptions options = Options().reasoner;
    options.strategy = bddfc::AnswerStrategy::kMaterialize;
    bddfc::RuleSet rules = bddfc::MustParseRuleSet(universe, w_.rules);
    return std::make_unique<bddfc::Reasoner>(
        bddfc::MustParseInstance(universe, facts), std::move(rules), options);
  }

  void Evaluate(bddfc::Reasoner* session, bddfc::Universe* universe,
                std::uint64_t epoch,
                std::map<std::pair<std::uint64_t, long long>, AnswerSet>* out) {
    for (long long key : needed_[epoch]) {
      const std::string& text = key < 0 ? w_.join : w_.lookups[key];
      bddfc::PreparedQuery plan =
          session->Prepare(bddfc::MustParseCq(universe, text));
      (*out)[{epoch, key}] =
          key < 0 ? AnswerSet{{std::to_string(plan.Count())}}
                  : Render(*universe, plan.All());
    }
  }

  const Workload& w_;
  Result* result_;
  std::map<std::uint64_t, std::set<long long>> needed_;
  std::map<std::pair<std::uint64_t, long long>, AnswerSet> answers_;
};

// Checks every record: reads against the oracle, adds by their count and
// epoch. Failed replies count once each.
void CheckRecords(const Workload& w, const std::vector<Record>& records,
                  Result* result) {
  Oracle oracle(w, result);
  for (const Record& r : records) {
    if (r.read == nullptr) continue;
    const long long epoch = ReplyInt(r.reply, "epoch");
    if (epoch >= 0) oracle.Need(static_cast<std::uint64_t>(epoch), r.read);
  }
  oracle.Build();
  for (const Record& r : records) {
    ++result->attempted;
    if (r.read != nullptr) {
      if (!oracle.Matches(r.read, r.reply)) {
        result->Mismatch(r.read->line + " -> " + r.reply.substr(0, 200));
      }
    } else if (ReplyInt(r.reply, "added") != 32 ||
               ReplyInt(r.reply, "epoch") != static_cast<long long>(r.add) + 1) {
      result->Mismatch("add " + std::to_string(r.add) + " -> " + r.reply);
    }
  }
}

// The request schedule of the open loop: reader k gets every kReaders-th
// read slot of the total rate, the writer one add every kAddEveryMs.
std::vector<OpenConn> Schedule(const Workload& w, double seconds,
                               const std::vector<std::string>& add_lines) {
  std::vector<OpenConn> conns(kReaders + 1);
  const double gap = 1000.0 / kReadRate;
  std::size_t i = 0;
  for (double t = 0; t < seconds * 1000.0; t += gap, ++i) {
    OpenConn& c = conns[i % kReaders];
    const Request& r = w.reads[i % w.reads.size()];
    c.due_ms.push_back(t);
    c.lines.push_back(&r.line);
    c.records.push_back({&r, 0, ""});
  }
  OpenConn& writer = conns[kReaders];
  i = kWarmupAdds;
  for (double t = kAddEveryMs / 2; t < seconds * 1000.0 && i < w.adds.size();
       t += kAddEveryMs, ++i) {
    writer.due_ms.push_back(t);
    writer.lines.push_back(&add_lines[i]);
    writer.records.push_back({nullptr, i, ""});
  }
  return conns;
}

}  // namespace

Result RunServeMixed(const Workload& w, double seconds, bool trace,
                     const std::string& trace_out) {
  Result result;
  Tracer tracer;
  std::vector<std::string> add_lines;
  for (const std::string& facts : w.adds) add_lines.push_back(AddLine(facts));

  // Per-layer figures of the same KB, through the batch pass.
  LayerFigures layers;
  std::vector<double> pass_answers[2];
  if (trace) {
    bddfc::ReasonerOptions options = Options().reasoner;
    // As in the batch runs: traced and untraced passes alternate, the
    // first (cold) one only gives the layer figures.
    for (int pass = 0; pass < 5; ++pass) {
      const bool traced = pass % 2 == 0;
      LayerFigures figures;
      const PassTimes t = RunPass(w, options, traced ? &tracer : nullptr,
                                  pass == 0, &result, &figures);
      if (pass == 0) {
        layers = figures;
      } else {
        pass_answers[traced].push_back(t.answer_s);
      }
    }
  }

  // 1. Set-up, kSetups times; the last server stays up.
  std::vector<double> setups;
  Running running;
  int fds[kReaders + 1] = {-1, -1, -1, -1};
  std::vector<double> read_rates;
  std::vector<double> answer_s;
  std::vector<std::vector<std::string>> answer_replies;  // per set-up
  std::vector<Record> records;
  for (int s = 0; s < kSetups; ++s) {
    running.Stop();
    ReleaseFreeMemory();
    const Clock::time_point t0 = Clock::now();
    if (!Start(w, &running) || (fds[0] = Connect(running.port)) < 0) {
      result.Mismatch("the server did not start");
      return result;
    }
    LineReader reader(fds[0]);
    std::optional<std::string> pong =
        SendLine(fds[0], "{\"op\":\"ping\"}") ? reader.Next(kTimeoutMs)
                                              : std::nullopt;
    setups.push_back(Seconds(t0));
    ++result.attempted;
    if (!pong.has_value() || pong->rfind("{\"ok\":true", 0) != 0) {
      result.Mismatch("ping");
    }
    for (int k = 1; k <= kReaders; ++k) {
      if ((fds[k] = Connect(running.port)) < 0) {
        result.Mismatch("connect");
        return result;
      }
    }
    for (int k = 0; k <= kReaders; ++k) {
      LineReader prepare(fds[k]);
      ++result.attempted;
      if (!SendLine(fds[k], PrepareLine("j", w.join)) ||
          prepare.Next(kTimeoutMs).value_or("").rfind("{\"ok\":true", 0) !=
              0) {
        result.Mismatch("prepare");
      }
    }
    // Answer rounds and a closed-loop read burst on every set-up: spread
    // over the run and over server instances, so a slowdown of a few
    // seconds or one instance's thread placement moves one sample, not the
    // median.
    {
      LineReader answers(fds[0]);
      for (int round = 0; round < kAnswerRounds; ++round) {
        const Clock::time_point t1 = Clock::now();
        std::vector<std::string> replies;
        for (const BatchQuery& q : w.queries) {
          if (!SendLine(fds[0], QueryLine(q.text, "all"))) break;
          replies.push_back(answers.Next(kTimeoutMs * 5).value_or(""));
        }
        answer_s.push_back(Seconds(t1));
        if (round == 0) answer_replies.push_back(std::move(replies));
      }
    }
    read_rates.push_back(ClosedLoopBurst(w, fds, s, &records));
    if (s + 1 < kSetups) {
      for (int k = 0; k <= kReaders; ++k) ::close(fds[k]);
    }
  }

  // Warm-up, checked like the rest.
  for (std::size_t i = 0; i < kWarmupAdds; ++i) {
    LineReader reader(fds[kReaders]);
    SendLine(fds[kReaders], add_lines[i]);
    records.push_back({nullptr, i, reader.Next(kTimeoutMs * 5).value_or("")});
  }
  for (int k = 0; k < kReaders; ++k) {
    LineReader reader(fds[k]);
    for (std::size_t i = 0; i < kWarmupReads; ++i) {
      const Request& r = w.reads[w.reads.size() - 1 - i - k * kWarmupReads];
      SendLine(fds[k], r.line);
      records.push_back({&r, 0, reader.Next(kTimeoutMs).value_or("")});
    }
  }

  // 2. Open loop.
  std::vector<OpenConn> conns = Schedule(w, seconds * kOpenShare, add_lines);
  {
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> threads;
    for (int k = 0; k <= kReaders; ++k) {
      conns[k].start = start;
      threads.emplace_back(RunOpenConn, fds[k], &conns[k]);
    }
    for (std::thread& t : threads) t.join();
  }

  for (int k = 0; k <= kReaders; ++k) ::close(fds[k]);
  const double tcp_peak_rss = PeakRssMb();
  running.Stop();

  // Metrics of the open loop; a reply that never came or came after the
  // timeout fails its request, and a backlog fails the whole phase.
  std::vector<double> query_ms;  // from scheduled send time to reply
  std::vector<double> add_ms;    // from send to reply
  std::vector<double> lag_ms;    // actual send time minus scheduled time
  std::size_t open_requests = 0;
  bool backlogged = false;
  for (const OpenConn& c : conns) {
    backlogged = backlogged || c.backlogged;
    open_requests += c.records.size();
    for (std::size_t i = 0; i < c.records.size(); ++i) {
      const Record& r = c.records[i];
      records.push_back(r);
      if (r.reply.empty()) continue;  // never answered: fails the check
      const Clock::time_point due = c.Due(i);
      lag_ms.push_back(MsBetween(due, c.sent[i]));
      if (r.read != nullptr) {
        query_ms.push_back(MsBetween(due, c.received[i]));
        if (query_ms.back() > kTimeoutMs) ++result.failed;
      } else {
        add_ms.push_back(MsBetween(c.sent[i], c.received[i]));
      }
    }
  }
  std::fprintf(stderr,
               "perfbench: open loop %zu reads (p50 %.3f ms), %zu adds "
               "(p50 %.3f ms), lag p99 %.3f ms\n",
               query_ms.size(), Median(query_ms), add_ms.size(),
               Median(add_ms), Percentile(lag_ms, 0.99));
  if (backlogged) {
    std::fprintf(stderr, "perfbench: open loop fell behind its schedule\n");
    result.failed += open_requests;
  }

  // The traced replay: the same schedule, serially, through the layer
  // calls, on a SnapshotManager of its own.
  Replay replay;
  if (trace) {
    struct Step {
      double at;
      const Record* record;
      const std::string* line;
    };
    std::vector<Step> steps;
    for (const OpenConn& c : conns) {
      for (std::size_t i = 0; i < c.records.size(); ++i) {
        steps.push_back({c.due_ms[i], &c.records[i], c.lines[i]});
      }
    }
    std::stable_sort(steps.begin(), steps.end(),
                     [](const Step& a, const Step& b) { return a.at < b.at; });
    std::vector<const std::string*> lines;
    for (const Step& s : steps) lines.push_back(s.line);
    replay = ReplayLayers(w, Options().reasoner, kWarmupAdds, lines, &tracer,
                          &result);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      Record r = *steps[i].record;
      r.reply = replay.replies[i];
      records.push_back(std::move(r));
    }
  }

  // Checks, after every timed phase.
  for (const std::vector<std::string>& replies : answer_replies) {
    for (std::size_t i = 0; i < w.queries.size(); ++i) {
      ++result.attempted;
      bool ok = false;
      const std::string reply = i < replies.size() ? replies[i] : "";
      if (ReplyAnswers(reply, &ok) != w.queries[i].expected || !ok ||
          ReplyInt(reply, "epoch") != 0) {
        result.Mismatch(w.queries[i].text + ": wrong answers at epoch 0");
      }
    }
  }
  CheckRecords(w, records, &result);

  // The request figures have no regression bound (their spread over runs
  // is wider than any bound; see README.md): printed, not in the result.
  const double query_p50_ms = Percentile(query_ms, 0.5);
  result.Note("query_p50_ms", query_p50_ms, "ms");
  result.Note("query_p99_ms", Percentile(query_ms, 0.99), "ms");
  result.Note("add_p50_ms", Percentile(add_ms, 0.5), "ms");
  result.Note("add_p90_ms", Percentile(add_ms, 0.9), "ms");
  result.Note("read_qps", Median(read_rates), "1/s");
  result.Note("send_lag_p99_ms", Percentile(lag_ms, 0.99), "ms");
  if (!trace) {
    result.Add("setup_s", Median(setups), "s");
    result.Add("answer_s", Median(answer_s), "s");
    result.Add("peak_rss_mb", tcp_peak_rss, "MB");
    return result;
  }
  result.Note("serve.transport_dispatch_us",
              query_p50_ms * 1e3 - replay.read_layers_us, "us");
  AddLayerMetrics(layers, &result);
  result.Add("trace.answer_ratio",
             Median(pass_answers[1]) / Median(pass_answers[0]), "ratio");
  if (!trace_out.empty()) tracer.WriteChromeJson(trace_out);
  return result;
}

}  // namespace perfbench
