#include "gen.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

namespace perfbench {

namespace {

std::vector<std::size_t> Permutation(std::size_t n, Rng* rng) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng->Below(i)]);
  return p;
}

// Joins shuffled fact strings into one facts text.
std::string Shuffled(std::vector<std::string> facts, Rng* rng) {
  for (std::size_t i = facts.size(); i > 1; --i) {
    std::swap(facts[i - 1], facts[rng->Below(i)]);
  }
  std::string text;
  for (const std::string& f : facts) {
    text += f;
    text += ".\n";
  }
  return text;
}

// The read mix of the request phase: nine in ten are point lookups, one in
// ten is a prepared join count. One lookup in ten misses: it names a
// constant in a position where the KB has no fact for it. (An unknown name
// in a query is a variable, so a miss must name a known constant.)
std::vector<Request> ReadMix(const Workload& w, std::size_t absent_from,
                             std::size_t count, Rng* rng) {
  std::vector<Request> reads;
  for (std::size_t i = 0; i < count; ++i) {
    Request r;
    if (rng->Below(10) == 0) {
      r.kind = Request::Kind::kJoinCount;
      r.line = PreparedLine("j", "count");
    } else {
      r.kind = Request::Kind::kLookup;
      r.oracle = rng->Below(10) == 0
                     ? absent_from + rng->Below(w.lookups.size() - absent_from)
                     : rng->Below(absent_from);
      r.line = QueryLine(w.lookups[r.oracle], "all");
    }
    reads.push_back(std::move(r));
  }
  return reads;
}

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  std::size_t Find(std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  }
  void Union(std::size_t a, std::size_t b) { parent[Find(a)] = Find(b); }
};

constexpr std::size_t kReadPool = 8192;
constexpr std::size_t kAddBatches = 256;

}  // namespace

std::string QueryLine(std::string_view cq, const char* mode) {
  return std::string("{\"op\":\"query\",\"query\":\"") + std::string(cq) +
         "\",\"mode\":\"" + mode + "\"}";
}

std::string PreparedLine(std::string_view name, const char* mode) {
  return std::string("{\"op\":\"query\",\"prepared\":\"") + std::string(name) +
         "\",\"mode\":\"" + mode + "\"}";
}

std::string PrepareLine(std::string_view name, std::string_view cq) {
  return std::string("{\"op\":\"prepare\",\"name\":\"") + std::string(name) +
         "\",\"query\":\"" + std::string(cq) + "\"}";
}

std::string AddLine(std::string_view facts) {
  std::string line = "{\"op\":\"add\",\"facts\":\"";
  for (char c : facts) line += c == '\n' ? ' ' : c;
  return line + "\"}";
}

Workload TcTournament(std::uint64_t seed, std::size_t edges) {
  Rng rng(seed);
  Workload w;
  w.name = "tc-tournament";
  w.path_edges = edges;
  w.rules = "[trans] E(x,y), E(y,z) -> E(x,z)\n";
  const std::vector<std::size_t> ids = Permutation(edges + 1, &rng);
  std::vector<std::string> node;
  for (std::size_t id : ids) node.push_back("v" + std::to_string(id));
  std::vector<std::string> facts;
  for (std::size_t i = 0; i < edges; ++i) {
    facts.push_back("E(" + node[i] + "," + node[i + 1] + ")");
  }
  w.facts = Shuffled(std::move(facts), &rng);

  // The paper's loop query is false on the transitive tournament; the
  // reachability query answers every node after its source.
  w.queries.push_back({"? :- E(x,x)", false, 0, {}});
  const std::size_t src = edges / 4;
  BatchQuery reach{"?(y) :- E(" + node[src] + ",y)", false,
                   static_cast<long long>(edges - src), {}};
  for (std::size_t i = src + 1; i <= edges; ++i) {
    reach.expected.push_back({node[i]});
  }
  std::sort(reach.expected.begin(), reach.expected.end());
  w.queries.push_back(std::move(reach));

  // Lookups: E(a,b) holds iff a precedes b on the path. Misses ask for a
  // loop E(a,a), which the tournament never has.
  const std::size_t present = 512;
  for (std::size_t i = 0; i < present; ++i) {
    const std::size_t a = rng.Below(edges + 1);
    const std::size_t b = rng.Below(edges + 1);
    w.lookups.push_back("? :- E(" + node[a] + "," + node[b] + ")");
    w.lookup_expected.push_back(a < b ? AnswerSet{{}} : AnswerSet{});
  }
  for (std::size_t i = 0; i < 64; ++i) {
    const std::string& a = node[rng.Below(edges + 1)];
    w.lookups.push_back("? :- E(" + a + "," + a + ")");
    w.lookup_expected.push_back({});
  }
  // The prepared join counts the nodes strictly between two path nodes.
  // Positions are fixed (names are not), so every seed does the same work.
  const std::size_t lo = edges / 4;
  const std::size_t hi = 3 * edges / 4;
  w.join = "?(x) :- E(" + node[lo] + ",x), E(x," + node[hi] + ")";
  w.join_expected = static_cast<long long>(hi - lo - 1);

  // Each add is a fresh 32-edge path: 528 new E atoms, disjoint from the
  // lookups' nodes, so the lookup answers hold at every epoch.
  for (std::size_t b = 0; b < kAddBatches; ++b) {
    std::string text;
    const std::string p = "w" + std::to_string(b) + "_";
    for (std::size_t k = 0; k < 32; ++k) {
      text += "E(" + p + std::to_string(k) + "," + p + std::to_string(k + 1) +
              "). ";
    }
    w.adds.push_back(std::move(text));
  }
  w.reads = ReadMix(w, present, kReadPool, &rng);
  return w;
}

Workload Ontology(const std::string& name, std::uint64_t seed,
                  std::size_t students) {
  Rng rng(seed);
  Workload w;
  w.name = name;
  w.rules =
      "[advisor]    Student(s) -> Advises(p,s), Prof(p)\n"
      "[dept]       Prof(p) -> WorksIn(p,d), Dept(d)\n"
      "[coadvised]  Advises(p,s), Advises(q,s) -> Colleague(p,q)\n"
      "[colltrans]  Colleague(p,q), Colleague(q,r) -> Colleague(p,r)\n";

  // Students fall into groups of 25 sharing four professors P0..P3. In
  // every group the same roles recur: two students advised by P0, two by
  // P1, one each by P2 and P3, one by both P0 and P1, eighteen with no
  // known advisor. The seed only renames and reorders, so every seed
  // materializes the same number of atoms (the Colleague closure is
  // quadratic in a component: 7 members for P0/P1, 2 for P2, 2 for P3).
  // Each course has exactly 20 students.
  constexpr std::size_t kStudentsPerGroup = 25;
  constexpr std::size_t kProfsPerGroup = 4;
  const std::size_t groups = students / kStudentsPerGroup;
  students = groups * kStudentsPerGroup;
  const std::size_t profs = groups * kProfsPerGroup;
  const std::size_t courses = std::max<std::size_t>(1, students / 20);
  const std::vector<std::size_t> sid = Permutation(students, &rng);
  const std::vector<std::size_t> pid = Permutation(profs, &rng);
  const std::vector<std::size_t> seat = Permutation(students, &rng);
  auto sname = [&](std::size_t s) { return "s" + std::to_string(sid[s]); };
  auto pname = [&](std::size_t p) { return "p" + std::to_string(pid[p]); };
  const std::vector<std::vector<std::size_t>> roles = {
      {0}, {0}, {1}, {1}, {2}, {3}, {0, 1}};

  std::vector<std::string> facts;
  for (std::size_t p = 0; p < profs; ++p) facts.push_back("Prof(" + pname(p) + ")");
  std::vector<std::vector<std::size_t>> advisors(students);
  std::vector<std::size_t> course(students);
  for (std::size_t s = 0; s < students; ++s) {
    facts.push_back("Student(" + sname(s) + ")");
    const std::size_t g = s / kStudentsPerGroup;
    const std::size_t role = s % kStudentsPerGroup;
    if (role < roles.size()) {
      for (std::size_t r : roles[role]) {
        advisors[s].push_back(g * kProfsPerGroup + r);
      }
    }
    for (std::size_t a : advisors[s]) {
      facts.push_back("Advises(" + pname(a) + "," + sname(s) + ")");
    }
    course[s] = seat[s] % courses;
    facts.push_back("Takes(" + sname(s) + ",c" + std::to_string(course[s]) + ")");
  }
  w.facts = Shuffled(std::move(facts), &rng);

  // Closed forms of the answers. Colleague holds between any two advisors
  // linked through co-advised students (the invented advisor of each
  // explicitly advised student joins its advisors' component).
  UnionFind uf(profs);
  std::vector<bool> advising(profs, false);
  for (std::size_t s = 0; s < students; ++s) {
    for (std::size_t a : advisors[s]) {
      advising[a] = true;
      uf.Union(a, advisors[s][0]);
    }
  }
  std::map<std::size_t, std::vector<std::size_t>> components;
  for (std::size_t p = 0; p < profs; ++p) {
    if (advising[p]) components[uf.Find(p)].push_back(p);
  }

  BatchQuery all_advised{"?(s) :- Advises(p,s)", true,
                         static_cast<long long>(students), {}};
  for (std::size_t s = 0; s < students; ++s) {
    all_advised.expected.push_back({sname(s)});
  }
  BatchQuery colleagues{"?(p,q) :- Colleague(p,q)", false, -1, {}};
  for (const auto& [root, members] : components) {
    for (std::size_t a : members) {
      for (std::size_t b : members) {
        colleagues.expected.push_back({pname(a), pname(b)});
      }
    }
  }
  colleagues.expected_count =
      static_cast<long long>(colleagues.expected.size());
  BatchQuery employed{"? :- Prof(p), WorksIn(p,d)", true, 1, {{}}};
  BatchQuery advisor_courses{"?(p,c) :- Advises(p,s), Takes(s,c)", true, -1,
                             {}};
  for (std::size_t s = 0; s < students; ++s) {
    for (std::size_t a : advisors[s]) {
      advisor_courses.expected.push_back(
          {pname(a), "c" + std::to_string(course[s])});
    }
  }
  for (BatchQuery* q : {&all_advised, &colleagues, &employed,
                        &advisor_courses}) {
    std::sort(q->expected.begin(), q->expected.end());
    q->expected.erase(std::unique(q->expected.begin(), q->expected.end()),
                      q->expected.end());
    q->expected_count = static_cast<long long>(q->expected.size());
    w.queries.push_back(std::move(*q));
  }

  // Lookups over the initial students (the adds introduce new ones only).
  const std::size_t present = 1024;
  for (std::size_t i = 0; i < present; ++i) {
    const std::size_t s = rng.Below(students);
    if (i % 2 == 0) {
      w.lookups.push_back("?(p) :- Advises(p," + sname(s) + ")");
      AnswerSet expected;
      for (std::size_t a : advisors[s]) expected.push_back({pname(a)});
      std::sort(expected.begin(), expected.end());
      w.lookup_expected.push_back(std::move(expected));
    } else {
      w.lookups.push_back("?(c) :- Takes(" + sname(s) + ",c)");
      w.lookup_expected.push_back({{"c" + std::to_string(course[s])}});
    }
  }
  for (std::size_t i = 0; i < 128; ++i) {
    if (i % 2 == 0) {
      w.lookups.push_back("?(p) :- Advises(p,c" +
                          std::to_string(rng.Below(courses)) + ")");
    } else {
      w.lookups.push_back("?(c) :- Takes(" + pname(rng.Below(profs)) + ",c)");
    }
    w.lookup_expected.push_back({});
  }
  // The prepared join counts the advisor pairs of the students taking one
  // course; it starts from the course, so its cost does not grow with the
  // KB.
  const std::size_t joined_course = rng.Below(courses);
  w.join = "?(p,q) :- Takes(s,c" + std::to_string(joined_course) +
           "), Advises(p,s), Advises(q,s)";
  std::set<std::pair<std::size_t, std::size_t>> coadvising;
  for (std::size_t s = 0; s < students; ++s) {
    if (course[s] != joined_course) continue;
    for (std::size_t a : advisors[s]) {
      for (std::size_t b : advisors[s]) coadvising.insert({a, b});
    }
  }
  w.join_expected = static_cast<long long>(coadvising.size());

  // Each add enrolls 16 new students (taking no course, so the join count
  // stays put), each advised by some group's P3, whose component is small.
  for (std::size_t b = 0; b < kAddBatches; ++b) {
    std::string text;
    for (std::size_t k = 0; k < 16; ++k) {
      const std::string t = "t" + std::to_string(b) + "_" + std::to_string(k);
      text += "Student(" + t + "). Advises(" +
              pname(rng.Below(groups) * kProfsPerGroup + 3) + "," + t + "). ";
    }
    w.adds.push_back(std::move(text));
  }
  w.reads = ReadMix(w, present, kReadPool, &rng);
  return w;
}

}  // namespace perfbench
