// Differential test of incremental aggregates: every engine runs the same seeded op stream
// twice, once by default (eligible aggregates fold their driver's change log) and once with
// disable_incremental_aggregates (every aggregate recomputed from its whole input). After
// every tick the two must hold identical tables and must have fired identical watch events,
// in the same order.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "src/boommr/jt_program.h"
#include "src/overlog/engine.h"

namespace boom {
namespace {

struct WatchEvent {
  std::string table;
  Tuple tuple;
  bool inserted;
  bool operator==(const WatchEvent& o) const {
    return table == o.table && tuple == o.tuple && inserted == o.inserted;
  }
};

// One engine plus the watch events it fired.
struct Side {
  std::unique_ptr<Engine> engine;
  std::vector<WatchEvent> events;
};

Side MakeSide(bool incremental, const std::string& address) {
  EngineOptions options;
  options.address = address;
  options.disable_incremental_aggregates = !incremental;
  return Side{std::make_unique<Engine>(options), {}};
}

void WatchAll(Side* side, const std::vector<std::string>& tables) {
  for (const std::string& table : tables) {
    side->engine->AddWatch(table, [side](const std::string& t, const Tuple& tuple,
                                         bool inserted) {
      side->events.push_back(WatchEvent{t, tuple, inserted});
    });
  }
}

std::vector<Tuple> SortedRows(const Engine& e, const std::string& table) {
  std::vector<Tuple> rows = e.catalog().Get(table).Rows();
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Every table of `a` holds exactly the rows of the same table in `b`.
void ExpectSameTables(const Engine& a, const Engine& b, const std::string& where) {
  for (const std::string& name : a.catalog().TableNames()) {
    ASSERT_EQ(SortedRows(a, name), SortedRows(b, name)) << name << " differs " << where;
  }
}

size_t IncrementalRules(const Engine& e) {
  size_t n = 0;
  for (const CompiledRule& rule : e.compiled().rules) {
    n += rule.incremental_agg ? 1 : 0;
  }
  return n;
}

constexpr char kMixProgram[] = R"olg(
program mix;
table keyed(Id, G, V) keys(0);
table whole(G, V);
table soft(Id, G) keys(0) ttl(35);
table log(G, V);

event put_keyed(Id, G, V);
event put_keyed_next(Id, G, V);
event del_keyed(Id);
event put_whole(G, V);
event del_whole(G);
event put_soft(Id, G);
event put_log(G, V);

i1 keyed(Id, G, V) :- put_keyed(Id, G, V);
i2 keyed(Id, G, V)@next :- put_keyed_next(Id, G, V);
d1 delete keyed(Id, G, V) :- del_keyed(Id), keyed(Id, G, V);
i3 whole(G, V) :- put_whole(G, V);
d2 delete whole(G, V) :- del_whole(G), whole(G, V);
i4 soft(Id, G) :- put_soft(Id, G);
i5 log(G, V) :- put_log(G, V);

table keyed_cnt(G, N) keys(0);
table keyed_hi(G, N) keys(0);
table keyed_g3(K, N) keys(0);
table keyed_par(P, N) keys(0);
table whole_cnt(G, N) keys(0);
table soft_cnt(G, N) keys(0);
table log_min(G, M) keys(0);
table log_max(G, M) keys(0);
table log_sum(G, S) keys(0);
table keyed_min(G, M) keys(0);

a1 keyed_cnt(G, count<Id>) :- keyed(Id, G, _);
a2 keyed_hi(G, count<Id>) :- keyed(Id, G, V), V > 50;
a3 keyed_g3(1, count<Id>) :- keyed(Id, 3, _);
a4 keyed_par(P, count<Id>) :- keyed(Id, _, V), P := V % 2;
a5 whole_cnt(G, count<V>) :- whole(G, V);
a6 soft_cnt(G, count<Id>) :- soft(Id, G);
a7 log_min(G, min<V>) :- log(G, V);
a8 log_max(G, max<V>) :- log(G, V);
a9 log_sum(G, sum<V>) :- log(G, V);
a10 keyed_min(G, min<V>) :- keyed(_, G, V);
)olg";

class AggDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggDifferential, ChangeLogFoldMatchesFullRecompute) {
  Side inc = MakeSide(true, "n");
  Side full = MakeSide(false, "n");
  for (Side* side : {&inc, &full}) {
    ASSERT_TRUE(side->engine->InstallSource(kMixProgram).ok());
    WatchAll(side, {"keyed_cnt", "keyed_hi", "keyed_g3", "keyed_par", "whole_cnt", "soft_cnt",
                    "log_min", "log_max", "log_sum", "keyed_min"});
  }
  // a1-a9 fold the change log; a10 (min<> over a keyed driver) recomputes on both sides.
  ASSERT_EQ(IncrementalRules(*inc.engine), 9u);
  ASSERT_EQ(IncrementalRules(*full.engine), 0u);

  std::mt19937_64 rng(GetParam());
  auto pick = [&rng](int n) { return static_cast<int64_t>(rng() % static_cast<uint64_t>(n)); };
  for (int tick = 0; tick < 400; ++tick) {
    const int ops = static_cast<int>(pick(6));
    for (int i = 0; i < ops; ++i) {
      std::string table;
      Tuple tuple;
      switch (pick(8)) {
        case 0:
        case 1:  // insert or replace a keyed row (often a group or value change)
          table = "put_keyed";
          tuple = Tuple{Value(pick(12)), Value(pick(5)), Value(pick(100))};
          break;
        case 2:
          table = "put_keyed_next";
          tuple = Tuple{Value(pick(12)), Value(pick(5)), Value(pick(100))};
          break;
        case 3:
          table = "del_keyed";
          tuple = Tuple{Value(pick(12))};
          break;
        case 4:
          table = "put_whole";
          tuple = Tuple{Value(pick(4)), Value(pick(6))};
          break;
        case 5:
          table = pick(4) == 0 ? "del_whole" : "put_whole";
          tuple = table == "del_whole" ? Tuple{Value(pick(4))}
                                       : Tuple{Value(pick(4)), Value(pick(6))};
          break;
        case 6:  // soft state: rows expire 35 ms after their last (re)insert
          table = "put_soft";
          tuple = Tuple{Value(pick(8)), Value(pick(3))};
          break;
        default:
          table = "put_log";
          tuple = Tuple{Value(pick(4)), Value(pick(1000) - 500)};
          break;
      }
      ASSERT_TRUE(inc.engine->Enqueue(table, tuple).ok());
      ASSERT_TRUE(full.engine->Enqueue(table, tuple).ok());
    }
    const double now = tick * 10.0;
    Engine::TickResult ri = inc.engine->Tick(now);
    Engine::TickResult rf = full.engine->Tick(now);
    ASSERT_TRUE(ri.errors.empty() && rf.errors.empty());
    ExpectSameTables(*inc.engine, *full.engine, "after tick " + std::to_string(tick));
    ASSERT_EQ(inc.events, full.events) << "watch events differ after tick " << tick;
  }
  // The stream really exercised retraction: groups emptied and were erased.
  const bool retracted = std::any_of(inc.events.begin(), inc.events.end(),
                                     [](const WatchEvent& e) { return !e.inserted; });
  EXPECT_TRUE(retracted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggDifferential, ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Seed" + std::to_string(info.param);
                         });

// The FIFO JobTracker (b1/b2 count done tasks over the keyed `task` table) driven through a
// seeded stream of submissions, heartbeats, completions and silent trackers. Both sides
// must send the same assigns and hold the same scheduler state after every tick.
TEST(AggDifferentialJobTracker, FifoSchedulerMatchesFullRecompute) {
  Side inc = MakeSide(true, "jt");
  Side full = MakeSide(false, "jt");
  for (Side* side : {&inc, &full}) {
    ASSERT_TRUE(side->engine->Install(BoomMrJtProgram()).ok());
    WatchAll(side, {"map_done_cnt", "reduce_done_cnt", "maps_done", "job", "task"});
  }
  ASSERT_GT(IncrementalRules(*inc.engine), 0u);

  std::mt19937_64 rng(9001);
  auto pick = [&rng](int n) { return static_cast<int64_t>(rng() % static_cast<uint64_t>(n)); };
  const std::vector<std::string> trackers = {"tt0", "tt1", "tt2", "tt3"};
  // Assigned attempts awaiting their completion report: (due tick, tracker, assign row).
  std::vector<std::tuple<int, std::string, Tuple>> running;
  int next_job = 0;
  int silent_until = -1;  // ticks before which tt3 sends no heartbeats
  size_t jobs_done = 0;
  for (int tick = 0; tick < 1500; ++tick) {
    std::vector<std::pair<std::string, Tuple>> in;
    if (tick % 40 == 0 && next_job < 30) {
      const int64_t job = next_job++;
      const int64_t maps = 1 + pick(6);
      const int64_t reduces = pick(3);
      in.emplace_back("mr_submit", Tuple{Value("jt"), Value(job), Value("client"),
                                         Value(maps), Value(reduces)});
      for (int64_t t = 0; t < maps + reduces; ++t) {
        in.emplace_back("mr_task", Tuple{Value("jt"), Value(job), Value(t),
                                         Value(t < maps ? "map" : "reduce")});
      }
    }
    if (pick(200) == 0) {
      silent_until = tick + 50;  // long enough for the tracker timeout to fire
    }
    for (const std::string& tt : trackers) {
      if ((tt == "tt3" && tick < silent_until) || pick(3) != 0) {
        continue;
      }
      in.emplace_back("tt_hb", Tuple{Value("jt"), Value(tt), Value(pick(3)), Value(pick(2))});
    }
    for (auto it = running.begin(); it != running.end();) {
      const auto& [due, tt, assign] = *it;
      if (due > tick) {
        ++it;
        continue;
      }
      // assign(Addr, JobId, TaskId, AttemptId, Type, Spec)
      in.emplace_back("tt_done", Tuple{Value("jt"), Value(tt), assign[1], assign[2],
                                       assign[3], assign[4]});
      it = running.erase(it);
    }
    for (const auto& [table, tuple] : in) {
      ASSERT_TRUE(inc.engine->Enqueue(table, tuple).ok());
      ASSERT_TRUE(full.engine->Enqueue(table, tuple).ok());
    }
    const double now = tick * 100.0;
    Engine::TickResult ri = inc.engine->Tick(now);
    Engine::TickResult rf = full.engine->Tick(now);
    ASSERT_EQ(ri.sends.size(), rf.sends.size()) << "tick " << tick;
    for (size_t i = 0; i < ri.sends.size(); ++i) {
      const Engine::Send& s = ri.sends[i];
      ASSERT_EQ(s.dest, rf.sends[i].dest);
      ASSERT_EQ(s.table, rf.sends[i].table);
      ASSERT_EQ(s.tuple, rf.sends[i].tuple);
      if (s.table == "assign" && !(s.dest == "tt3" && tick < silent_until)) {
        running.emplace_back(tick + 1 + static_cast<int>(pick(30)), s.dest, s.tuple);
      }
      jobs_done += s.table == "mr_job_done" ? 1 : 0;
    }
    ExpectSameTables(*inc.engine, *full.engine, "after tick " + std::to_string(tick));
    ASSERT_EQ(inc.events, full.events) << "watch events differ after tick " << tick;
  }
  EXPECT_GT(jobs_done, 10u) << "the stream should carry jobs through both phase barriers";
}

}  // namespace
}  // namespace boom
