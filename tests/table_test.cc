#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/overlog/catalog.h"
#include "src/overlog/table.h"

namespace boom {
namespace {

TableDef KeyedDef() {
  TableDef def;
  def.name = "file";
  def.columns = {"FileId", "ParentId", "Name"};
  def.key_columns = {0};
  return def;
}

TableDef SetDef() {
  TableDef def;
  def.name = "link";
  def.columns = {"From", "To"};
  return def;
}

TEST(TableTest, InsertAndLookupByKey) {
  Table t(KeyedDef());
  EXPECT_EQ(t.Insert(Tuple{Value(1), Value(0), Value("a")}), Table::InsertOutcome::kInserted);
  const Tuple* row = t.LookupByKey(Tuple{Value(1)});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[2], Value("a"));
}

TEST(TableTest, PrimaryKeyReplaces) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_EQ(t.Insert(Tuple{Value(1), Value(0), Value("b")}), Table::InsertOutcome::kReplaced);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ((*t.LookupByKey(Tuple{Value(1)}))[2], Value("b"));
}

TEST(TableTest, DuplicateInsertUnchanged) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_EQ(t.Insert(Tuple{Value(1), Value(0), Value("a")}), Table::InsertOutcome::kUnchanged);
}

TEST(TableTest, SetSemanticsWhenNoKeys) {
  Table t(SetDef());
  t.Insert(Tuple{Value(1), Value(2)});
  t.Insert(Tuple{Value(1), Value(3)});
  EXPECT_EQ(t.Insert(Tuple{Value(1), Value(2)}), Table::InsertOutcome::kUnchanged);
  EXPECT_EQ(t.size(), 2u);
}

TEST(TableTest, EraseExactTupleOnly) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_FALSE(t.Erase(Tuple{Value(1), Value(0), Value("zzz")}));
  EXPECT_TRUE(t.Erase(Tuple{Value(1), Value(0), Value("a")}));
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableTest, EraseByKey) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_TRUE(t.EraseByKey(Tuple{Value(1)}));
  EXPECT_FALSE(t.EraseByKey(Tuple{Value(1)}));
}

TEST(TableTest, ProbeSecondaryIndex) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  t.Insert(Tuple{Value(2), Value(0), Value("b")});
  t.Insert(Tuple{Value(3), Value(9), Value("c")});
  const auto& rows = t.Probe({1}, Tuple{Value(0)});
  EXPECT_EQ(rows.size(), 2u);
  const auto& none = t.Probe({1}, Tuple{Value(42)});
  EXPECT_TRUE(none.empty());
}

TEST(TableTest, ProbeIndexRefreshesAfterMutation) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_EQ(t.Probe({1}, Tuple{Value(0)}).size(), 1u);
  t.Insert(Tuple{Value(2), Value(0), Value("b")});
  EXPECT_EQ(t.Probe({1}, Tuple{Value(0)}).size(), 2u);
  t.EraseByKey(Tuple{Value(1)});
  EXPECT_EQ(t.Probe({1}, Tuple{Value(0)}).size(), 1u);
}

TEST(TableTest, ProbeGenerationAdvancesOnMutation) {
  Table t(KeyedDef());
  uint64_t g0 = t.probe_generation();
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  uint64_t g1 = t.probe_generation();
  EXPECT_NE(g0, g1);
  t.AssertProbeFresh(g1);  // no mutation since capture: fine
  // Unchanged re-insert of the identical row is a no-op and must NOT invalidate probes.
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_EQ(t.probe_generation(), g1);
  t.AssertProbeFresh(g1);
}

TEST(TableDeathTest, StaleProbeAfterEraseAborts) {
  // Probe results are pointers into the table; using them after an erase is a use-after-free
  // in the making. AssertProbeFresh turns that into a deterministic abort.
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  t.Insert(Tuple{Value(2), Value(0), Value("b")});
  const auto& rows = t.Probe({1}, Tuple{Value(0)});
  ASSERT_EQ(rows.size(), 2u);
  uint64_t gen = t.probe_generation();
  t.EraseByKey(Tuple{Value(1)});
  EXPECT_DEATH(t.AssertProbeFresh(gen), "stale Table::Probe result");
}

TEST(TableDeathTest, StaleProbeAfterReplaceAborts) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  uint64_t gen = t.probe_generation();
  t.Insert(Tuple{Value(1), Value(0), Value("b")});  // key replace mutates the row
  EXPECT_DEATH(t.AssertProbeFresh(gen), "stale Table::Probe result");
}

TEST(TableTest, EmptyProbeColsReturnsAllRows) {
  Table t(SetDef());
  t.Insert(Tuple{Value(1), Value(2)});
  t.Insert(Tuple{Value(3), Value(4)});
  EXPECT_EQ(t.Probe({}, Tuple{}).size(), 2u);
}

TEST(TableTest, ContainsChecksFullRow) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_TRUE(t.Contains(Tuple{Value(1), Value(0), Value("a")}));
  EXPECT_FALSE(t.Contains(Tuple{Value(1), Value(0), Value("x")}));
}


// Regression sweep for incremental index maintenance: interleaved inserts, replacements,
// erases, and probes must always match a brute-force scan.
class IndexMaintenanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexMaintenanceProperty, ProbeAlwaysMatchesScan) {
  std::mt19937_64 gen(GetParam());
  std::uniform_int_distribution<int> key(0, 40);
  std::uniform_int_distribution<int> group(0, 5);
  std::uniform_int_distribution<int> op(0, 9);

  Table t(KeyedDef());  // file(FileId keys(0), ParentId, Name)
  for (int step = 0; step < 500; ++step) {
    int action = op(gen);
    if (action < 6) {
      // Insert or replace.
      t.Insert(Tuple{Value(key(gen)), Value(group(gen)),
                     Value("n" + std::to_string(step))});
    } else if (action < 8) {
      t.EraseByKey(Tuple{Value(key(gen))});
    } else {
      // Probe on the non-key column and cross-check against a full scan.
      int g = group(gen);
      const auto& via_index = t.Probe({1}, Tuple{Value(g)});
      size_t scan_count = 0;
      t.ForEach([&scan_count, g](const Tuple& row) {
        if (row[1] == Value(g)) {
          ++scan_count;
        }
      });
      ASSERT_EQ(via_index.size(), scan_count) << "step " << step << " group " << g;
      for (const Tuple* row : via_index) {
        ASSERT_EQ((*row)[1], Value(g));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexMaintenanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Seed" + std::to_string(info.param);
                         });

TEST(TableTest, ProbeSurvivesRehash) {
  // Growing the unordered_map must not invalidate cached index pointers between probes.
  Table t(KeyedDef());
  t.Insert(Tuple{Value(0), Value(0), Value("x")});
  EXPECT_EQ(t.Probe({1}, Tuple{Value(0)}).size(), 1u);
  for (int i = 1; i < 2000; ++i) {
    t.Insert(Tuple{Value(i), Value(i % 7), Value("x")});
  }
  const auto& rows = t.Probe({1}, Tuple{Value(0)});
  size_t expected = 0;
  t.ForEach([&expected](const Tuple& row) {
    if (row[1] == Value(0)) {
      ++expected;
    }
  });
  EXPECT_EQ(rows.size(), expected);
  for (const Tuple* row : rows) {
    EXPECT_EQ((*row)[1], Value(0));  // pointers still valid
  }
}

// Every mutation patches cached indexes in place: once built, an index is never rebuilt,
// and probes see exactly the live rows after replace, erase, clear, and TTL expiry.
TEST(TableTest, PatchedIndexesNeverRebuild) {
  TableDef def = KeyedDef();  // file(FileId keys(0), ParentId, Name)
  def.ttl_ms = 10;
  Table t(def);
  const std::vector<size_t> by_parent{1};
  auto names_under = [&t, &by_parent](int parent) {
    std::multiset<std::string> names;
    for (const Tuple* row : t.Probe(by_parent, Tuple{Value(parent)})) {
      names.insert((*row)[2].as_string());
    }
    return names;
  };
  using Names = std::multiset<std::string>;

  for (int k = 0; k < 8; ++k) {
    t.Insert(Tuple{Value(k), Value(k % 2), Value("f" + std::to_string(k))}, /*now_ms=*/0);
  }
  EXPECT_EQ(names_under(0), (Names{"f0", "f2", "f4", "f6"}));
  // Replace within a bucket and across buckets.
  t.Insert(Tuple{Value(0), Value(0), Value("g0")}, 0);
  t.Insert(Tuple{Value(1), Value(0), Value("g1")}, 0);
  EXPECT_EQ(names_under(0), (Names{"g0", "g1", "f2", "f4", "f6"}));
  EXPECT_EQ(names_under(1), (Names{"f3", "f5", "f7"}));
  // Erase and EraseByKey, including a row inserted after the index last caught up.
  t.Insert(Tuple{Value(8), Value(1), Value("f8")}, 5);
  EXPECT_TRUE(t.Erase(Tuple{Value(8), Value(1), Value("f8")}));
  EXPECT_TRUE(t.EraseByKey(Tuple{Value(3)}));
  EXPECT_FALSE(t.Erase(Tuple{Value(5), Value(1), Value("stale")}));
  EXPECT_EQ(names_under(1), (Names{"f5", "f7"}));
  // TTL expiry: refresh key 5 and insert key 9 at t=5, then expire everything older.
  t.Insert(Tuple{Value(5), Value(1), Value("f5")}, 5);
  t.Insert(Tuple{Value(9), Value(0), Value("f9")}, 5);
  EXPECT_EQ(t.ExpireOlderThan(/*cutoff_ms=*/5).size(), 6u);  // keys 0, 1, 2, 4, 6, 7
  EXPECT_EQ(names_under(0), (Names{"f9"}));
  EXPECT_EQ(names_under(1), (Names{"f5"}));
  // Clear empties the index; later inserts reach it through the insert log.
  t.Clear();
  EXPECT_TRUE(names_under(0).empty());
  t.Insert(Tuple{Value(10), Value(0), Value("f10")}, 6);
  EXPECT_EQ(names_under(0), (Names{"f10"}));
  EXPECT_TRUE(names_under(1).empty());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.index_rebuilds(), 0u);
}

// Seeded differential test of index maintenance. Three tables (keyed, whole-row key, TTL)
// each carry several indexes, warmed at different steps and checked at different rates so
// some of them lag the insert log when a replace or erase patches them. Whenever an index
// is checked, every probe must equal a brute-force filter of Rows() as a multiset, and each
// bucket must keep its surviving rows in their previous relative order, with rows that
// arrived since the last check (inserts and replacements) after them.
class IndexDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexDifferential, ProbesMatchBruteForceAndKeepOrder) {
  struct TrackedIndex {
    std::vector<size_t> cols;
    int warm_step;         // first step at which the index is probed
    double check_prob;     // chance per step that it is checked (and caught up)
    // Last checked bucket contents as (row, incarnation), keyed by projection.
    std::map<std::string, std::vector<std::pair<std::string, uint64_t>>> last;
  };
  struct Subject {
    Table table;
    std::vector<TrackedIndex> indexes;
    std::map<std::string, uint64_t> incarnation;  // row text -> id of its current insert
    explicit Subject(TableDef def) : table(std::move(def)) {}
  };

  TableDef keyed;
  keyed.name = "keyed";
  keyed.columns = {"K", "G", "H", "N"};
  keyed.key_columns = {0};
  TableDef whole;
  whole.name = "whole";
  whole.columns = {"A", "B"};
  TableDef ttl;
  ttl.name = "ttl";
  ttl.columns = {"K", "G", "N"};
  ttl.key_columns = {0};
  ttl.ttl_ms = 40;

  std::vector<std::unique_ptr<Subject>> subjects;
  subjects.push_back(std::make_unique<Subject>(keyed));
  subjects[0]->indexes = {{{1}, 0, 1.0, {}}, {{1, 2}, 0, 0.15, {}}, {{}, 300, 0.3, {}},
                          {{2}, 1500, 0.5, {}}};
  subjects.push_back(std::make_unique<Subject>(whole));
  subjects[1]->indexes = {{{0}, 0, 1.0, {}}, {{1}, 700, 0.2, {}}};
  subjects.push_back(std::make_unique<Subject>(ttl));
  subjects[2]->indexes = {{{1}, 0, 0.6, {}}, {{}, 200, 0.1, {}}};

  std::mt19937_64 gen(GetParam());
  auto pick = [&gen](int n) { return std::uniform_int_distribution<int>(0, n - 1)(gen); };
  auto chance = [&gen](double p) { return std::uniform_real_distribution<>(0, 1)(gen) < p; };
  auto random_row = [&pick](const Subject& s, int step) {
    if (s.table.name() == "keyed") {
      return Tuple{Value(pick(40)), Value(pick(6)), Value(pick(3)),
                   Value("n" + std::to_string(step))};
    }
    if (s.table.name() == "whole") {
      return Tuple{Value(pick(10)), Value(pick(10))};
    }
    return Tuple{Value(pick(30)), Value(pick(5)), Value("n" + std::to_string(step))};
  };

  constexpr int kSteps = 3000;
  uint64_t next_incarnation = 1;
  double now = 0;
  for (int step = 0; step < kSteps; ++step) {
    now += 1;
    Subject& s = *subjects[pick(3)];
    Table& t = s.table;
    std::vector<Tuple> rows = t.Rows();
    const int action = pick(100);
    if (action < 45 || rows.empty()) {
      Tuple row = random_row(s, step);
      if (t.Insert(row, now) != Table::InsertOutcome::kUnchanged) {
        s.incarnation[row.ToString()] = next_incarnation++;
      }
    } else if (action < 60) {
      // Replace: an existing key gets a fresh payload.
      Tuple row = random_row(s, step);
      const Tuple& victim = rows[pick(static_cast<int>(rows.size()))];
      for (size_t col : s.table.def().EffectiveKey()) {
        row.set(col, victim[col]);
      }
      if (t.Insert(row, now) != Table::InsertOutcome::kUnchanged) {
        s.incarnation[row.ToString()] = next_incarnation++;
      }
    } else if (action < 75) {
      // Exact erase of a live row, or of a same-key row with a different payload (no-op).
      Tuple row = rows[pick(static_cast<int>(rows.size()))];
      if (chance(0.2)) {
        row = random_row(s, step);
      }
      t.Erase(row);
    } else if (action < 90) {
      t.EraseByKey(t.KeyOf(random_row(s, step)));
    } else if (action < 92) {
      t.Clear();
    } else {
      // Expire: a no-op on permanent tables, a sweep of stale leases on the TTL table.
      t.ExpireOlderThan(now - 25);
    }

    for (const auto& subject : subjects) {
      std::vector<Tuple> live = subject->table.Rows();
      for (TrackedIndex& idx : subject->indexes) {
        if (step < idx.warm_step || !chance(idx.check_prob)) {
          continue;
        }
        // Every projection present in the table, plus one that is never present.
        std::map<std::string, Tuple> probes;
        for (const Tuple& row : live) {
          Tuple proj = row.Project(idx.cols);
          probes.emplace(proj.ToString(), proj);
        }
        if (!idx.cols.empty() && !live.empty()) {
          Tuple absent = live[0].Project(idx.cols);
          absent.set(0, Value(-1));
          probes.emplace(absent.ToString(), absent);
        }
        std::map<std::string, std::vector<std::pair<std::string, uint64_t>>> now_buckets;
        for (const auto& [text, probe] : probes) {
          std::multiset<std::string> via_index;
          std::vector<std::pair<std::string, uint64_t>> order;
          for (const Tuple* row : subject->table.Probe(idx.cols, probe)) {
            via_index.insert(row->ToString());
            order.emplace_back(row->ToString(), subject->incarnation.at(row->ToString()));
          }
          std::multiset<std::string> brute;
          for (const Tuple& row : live) {
            if (row.Project(idx.cols) == probe) {
              brute.insert(row.ToString());
            }
          }
          ASSERT_EQ(via_index, brute) << subject->table.name() << " step " << step
                                      << " probe " << text;
          // Survivors first, in their previous relative order; arrivals after them.
          auto prev_it = idx.last.find(text);
          if (prev_it != idx.last.end()) {
            const auto& prev = prev_it->second;
            auto survived = [](const auto& haystack, const auto& entry) {
              return std::find(haystack.begin(), haystack.end(), entry) != haystack.end();
            };
            std::vector<std::pair<std::string, uint64_t>> expected;
            for (const auto& entry : prev) {
              if (survived(order, entry)) {
                expected.push_back(entry);
              }
            }
            for (const auto& entry : order) {
              if (!survived(prev, entry)) {
                expected.push_back(entry);
              }
            }
            ASSERT_EQ(order, expected) << subject->table.name() << " step " << step
                                       << " probe " << text << ": bucket order";
          }
          if (!order.empty()) {
            now_buckets[text] = std::move(order);
          }
        }
        idx.last = std::move(now_buckets);
      }
    }
  }
  for (const auto& subject : subjects) {
    EXPECT_EQ(subject->table.index_rebuilds(), 0u) << subject->table.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferential, ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Seed" + std::to_string(info.param);
                         });

TEST(CatalogTest, DeclareAndFind) {
  Catalog c;
  ASSERT_TRUE(c.Declare(KeyedDef()).ok());
  EXPECT_TRUE(c.Has("file"));
  EXPECT_NE(c.Find("file"), nullptr);
  EXPECT_EQ(c.Find("nope"), nullptr);
}

TEST(CatalogTest, IdenticalRedeclareIsNoop) {
  Catalog c;
  ASSERT_TRUE(c.Declare(KeyedDef()).ok());
  EXPECT_TRUE(c.Declare(KeyedDef()).ok());
}

TEST(CatalogTest, ConflictingRedeclareFails) {
  Catalog c;
  ASSERT_TRUE(c.Declare(KeyedDef()).ok());
  TableDef other = KeyedDef();
  other.columns.push_back("Extra");
  EXPECT_FALSE(c.Declare(other).ok());
}

TEST(CatalogTest, ClearEventsOnlyClearsEvents) {
  Catalog c;
  TableDef ev;
  ev.name = "req";
  ev.columns = {"X"};
  ev.kind = TableKind::kEvent;
  ASSERT_TRUE(c.Declare(ev).ok());
  ASSERT_TRUE(c.Declare(KeyedDef()).ok());
  c.Get("req").Insert(Tuple{Value(1)});
  c.Get("file").Insert(Tuple{Value(1), Value(0), Value("a")});
  c.ClearEvents();
  EXPECT_EQ(c.Get("req").size(), 0u);
  EXPECT_EQ(c.Get("file").size(), 1u);
}

}  // namespace
}  // namespace boom
