// Table: a materialized Overlog relation with primary-key semantics and lazily built
// secondary hash indexes.
//
// Overlog tables declare a primary key (subset of columns). Inserting a tuple whose key is
// already present replaces the old row (update-in-place semantics, as in P2/JOL). Tables with
// no declared key treat every column as the key, i.e. plain set semantics.
//
// A secondary index is built over the live rows on its first probe and is never rebuilt
// after that: new rows fold in from an insert log on the next probe, and a replace, erase,
// TTL expiry or Clear() patches the affected buckets in place.
//
// Event tables hold tuples for a single engine timestep; the Engine clears them between ticks.

#ifndef SRC_OVERLOG_TABLE_H_
#define SRC_OVERLOG_TABLE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/overlog/tuple.h"

namespace boom {

enum class TableKind {
  kTable,  // persistent across timesteps
  kEvent,  // cleared at the end of each timestep
};

struct TableDef {
  std::string name;
  std::vector<std::string> columns;  // column names (for diagnostics; arity = size)
  std::vector<size_t> key_columns;   // empty => all columns form the key
  TableKind kind = TableKind::kTable;
  // Soft state (P2-style): rows older than this expire unless refreshed by re-insertion.
  // 0 = permanent.
  double ttl_ms = 0;

  size_t arity() const { return columns.size(); }
  // Effective key: declared keys, or all columns when none declared.
  std::vector<size_t> EffectiveKey() const;
};

// Secondary index: projection of selected columns -> rows having that projection.
// TupleHash/TupleEq are transparent, so probes can use a TupleView (values + precomputed
// hash) without materializing a Tuple.
using Index = std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash, TupleEq>;

class Table {
 public:
  explicit Table(TableDef def);

  const TableDef& def() const { return def_; }
  const std::string& name() const { return def_.name; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  uint64_t version() const { return version_; }

  enum class InsertOutcome {
    kInserted,   // new key
    kReplaced,   // existing key, different row
    kUnchanged,  // identical row already present
  };

  // Inserts or replaces by primary key. Tuple arity must match the declaration. `now_ms`
  // stamps the row for TTL expiry (ignored for permanent tables).
  InsertOutcome Insert(Tuple tuple, double now_ms = 0);

  // Removes the exact tuple if present (key match with identical payload).
  bool Erase(const Tuple& tuple);
  // Removes whatever row currently holds this primary key.
  bool EraseByKey(const Tuple& key);

  // Returns the row with this primary key, or nullptr. The pointer is stable until the next
  // mutation of that key.
  const Tuple* LookupByKey(const Tuple& key) const;
  bool Contains(const Tuple& tuple) const;

  // Snapshot of all rows (copy; used where mutation during iteration is possible).
  std::vector<Tuple> Rows() const;

  // Visits all rows without copying. Callers must not mutate the table during the visit.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, row] : rows_) {
      fn(row);
    }
  }

  // Returns rows whose projection on `cols` equals `probe`, via a cached hash index built on
  // the first probe of `cols` and patched on every mutation after that. Within a bucket,
  // rows keep their index order: build order, then insertion order, with a replaced row
  // moving to the end. The returned pointers (and the returned vector itself) are valid
  // until the next table mutation; capture probe_generation() before use and call
  // AssertProbeFresh() to enforce that in debug builds.
  const std::vector<const Tuple*>& Probe(const std::vector<size_t>& cols, const Tuple& probe);
  // Precomputed-hash probe path: no Tuple is materialized and the hash is computed once by
  // the caller (TupleView::Of), not re-derived per hash-map operation.
  const std::vector<const Tuple*>& Probe(const std::vector<size_t>& cols,
                                         const TupleView& probe);

  // Builds (or catches up) the secondary index on `cols` now. After this — and until the
  // next table mutation — Probe(cols, ...) is write-free: the cached index exists and the
  // insert-log catch-up loop has nothing to fold in. The parallel fixpoint warms every
  // (table, probe_cols) pair a rule batch will touch on the engine thread before
  // dispatching, so worker-side probes are pure reads.
  void WarmIndex(const std::vector<size_t>& cols) { GetIndex(cols); }

  // Generation token for probe-result validity: changes on every mutation that can move or
  // drop rows out of cached indexes (insert, replace, erase, clear, TTL expiry).
  uint64_t probe_generation() const { return version_; }
  // Aborts when the table has mutated since `generation` was captured — i.e. a Probe result
  // taken at that generation is stale. Callers gate this behind debug builds.
  void AssertProbeFresh(uint64_t generation) const;

  // Removes every row. Cached indexes are emptied in place and stay built.
  void Clear();

  // Soft state: removes rows stamped before `cutoff_ms`, returning the expired rows.
  std::vector<Tuple> ExpireOlderThan(double cutoff_ms);

  // Extracts the primary key projection from a full row.
  Tuple KeyOf(const Tuple& tuple) const { return tuple.Project(effective_key_); }

  // --- optimizer and profiling support ------------------------------------------------

  // Cost-model statistic: exact count of distinct values in column `col` by full scan.
  // Order-independent (set-based), so the result is deterministic regardless of hash-map
  // iteration order — required for byte-identical re-planning per seed.
  uint64_t DistinctCount(size_t col) const;

  // Runtime counters for perf_table / the metrics registry. Atomic (relaxed) because the
  // parallel fixpoint probes warmed indexes from worker threads.
  uint64_t probes() const { return probes_.load(std::memory_order_relaxed); }
  uint64_t probe_hits() const { return probe_hits_.load(std::memory_order_relaxed); }
  // Full rebuilds of an already-built index. Always 0: every mutation patches cached
  // indexes in place. Still published (perf_table's Rebuilds column, the engine.table.*
  // gauges, benchmark reports) so existing readers keep their schema.
  uint64_t index_rebuilds() const { return 0; }

 private:
  using RowMap = std::unordered_map<Tuple, Tuple, TupleHash>;  // key projection -> full row

  struct CachedIndex {
    size_t log_pos = 0;  // prefix of insert_log_ already folded in
    Index index;
  };

  const Index& GetIndex(const std::vector<size_t>& cols);
  // Folds the insert_log_ entries past `cached.log_pos` into `cached`.
  void CatchUp(const std::vector<size_t>& cols, CachedIndex& cached);

  // Brings every cached index fully up to date (folding the insert log), then removes
  // `row` — identified by address — from each bucket keyed by its current projection.
  // Leaves insert_log_ empty with every index at log_pos 0. Callers must invoke this while
  // `row` still holds its old payload.
  void RemoveRowFromIndexes(const Tuple* row);
  // Appends `row` (already holding its new payload) to every cached index bucket.
  void AddRowToIndexes(const Tuple* row);
  // The one per-row removal path (Erase, EraseByKey, TTL expiry): unindex, then drop.
  void EraseRow(RowMap::iterator it);

  TableDef def_;
  std::vector<size_t> effective_key_;
  bool key_is_whole_row_;
  RowMap rows_;
  std::unordered_map<Tuple, double, TupleHash> row_time_;  // TTL tables only
  std::map<std::vector<size_t>, CachedIndex> indexes_;
  uint64_t version_ = 0;
  // Plain inserts append here (rows_ nodes have stable addresses), so cached indexes catch
  // up in O(delta) on their next probe. Replace and erase fold the log into every index
  // before patching, then empty it.
  std::vector<const Tuple*> insert_log_;
  std::vector<const Tuple*> empty_result_;
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> probe_hits_{0};
};

}  // namespace boom

#endif  // SRC_OVERLOG_TABLE_H_
