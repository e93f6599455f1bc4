#include "src/overlog/table.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "src/base/logging.h"

namespace boom {

std::vector<size_t> TableDef::EffectiveKey() const {
  if (!key_columns.empty()) {
    return key_columns;
  }
  std::vector<size_t> all(columns.size());
  std::iota(all.begin(), all.end(), 0);
  return all;
}

Table::Table(TableDef def) : def_(std::move(def)) {
  effective_key_ = def_.EffectiveKey();
  key_is_whole_row_ = effective_key_.size() == def_.arity();
}

Table::InsertOutcome Table::Insert(Tuple tuple, double now_ms) {
  BOOM_CHECK(tuple.size() == def_.arity())
      << "arity mismatch inserting into " << def_.name << ": got " << tuple.size()
      << ", want " << def_.arity();
  Tuple key = KeyOf(tuple);
  if (def_.ttl_ms > 0) {
    row_time_[key] = now_ms;  // stamp, or refresh the lease on re-insertion
  }
  // Single hash-table traversal for both the new-key and existing-key cases; the mapped
  // Tuple is only copied (a refcount bump) when the key is actually new.
  auto [it, added] = rows_.try_emplace(std::move(key), tuple);
  if (added) {
    insert_log_.push_back(&it->second);
    LogChange(it->second, /*inserted=*/true);
    ++version_;
    return InsertOutcome::kInserted;
  }
  if (it->second == tuple) {
    return InsertOutcome::kUnchanged;
  }
  LogChange(it->second, /*inserted=*/false);
  // Remove the old payload from every cached index while it is still readable, assign in
  // place (the node address is stable), then re-add under the new projections.
  RemoveRowFromIndexes(&it->second);
  it->second = std::move(tuple);
  AddRowToIndexes(&it->second);
  LogChange(it->second, /*inserted=*/true);
  ++version_;
  return InsertOutcome::kReplaced;
}

bool Table::Erase(const Tuple& tuple) {
  auto it = rows_.find(KeyOf(tuple));
  if (it == rows_.end() || it->second != tuple) {
    return false;
  }
  EraseRow(it);
  return true;
}

bool Table::EraseByKey(const Tuple& key) {
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return false;
  }
  EraseRow(it);
  return true;
}

void Table::EraseRow(RowMap::iterator it) {
  RemoveRowFromIndexes(&it->second);
  LogChange(it->second, /*inserted=*/false);
  rows_.erase(it);
  ++version_;
}

void Table::CatchUp(const std::vector<size_t>& cols, CachedIndex& cached) {
  for (; cached.log_pos < insert_log_.size(); ++cached.log_pos) {
    const Tuple* row = insert_log_[cached.log_pos];
    cached.index[row->Project(cols)].push_back(row);
  }
}

void Table::RemoveRowFromIndexes(const Tuple* row) {
  for (auto& [cols, cached] : indexes_) {
    // Fold pending plain inserts first so the bucket for `row` is present even when the row
    // was inserted after this index last caught up.
    CatchUp(cols, cached);
    auto bucket_it = cached.index.find(row->Project(cols));
    if (bucket_it == cached.index.end()) {
      continue;
    }
    std::vector<const Tuple*>& bucket = bucket_it->second;
    // std::find + erase keeps the surviving rows' relative order, which derivation order
    // (and with it trace order) observes.
    auto pos = std::find(bucket.begin(), bucket.end(), row);
    if (pos != bucket.end()) {
      bucket.erase(pos);
    }
    if (bucket.empty()) {
      cached.index.erase(bucket_it);
    }
  }
  // Every index has folded the whole log, so it can restart empty.
  insert_log_.clear();
  for (auto& [cols, cached] : indexes_) {
    cached.log_pos = 0;
  }
}

void Table::AddRowToIndexes(const Tuple* row) {
  for (auto& [cols, cached] : indexes_) {
    cached.index[row->Project(cols)].push_back(row);
  }
}

const Tuple* Table::LookupByKey(const Tuple& key) const {
  auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

bool Table::Contains(const Tuple& tuple) const {
  const Tuple* row = LookupByKey(KeyOf(tuple));
  return row != nullptr && *row == tuple;
}

std::vector<Tuple> Table::Rows() const {
  std::vector<Tuple> out;
  out.reserve(rows_.size());
  for (const auto& [key, row] : rows_) {
    out.push_back(row);
  }
  return out;
}

const Index& Table::GetIndex(const std::vector<size_t>& cols) {
  auto [it, added] = indexes_.try_emplace(cols);
  CachedIndex& cached = it->second;
  if (added) {
    // First probe on these columns: build over the live rows; later inserts fold in from
    // the insert log.
    for (const auto& [key, row] : rows_) {
      cached.index[row.Project(cols)].push_back(&row);
    }
    cached.log_pos = insert_log_.size();
    return cached.index;
  }
  // Catch up on plain inserts only: O(delta) per probe instead of O(table).
  CatchUp(cols, cached);
  return cached.index;
}

const std::vector<const Tuple*>& Table::Probe(const std::vector<size_t>& cols,
                                              const Tuple& probe) {
  const Index& index = GetIndex(cols);
  probes_.fetch_add(1, std::memory_order_relaxed);
  auto it = index.find(probe);
  if (it == index.end()) {
    return empty_result_;
  }
  probe_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

const std::vector<const Tuple*>& Table::Probe(const std::vector<size_t>& cols,
                                              const TupleView& probe) {
  const Index& index = GetIndex(cols);
  probes_.fetch_add(1, std::memory_order_relaxed);
  auto it = index.find(probe);
  if (it == index.end()) {
    return empty_result_;
  }
  probe_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

uint64_t Table::DistinctCount(size_t col) const {
  if (col >= def_.arity()) {
    return 0;
  }
  std::unordered_set<Tuple, TupleHash, TupleEq> values;
  values.reserve(rows_.size());
  const std::vector<size_t> cols{col};
  for (const auto& [key, row] : rows_) {
    values.insert(row.Project(cols));
  }
  return values.size();
}

void Table::AssertProbeFresh(uint64_t generation) const {
  BOOM_CHECK(version_ == generation)
      << "stale Table::Probe result used after mutation of " << def_.name << " (captured gen "
      << generation << ", now " << version_ << ")";
}

void Table::Clear() {
  if (!rows_.empty()) {
    if (log_changes_) {
      for (const auto& [key, row] : rows_) {
        changes_.push_back(Change{row, /*inserted=*/false});
      }
    }
    rows_.clear();
    row_time_.clear();
    ++version_;
    insert_log_.clear();
    for (auto& [cols, cached] : indexes_) {
      cached.index.clear();
      cached.log_pos = 0;
    }
  }
}

void Table::SetChangeLog(bool enabled) {
  log_changes_ = enabled;
  if (!enabled) {
    TrimChangeLog(change_log_end());
  }
}

void Table::TrimChangeLog(uint64_t upto) {
  if (upto <= changes_base_) {
    return;
  }
  const uint64_t drop = std::min<uint64_t>(upto - changes_base_, changes_.size());
  changes_.erase(changes_.begin(), changes_.begin() + static_cast<long>(drop));
  changes_base_ += drop;
}

std::vector<Tuple> Table::ExpireOlderThan(double cutoff_ms) {
  std::vector<Tuple> expired;
  if (def_.ttl_ms <= 0) {
    return expired;
  }
  for (auto it = row_time_.begin(); it != row_time_.end();) {
    if (it->second < cutoff_ms) {
      auto row_it = rows_.find(it->first);
      if (row_it != rows_.end()) {
        expired.push_back(row_it->second);
        EraseRow(row_it);
      }
      it = row_time_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

}  // namespace boom
