#include "storage/relation.h"

#include <cassert>

#include "common/die.h"

namespace crackdb {

Column& Relation::AddColumn(const std::string& column_name) {
  if (num_rows_ != 0) {
    Die("crackdb", "AddColumn after rows were inserted", column_name);
  }
  if (ordinals_.count(column_name) != 0) {
    Die("crackdb", "duplicate column", column_name);
  }
  ordinals_[column_name] = columns_.size();
  names_.push_back(column_name);
  columns_.push_back(std::make_unique<Column>(column_name));
  return *columns_.back();
}

Column& Relation::column(const std::string& column_name) {
  auto it = ordinals_.find(column_name);
  if (it == ordinals_.end()) {
    Die("crackdb", "unknown column", name_ + "." + column_name);
  }
  return *columns_[it->second];
}

const Column& Relation::column(const std::string& column_name) const {
  auto it = ordinals_.find(column_name);
  if (it == ordinals_.end()) {
    Die("crackdb", "unknown column", name_ + "." + column_name);
  }
  return *columns_[it->second];
}

bool Relation::HasColumn(const std::string& column_name) const {
  return ordinals_.count(column_name) != 0;
}

size_t Relation::ColumnOrdinal(const std::string& column_name) const {
  auto it = ordinals_.find(column_name);
  if (it == ordinals_.end()) {
    Die("crackdb", "unknown column", name_ + "." + column_name);
  }
  return it->second;
}

Key Relation::AppendRow(std::span<const Value> values) {
  const Key key = BulkLoadRow(values);
  log_.push_back({UpdateEvent::Kind::kInsert, key});
  return key;
}

Key Relation::BulkLoadRow(std::span<const Value> values) {
  assert(values.size() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) columns_[i]->Append(values[i]);
  const Key key = static_cast<Key>(num_rows_++);
  deleted_.push_back(false);
  return key;
}

void Relation::DeleteRow(Key key) {
  assert(key < num_rows_);
  if (deleted_[key]) return;
  deleted_[key] = true;
  ++num_deleted_;
  log_.push_back({UpdateEvent::Kind::kDelete, key});
}

void Relation::TrimLog(size_t new_begin) {
  assert(new_begin >= log_begin_ && new_begin <= log_.size());
  log_begin_ = new_begin;
}

size_t Relation::Compress(const CompressionConfig& config) {
  if (num_deleted_ != 0) return 0;
  size_t compressed = 0;
  for (auto& col : columns_) {
    if (col->Compress(config)) ++compressed;
  }
  return compressed;
}

size_t Relation::CompressAs(CodecKind kind) {
  if (num_deleted_ != 0) return 0;
  size_t compressed = 0;
  for (auto& col : columns_) {
    if (col->CompressAs(kind)) ++compressed;
  }
  return compressed;
}

void Relation::Decompress() const {
  for (const auto& col : columns_) col->Decompress();
}

bool Relation::compressed() const {
  for (const auto& col : columns_) {
    if (col->compressed()) return true;
  }
  return false;
}

size_t Relation::resident_column_bytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) bytes += col->resident_bytes();
  return bytes;
}

std::string Relation::CodecSummary() const {
  std::string out;
  for (const auto& col : columns_) {
    if (!col->compressed()) continue;
    const char* name = CodecName(col->codec());
    if (out.find(name) != std::string::npos) continue;
    if (!out.empty()) out += "+";
    out += name;
  }
  return out.empty() ? "raw" : out;
}

}  // namespace crackdb
