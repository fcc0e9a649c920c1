// Schema and table: named, typed, block-compressed columns.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "storage/column.h"
#include "util/status.h"

namespace avm {

struct Field {
  std::string name;
  TypeId type;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }

  /// Index of a field by name, -1 if absent.
  int FieldIndex(const std::string& name) const {
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (fields_[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

 private:
  std::vector<Field> fields_;
};

/// Column-oriented table; all columns have the same row count.
class Table {
 public:
  explicit Table(Schema schema, uint32_t block_size = kDefaultBlockSize)
      : schema_(std::move(schema)) {
    columns_.reserve(schema_.num_fields());
    for (size_t i = 0; i < schema_.num_fields(); ++i) {
      columns_.push_back(
          std::make_unique<Column>(schema_.field(i).type, block_size));
    }
  }

  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0]->num_rows();
  }
  size_t num_columns() const { return columns_.size(); }

  Column& column(size_t i) { return *columns_[i]; }
  const Column& column(size_t i) const { return *columns_[i]; }

  Result<const Column*> ColumnByName(const std::string& name) const {
    int idx = schema_.FieldIndex(name);
    if (idx < 0) return Status::NotFound("no column named " + name);
    return const_cast<const Column*>(columns_[idx].get());
  }

  size_t EncodedBytes() const {
    size_t total = 0;
    for (const auto& c : columns_) total += c->EncodedBytes();
    return total;
  }

 private:
  Schema schema_;
  std::vector<std::unique_ptr<Column>> columns_;
};

}  // namespace avm
