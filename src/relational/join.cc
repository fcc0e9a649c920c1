#include "relational/join.h"

#include <algorithm>
#include <cstring>

#include "util/bits.h"
#include "util/hash.h"
#include "util/timer.h"

namespace avm::relational {

HashSetI64::HashSetI64(size_t expected) {
  size_t cap = bits::NextPow2(std::max<size_t>(16, expected * 2));
  keys_.assign(cap, 0);
  used_.assign(cap, 0);
  mask_ = cap - 1;
}

void HashSetI64::Grow() {
  std::vector<int64_t> old_keys = std::move(keys_);
  std::vector<uint8_t> old_used = std::move(used_);
  const size_t cap = old_keys.size() * 2;
  keys_.assign(cap, 0);
  used_.assign(cap, 0);
  mask_ = cap - 1;
  entries_ = 0;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_used[i]) Insert(old_keys[i]);
  }
}

void HashSetI64::Insert(int64_t key) {
  if (entries_ * 2 >= keys_.size()) Grow();
  size_t idx = HashInt64(static_cast<uint64_t>(key)) & mask_;
  while (used_[idx]) {
    if (keys_[idx] == key) return;
    idx = (idx + 1) & mask_;
  }
  used_[idx] = 1;
  keys_[idx] = key;
  ++entries_;
}

std::vector<int64_t> HashSetI64::Keys() const {
  std::vector<int64_t> keys;
  keys.reserve(entries_);
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (used_[i]) keys.push_back(keys_[i]);
  }
  return keys;
}

bool HashSetI64::Contains(int64_t key) const {
  size_t idx = HashInt64(static_cast<uint64_t>(key)) & mask_;
  while (used_[idx]) {
    if (keys_[idx] == key) return true;
    idx = (idx + 1) & mask_;
  }
  return false;
}

uint32_t HashSetI64::ProbeSel(const int64_t* keys, const sel_t* in_sel,
                              uint32_t n, sel_t* out_sel) const {
  uint32_t count = 0;
  if (in_sel != nullptr) {
    for (uint32_t j = 0; j < n; ++j) {
      const uint32_t i = in_sel[j];
      out_sel[count] = i;
      count += Contains(keys[i]) ? 1u : 0u;
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      out_sel[count] = i;
      count += Contains(keys[i]) ? 1u : 0u;
    }
  }
  return count;
}

HashJoinI64::HashJoinI64(size_t expected) {
  size_t cap = bits::NextPow2(std::max<size_t>(16, expected * 2));
  slots_.assign(cap, Slot{0, kNil, kNil, 0});
  mask_ = cap - 1;
}

void HashJoinI64::Grow() {
  // Re-bucket the slots only: the entry chains in rows_ are stable.
  std::vector<Slot> old = std::move(slots_);
  const size_t cap = old.size() * 2;
  slots_.assign(cap, Slot{0, kNil, kNil, 0});
  mask_ = cap - 1;
  for (const auto& s : old) {
    if (!s.used) continue;
    size_t idx = HashInt64(static_cast<uint64_t>(s.key)) & mask_;
    while (slots_[idx].used) idx = (idx + 1) & mask_;
    slots_[idx] = s;
  }
}

void HashJoinI64::Insert(int64_t key, uint32_t row) {
  if (distinct_ * 2 >= slots_.size()) Grow();
  const uint32_t e = static_cast<uint32_t>(rows_.size());
  rows_.push_back({row, kNil});
  size_t idx = HashInt64(static_cast<uint64_t>(key)) & mask_;
  while (slots_[idx].used) {
    if (slots_[idx].key == key) {  // duplicate: append to the chain
      rows_[slots_[idx].tail].next = e;
      slots_[idx].tail = e;
      return;
    }
    idx = (idx + 1) & mask_;
  }
  slots_[idx] = {key, e, e, 1};
  ++distinct_;
}

uint32_t HashJoinI64::Probe(const int64_t* keys, const sel_t* in_sel,
                            uint32_t n, sel_t* out_positions,
                            uint32_t* out_rows) const {
  uint32_t count = 0;
  auto probe_one = [&](uint32_t i) {
    size_t idx = HashInt64(static_cast<uint64_t>(keys[i])) & mask_;
    while (slots_[idx].used) {
      if (slots_[idx].key == keys[i]) {
        for (uint32_t e = slots_[idx].head; e != kNil; e = rows_[e].next) {
          out_positions[count] = i;
          out_rows[count] = rows_[e].row;
          ++count;
        }
        return;
      }
      idx = (idx + 1) & mask_;
    }
  };
  if (in_sel != nullptr) {
    for (uint32_t j = 0; j < n; ++j) probe_one(in_sel[j]);
  } else {
    for (uint32_t i = 0; i < n; ++i) probe_one(i);
  }
  return count;
}

AdaptiveSemijoinChain::AdaptiveSemijoinChain(
    std::vector<const HashSetI64*> filters, OrderPolicy policy)
    : filters_(std::move(filters)), policy_(policy),
      reorderer_(filters_.size()) {}

uint32_t AdaptiveSemijoinChain::FilterChunk(
    const std::vector<const int64_t*>& keys, uint32_t n, sel_t* out_sel,
    sel_t* scratch) {
  const std::vector<size_t>& order = reorderer_.Order();
  const sel_t* cur_sel = nullptr;
  uint32_t cur_n = n;
  sel_t* bufs[2] = {out_sel, scratch};
  int flip = 0;
  for (size_t f : order) {
    const uint64_t t0 = ReadCycleCounter();
    const uint32_t out_n =
        filters_[f]->ProbeSel(keys[f], cur_sel, cur_n, bufs[flip]);
    const uint64_t dt = ReadCycleCounter() - t0;
    if (policy_ == OrderPolicy::kAdaptive) {
      reorderer_.Observe(f, cur_n, out_n, dt);
    }
    cur_sel = bufs[flip];
    cur_n = out_n;
    flip ^= 1;
    if (cur_n == 0) break;
  }
  // Ensure survivors end up in out_sel.
  if (cur_sel != out_sel && cur_n > 0) {
    std::memcpy(out_sel, cur_sel, sizeof(sel_t) * cur_n);
  }
  return cur_n;
}

Result<engine::Query> MakeSemijoinQuery(
    const Table& probe, const std::vector<std::string>& key_columns,
    const std::vector<const HashSetI64*>& filters) {
  if (key_columns.size() != filters.size() || filters.empty()) {
    return Status::InvalidArgument(
        "one key column per semijoin filter required");
  }

  // The gather-based membership lookup needs a dense domain covering every
  // key the matching column probes it with: find each column's own key
  // range with one scan (sizing from a global max would inflate every
  // array to the widest column's domain).
  constexpr int64_t kMaxDomain = int64_t{1} << 24;  // 16M slots = 128 MiB
  std::vector<size_t> domains(key_columns.size());
  for (size_t f = 0; f < key_columns.size(); ++f) {
    const std::string& name = key_columns[f];
    AVM_ASSIGN_OR_RETURN(const Column* col, probe.ColumnByName(name));
    if (col->type() != TypeId::kI64) {
      return Status::TypeError("semijoin key column must be i64: " + name);
    }
    int64_t max_key = 0;
    constexpr uint32_t kChunk = 4096;
    std::vector<int64_t> buf(kChunk);
    for (uint64_t pos = 0; pos < col->num_rows(); pos += kChunk) {
      const uint32_t n = static_cast<uint32_t>(
          std::min<uint64_t>(kChunk, col->num_rows() - pos));
      AVM_RETURN_NOT_OK(col->Read(pos, n, buf.data()));
      for (uint32_t i = 0; i < n; ++i) {
        if (buf[i] < 0) {
          return Status::InvalidArgument(
              "engine semijoin requires non-negative keys (column " + name +
              ")");
        }
        max_key = std::max(max_key, buf[i]);
      }
    }
    if (max_key >= kMaxDomain) {  // >= : max_key + 1 must not overflow
      return Status::ResourceExhausted(
          "semijoin key domain too large for a dense membership array "
          "(column " + name + ")");
    }
    domains[f] = static_cast<size_t>(max_key + 1);
  }

  engine::QueryBuilder qb(probe);
  for (size_t f = 0; f < filters.size(); ++f) {
    std::vector<int64_t> membership(domains[f], 0);
    for (int64_t k : filters[f]->Keys()) {
      if (k >= 0 && static_cast<size_t>(k) < domains[f]) membership[k] = 1;
    }
    qb.SemiJoin(key_columns[f], std::move(membership));
  }
  qb.Count("survivors");
  return qb.Build();
}

Result<engine::Query> MakeJoinQuery(const Table& probe,
                                    const std::string& probe_key,
                                    const std::string& probe_value,
                                    const Table& build,
                                    const std::string& build_key,
                                    const std::string& build_value,
                                    size_t num_groups) {
  engine::QueryBuilder qb(probe);
  qb.Join(build, probe_key, build_key, {build_value});
  if (num_groups > 1) {
    using dsl::ConstI;
    using dsl::Var;
    const auto g = static_cast<int64_t>(num_groups);
    // ((v % G) + G) % G keeps any integer value column in-range.
    dsl::ExprPtr grp = dsl::Call(
        dsl::ScalarOp::kMod,
        {dsl::Call(dsl::ScalarOp::kMod, {Var(probe_value), ConstI(g)}) +
             ConstI(g),
         ConstI(g)});
    qb.Aggregate(std::move(grp), num_groups);
  }
  qb.Sum("revenue", dsl::Var(probe_value) * dsl::Var(build_value))
      .Count("matches");
  return qb.Build();
}

}  // namespace avm::relational
