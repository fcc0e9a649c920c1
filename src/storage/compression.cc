#include "storage/compression.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "storage/bitpack.h"
#include "util/string_util.h"

namespace avm {

const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kPlain: return "plain";
    case Scheme::kRle: return "rle";
    case Scheme::kDict: return "dict";
    case Scheme::kFor: return "for";
    case Scheme::kDelta: return "delta";
  }
  return "?";
}

namespace {

constexpr uint32_t kDistinctCap = 4096;

/// Same-width unsigned type of a float, its bit pattern's type.
template <typename T>
using FloatBits = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;

template <typename T>
BlockStats ComputeStatsTyped(const T* v, uint32_t n) {
  BlockStats s;
  if (n == 0) return s;
  T mn = v[0], mx = v[0];
  bool sorted = true;
  uint64_t runs = 1;
  std::unordered_set<int64_t> distinct;
  bool track_distinct = true;
  for (uint32_t i = 0; i < n; ++i) {
    mn = std::min(mn, v[i]);
    mx = std::max(mx, v[i]);
    if (i > 0) {
      if (v[i] < v[i - 1]) sorted = false;
      if (v[i] != v[i - 1]) ++runs;
    }
    if (track_distinct) {
      // Floats count distinct bit patterns, like their dictionary keys
      // (and a NaN never reaches a float-to-integer conversion).
      if constexpr (std::is_floating_point_v<T>) {
        distinct.insert(
            static_cast<int64_t>(std::bit_cast<FloatBits<T>>(v[i])));
      } else {
        distinct.insert(static_cast<int64_t>(v[i]));
      }
      if (distinct.size() > kDistinctCap) track_distinct = false;
    }
  }
  if constexpr (std::is_floating_point_v<T>) {
    s.min_f = mn;
    s.max_f = mx;
    // Integer stats left 0 for float blocks.
  } else {
    s.min_i = static_cast<int64_t>(mn);
    s.max_i = static_cast<int64_t>(mx);
  }
  s.distinct = track_distinct ? static_cast<uint32_t>(distinct.size())
                              : kDistinctCap + 1;
  s.avg_run_len = static_cast<double>(n) / static_cast<double>(runs);
  s.sorted = sorted;
  return s;
}

// ---------- integer codecs (operate on int64-widened values) ----------

template <typename T>
void Widen(const T* in, uint32_t n, int64_t* out) {
  for (uint32_t i = 0; i < n; ++i) out[i] = static_cast<int64_t>(in[i]);
}

Status EncodeRleInt(const int64_t* v, uint32_t n, Block* b) {
  std::vector<int64_t> values;
  std::vector<uint32_t> lengths;
  uint32_t i = 0;
  while (i < n) {
    uint32_t j = i + 1;
    while (j < n && v[j] == v[i]) ++j;
    values.push_back(v[i]);
    lengths.push_back(j - i);
    i = j;
  }
  b->run_count = static_cast<uint32_t>(values.size());
  b->data.resize(values.size() * (sizeof(int64_t) + sizeof(uint32_t)));
  std::memcpy(b->data.data(), values.data(), values.size() * sizeof(int64_t));
  std::memcpy(b->data.data() + values.size() * sizeof(int64_t), lengths.data(),
              lengths.size() * sizeof(uint32_t));
  return Status::OK();
}

Status EncodeDictInt(const int64_t* v, uint32_t n, Block* b) {
  std::vector<int64_t> dict;
  std::unordered_map<int64_t, uint32_t> index;
  std::vector<uint64_t> codes(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto [it, inserted] = index.try_emplace(v[i], dict.size());
    if (inserted) dict.push_back(v[i]);
    codes[i] = it->second;
  }
  if (dict.size() > (uint32_t{1} << 20)) {
    return Status::InvalidArgument("dictionary too large");
  }
  b->dict_size = static_cast<uint32_t>(dict.size());
  b->bit_width = bits::BitWidth(dict.empty() ? 0 : dict.size() - 1);
  b->data.resize(dict.size() * sizeof(int64_t));
  std::memcpy(b->data.data(), dict.data(), dict.size() * sizeof(int64_t));
  BitPack(codes.data(), n, b->bit_width, &b->data);
  return Status::OK();
}

Status EncodeForInt(const int64_t* v, uint32_t n, const BlockStats& stats,
                    Block* b) {
  const uint64_t range =
      static_cast<uint64_t>(stats.max_i) - static_cast<uint64_t>(stats.min_i);
  b->for_ref = stats.min_i;
  b->bit_width = bits::BitWidth(range);
  std::vector<uint64_t> deltas(n);
  for (uint32_t i = 0; i < n; ++i) {
    deltas[i] = static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(b->for_ref);
  }
  BitPack(deltas.data(), n, b->bit_width, &b->data);
  return Status::OK();
}

Status EncodeDeltaInt(const int64_t* v, uint32_t n, Block* b) {
  b->delta_first = n > 0 ? v[0] : 0;
  if (n <= 1) {
    b->bit_width = 0;
    return Status::OK();
  }
  std::vector<uint64_t> zz(n - 1);
  uint64_t maxzz = 0;
  for (uint32_t i = 1; i < n; ++i) {
    // Wrapping subtraction: neighbours more than INT64_MAX apart (a sorted
    // block spanning the i64 range) overflow a signed one. The decoder
    // wraps back.
    zz[i - 1] = ZigzagEncode(static_cast<int64_t>(
        static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(v[i - 1])));
    maxzz = std::max(maxzz, zz[i - 1]);
  }
  b->bit_width = bits::BitWidth(maxzz);
  BitPack(zz.data(), n - 1, b->bit_width, &b->data);
  return Status::OK();
}

// ---------- float codecs ----------
//
// Runs and dictionary entries are keyed by bit pattern, not by `==`: -0.0
// and +0.0 stay apart (they compare equal), and equal NaNs share one entry
// (a NaN compares unequal to itself), so a block decodes its input bit for
// bit.

template <typename T>
Status EncodeRleFloat(const T* v, uint32_t n, Block* b) {
  std::vector<T> values;
  std::vector<uint32_t> lengths;
  uint32_t i = 0;
  while (i < n) {
    uint32_t j = i + 1;
    while (j < n && std::bit_cast<FloatBits<T>>(v[j]) ==
                        std::bit_cast<FloatBits<T>>(v[i])) {
      ++j;
    }
    values.push_back(v[i]);
    lengths.push_back(j - i);
    i = j;
  }
  b->run_count = static_cast<uint32_t>(values.size());
  b->data.resize(values.size() * (sizeof(T) + sizeof(uint32_t)));
  std::memcpy(b->data.data(), values.data(), values.size() * sizeof(T));
  std::memcpy(b->data.data() + values.size() * sizeof(T), lengths.data(),
              lengths.size() * sizeof(uint32_t));
  return Status::OK();
}

template <typename T>
Status EncodeDictFloat(const T* v, uint32_t n, Block* b) {
  std::vector<T> dict;
  std::unordered_map<FloatBits<T>, uint32_t> index;
  std::vector<uint64_t> codes(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto [it, inserted] =
        index.try_emplace(std::bit_cast<FloatBits<T>>(v[i]), dict.size());
    if (inserted) dict.push_back(v[i]);
    codes[i] = it->second;
  }
  b->dict_size = static_cast<uint32_t>(dict.size());
  b->bit_width = bits::BitWidth(dict.empty() ? 0 : dict.size() - 1);
  b->data.resize(dict.size() * sizeof(T));
  std::memcpy(b->data.data(), dict.data(), dict.size() * sizeof(T));
  BitPack(codes.data(), n, b->bit_width, &b->data);
  return Status::OK();
}

}  // namespace

BlockStats ComputeStats(TypeId t, const void* values, uint32_t n) {
  return DispatchType(t, [&]<typename T>() -> BlockStats {
    if constexpr (std::is_same_v<T, bool>) {
      return ComputeStatsTyped(static_cast<const int8_t*>(values), n);
    } else {
      return ComputeStatsTyped(static_cast<const T*>(values), n);
    }
  });
}

Scheme ChooseScheme(TypeId t, const BlockStats& stats, uint32_t n) {
  if (n == 0) return Scheme::kPlain;
  if (stats.avg_run_len >= 4.0) return Scheme::kRle;
  const size_t raw_bits = TypeWidth(t) * 8;
  if (IsIntegerType(t)) {
    const uint64_t range = static_cast<uint64_t>(stats.max_i) -
                           static_cast<uint64_t>(stats.min_i);
    const uint32_t for_width = bits::BitWidth(range);
    if (stats.sorted && n > 1) {
      // Sorted data usually has tiny per-step deltas.
      return Scheme::kDelta;
    }
    if (for_width + 2 < raw_bits) return Scheme::kFor;
    if (stats.distinct <= kDistinctCap &&
        bits::BitWidth(stats.distinct) + 2 < raw_bits &&
        stats.distinct < n / 2) {
      return Scheme::kDict;
    }
    return Scheme::kPlain;
  }
  // Floats: only dictionary helps when few distinct values.
  if (stats.distinct <= kDistinctCap && stats.distinct < n / 2) {
    return Scheme::kDict;
  }
  return Scheme::kPlain;
}

Result<Block> EncodeBlock(Scheme scheme, TypeId t, const void* values,
                          uint32_t n) {
  Block b;
  b.scheme = scheme;
  b.type = t;
  b.count = n;
  b.stats = ComputeStats(t, values, n);

  if (scheme == Scheme::kPlain) {
    b.data.resize(static_cast<size_t>(n) * TypeWidth(t));
    // An empty block has a null buffer, which memcpy must not see.
    if (n > 0) std::memcpy(b.data.data(), values, b.data.size());
    return b;
  }

  if (IsFloatType(t)) {
    Status st = DispatchType(t, [&]<typename T>() -> Status {
      if constexpr (std::is_floating_point_v<T>) {
        const T* v = static_cast<const T*>(values);
        switch (scheme) {
          case Scheme::kRle: return EncodeRleFloat(v, n, &b);
          case Scheme::kDict: return EncodeDictFloat(v, n, &b);
          default:
            return Status::InvalidArgument(
                StrFormat("scheme %s unsupported for %s", SchemeName(scheme),
                          TypeName(t)));
        }
      }
      return Status::Internal("unreachable");
    });
    if (!st.ok()) return st;
    return b;
  }

  // Integers (and bool, treated as i8): widen to int64 and encode.
  std::vector<int64_t> wide(n);
  DispatchType(t, [&]<typename T>() {
    if constexpr (!std::is_floating_point_v<T>) {
      if constexpr (std::is_same_v<T, bool>) {
        Widen(static_cast<const int8_t*>(values), n, wide.data());
      } else {
        Widen(static_cast<const T*>(values), n, wide.data());
      }
    }
  });
  Status st;
  switch (scheme) {
    case Scheme::kRle:
      st = EncodeRleInt(wide.data(), n, &b);
      break;
    case Scheme::kDict:
      st = EncodeDictInt(wide.data(), n, &b);
      break;
    case Scheme::kFor:
      st = EncodeForInt(wide.data(), n, b.stats, &b);
      break;
    case Scheme::kDelta:
      st = EncodeDeltaInt(wide.data(), n, &b);
      break;
    default:
      st = Status::Internal("unhandled scheme");
  }
  if (!st.ok()) return st;
  return b;
}

Result<Block> EncodeBlockAuto(TypeId t, const void* values, uint32_t n) {
  BlockStats stats = ComputeStats(t, values, n);
  Scheme s = ChooseScheme(t, stats, n);
  return EncodeBlock(s, t, values, n);
}

namespace {

/// The packed bytes of a FOR, Dict or Delta block: after the dictionary of
/// a Dict block (`value_width` bytes per entry), the whole payload
/// otherwise.
struct Packed {
  const uint8_t* data;
  size_t size;
};

Packed PackedOf(const Block& b, size_t value_width) {
  const size_t skip =
      b.scheme == Scheme::kDict ? b.dict_size * value_width : 0;
  return {b.data.data() + skip, b.data.size() - skip};
}

// Decode [offset, offset+len) of an integer-family block straight into its
// column type `T` (int8_t for bool columns).
template <typename T>
Status DecodeIntRange(const Block& b, uint32_t offset, uint32_t len, T* out) {
  switch (b.scheme) {
    case Scheme::kRle: {
      const auto* values = reinterpret_cast<const int64_t*>(b.data.data());
      const auto* lengths = reinterpret_cast<const uint32_t*>(
          b.data.data() + b.run_count * sizeof(int64_t));
      uint32_t pos = 0, o = 0;
      for (uint32_t r = 0; r < b.run_count && o < len; ++r) {
        uint32_t run_end = pos + lengths[r];
        // Emit the overlap of [pos, run_end) with [offset, offset+len).
        uint32_t lo = std::max(pos, offset);
        uint32_t hi = std::min(run_end, offset + len);
        const T v = static_cast<T>(values[r]);
        for (uint32_t i = lo; i < hi; ++i) out[o++] = v;
        pos = run_end;
      }
      return Status::OK();
    }
    case Scheme::kDict: {
      const auto* dict = reinterpret_cast<const int64_t*>(b.data.data());
      const Packed p = PackedOf(b, sizeof(int64_t));
      BitUnpackEach(p.data, p.size, offset, len, b.bit_width,
                    [&](size_t i, uint64_t code) {
                      out[i] = static_cast<T>(dict[code]);
                    });
      return Status::OK();
    }
    case Scheme::kFor: {
      // Unsigned add, wrapping like the encoder's subtraction: a block
      // spanning the whole i64 range has deltas past INT64_MAX.
      const uint64_t ref = static_cast<uint64_t>(b.for_ref);
      BitUnpackEach(b.data.data(), b.data.size(), offset, len, b.bit_width,
                    [&](size_t i, uint64_t d) {
                      out[i] = static_cast<T>(ref + d);
                    });
      return Status::OK();
    }
    case Scheme::kDelta: {
      // Sequential dependency: reconstruct the prefix up to offset+len.
      if (len == 0) return Status::OK();
      uint64_t cur = static_cast<uint64_t>(b.delta_first);
      if (offset == 0) out[0] = static_cast<T>(cur);
      // Packed delta k takes value k to value k + 1 (wrapping, like the
      // encoder's subtraction).
      const uint32_t deltas = offset + len - 1;
      BitUnpackEach(b.data.data(), b.data.size(), 0, deltas, b.bit_width,
                    [&](size_t k, uint64_t zz) {
                      cur += static_cast<uint64_t>(ZigzagDecode(zz));
                      if (k + 1 >= offset) {
                        out[k + 1 - offset] = static_cast<T>(cur);
                      }
                    });
      return Status::OK();
    }
    default:
      return Status::Internal("unhandled integer scheme");
  }
}

}  // namespace

Status DecodeBlockRange(const Block& b, uint32_t offset, uint32_t len,
                        void* out) {
  if (offset + len > b.count) {
    return Status::OutOfRange(
        StrFormat("decode [%u, %u) of block with %u values", offset,
                  offset + len, b.count));
  }
  if (b.scheme == Scheme::kPlain) {
    const size_t w = TypeWidth(b.type);
    std::memcpy(out, b.data.data() + static_cast<size_t>(offset) * w,
                static_cast<size_t>(len) * w);
    return Status::OK();
  }
  return DispatchType(b.type, [&]<typename T>() -> Status {
    if constexpr (std::is_same_v<T, bool>) {
      return DecodeIntRange(b, offset, len, static_cast<int8_t*>(out));
    } else if constexpr (!std::is_floating_point_v<T>) {
      return DecodeIntRange(b, offset, len, static_cast<T*>(out));
    } else {
      T* o = static_cast<T*>(out);
      if (b.scheme == Scheme::kRle) {
        const T* values = reinterpret_cast<const T*>(b.data.data());
        const auto* lengths = reinterpret_cast<const uint32_t*>(
            b.data.data() + b.run_count * sizeof(T));
        uint32_t pos = 0, emitted = 0;
        for (uint32_t r = 0; r < b.run_count && emitted < len; ++r) {
          uint32_t run_end = pos + lengths[r];
          uint32_t lo = std::max(pos, offset);
          uint32_t hi = std::min(run_end, offset + len);
          for (uint32_t i = lo; i < hi; ++i) o[emitted++] = values[r];
          pos = run_end;
        }
        return Status::OK();
      }
      if (b.scheme == Scheme::kDict) {
        const T* dict = reinterpret_cast<const T*>(b.data.data());
        const Packed p = PackedOf(b, sizeof(T));
        BitUnpackEach(p.data, p.size, offset, len, b.bit_width,
                      [&](size_t i, uint64_t code) { o[i] = dict[code]; });
        return Status::OK();
      }
      return Status::Internal("unhandled float scheme");
    }
  });
}

Status DecodeBlock(const Block& b, void* out) {
  return DecodeBlockRange(b, 0, b.count, out);
}

Status DecodeForDeltasRange32(const Block& b, uint32_t offset, uint32_t len,
                              uint32_t* out) {
  if (b.scheme != Scheme::kFor) {
    return Status::InvalidArgument("DecodeForDeltasRange32 on non-FOR block");
  }
  if (b.bit_width > 32) {
    return Status::InvalidArgument("FOR deltas wider than 32 bits");
  }
  if (offset + len > b.count) return Status::OutOfRange("delta range");
  BitUnpackEach(b.data.data(), b.data.size(), offset, len, b.bit_width,
                [out](size_t i, uint64_t d) {
                  out[i] = static_cast<uint32_t>(d);
                });
  return Status::OK();
}

}  // namespace avm
