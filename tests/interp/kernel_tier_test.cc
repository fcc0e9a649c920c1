// SIMD kernel tier tests: runtime ISA detection, tier resolution, and the
// exhaustive scalar-vs-SIMD parity sweep — every registered (op, type,
// operand-mode, selectivity, variant) combination, random data, awkward
// lengths (0, 1, lane-1, lane+1, ...) and element-misaligned bases, with
// bit-identical outputs and qualifying counts against the scalar tier.
//
// Run under every supported AVM_KERNEL_TIER value in CI; the parameterized
// parity suite additionally compares all tiers inside one process via
// KernelRegistry::ForTier.
#include "interp/kernel_tier.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "dsl/builder.h"
#include "dsl/typecheck.h"
#include "interp/interpreter.h"
#include "interp/kernels.h"
#include "interp/kernels_simd.h"
#include "util/cpu_info.h"
#include "util/rng.h"

namespace avm::interp {
namespace {

using dsl::ScalarOp;

// ---------------------------------------------------------------------------
// Detection / resolution
// ---------------------------------------------------------------------------

TEST(KernelTierTest, TierNamesRoundTrip) {
  EXPECT_STREQ(TierName(KernelTier::kScalar), "scalar");
  EXPECT_STREQ(TierName(KernelTier::kSse2), "sse2");
  EXPECT_STREQ(TierName(KernelTier::kAvx2), "avx2");
  EXPECT_EQ(ParseKernelTier("scalar"), KernelTier::kScalar);
  EXPECT_EQ(ParseKernelTier("sse2"), KernelTier::kSse2);
  EXPECT_EQ(ParseKernelTier("avx2"), KernelTier::kAvx2);
  EXPECT_EQ(ParseKernelTier("bogus"), KernelTier::kAuto);
  EXPECT_EQ(ParseKernelTier(nullptr), KernelTier::kAuto);
}

TEST(KernelTierTest, CpuProbeIsConsistent) {
  const CpuInfo& cpu = CpuInfo::Host();
#if defined(__x86_64__)
  // SSE2 is architecturally guaranteed on x86-64.
  EXPECT_TRUE(cpu.has_sse2);
  EXPECT_FALSE(cpu.has_neon);
#endif
  if (cpu.has_avx512f) EXPECT_GE(cpu.simd_width_bytes, 64u);
  if (cpu.has_avx2) EXPECT_GE(cpu.simd_width_bytes, 32u);
  if (cpu.has_sse2 || cpu.has_neon) EXPECT_GE(cpu.simd_width_bytes, 16u);
}

TEST(KernelTierTest, BestTierMatchesProbeAndBuild) {
  const CpuInfo& cpu = CpuInfo::Host();
  const KernelTier best = BestSupportedTier();
  if (cpu.has_avx2 && Avx2Kernels().available) {
    EXPECT_EQ(best, KernelTier::kAvx2);
  } else if ((cpu.has_sse2 || cpu.has_neon) && Sse2Kernels().available) {
    EXPECT_EQ(best, KernelTier::kSse2);
  } else {
    EXPECT_EQ(best, KernelTier::kScalar);
  }
}

TEST(KernelTierTest, SupportedTiersAscendFromScalar) {
  const std::vector<KernelTier> tiers = SupportedTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), KernelTier::kScalar);
  EXPECT_EQ(tiers.back(), BestSupportedTier());
  for (size_t i = 0; i < tiers.size(); ++i) {
    EXPECT_EQ(tiers[i], static_cast<KernelTier>(i));
  }
}

TEST(KernelTierTest, ResolutionClampsToBest) {
  const KernelTier best = BestSupportedTier();
  EXPECT_EQ(ResolveKernelTier(KernelTier::kAuto), ActiveKernelTier());
  EXPECT_EQ(ResolveKernelTier(KernelTier::kScalar), KernelTier::kScalar);
  EXPECT_LE(static_cast<uint8_t>(ResolveKernelTier(KernelTier::kAvx2)),
            static_cast<uint8_t>(best));
  EXPECT_LE(static_cast<uint8_t>(ActiveKernelTier()),
            static_cast<uint8_t>(best));
}

TEST(KernelTierTest, RegistriesCarryTheirTier) {
  EXPECT_EQ(KernelRegistry::Get().tier(), ActiveKernelTier());
  EXPECT_EQ(&KernelRegistry::Get(), &KernelRegistry::ForTier(KernelTier::kAuto));
  for (KernelTier t : SupportedTiers()) {
    const KernelRegistry& reg = KernelRegistry::ForTier(t);
    EXPECT_EQ(reg.tier(), t);
    // The slot census is tier-independent: overlay replaces implementations,
    // it never adds or removes slots.
    EXPECT_EQ(reg.NumRegistered(),
              KernelRegistry::ForTier(KernelTier::kScalar).NumRegistered());
  }
}

TEST(KernelTierTest, SimdTiersActuallyOverlayFilterKernels) {
  for (KernelTier t : SupportedTiers()) {
    if (t == KernelTier::kScalar) continue;
    const KernelRegistry& simd = KernelRegistry::ForTier(t);
    const KernelRegistry& scalar = KernelRegistry::ForTier(KernelTier::kScalar);
    EXPECT_NE(simd.Filter(ScalarOp::kLt, TypeId::kI32, true, false),
              scalar.Filter(ScalarOp::kLt, TypeId::kI32, true, false))
        << "tier " << TierName(t) << " left the i32 filter slot scalar";
    // Selective slots stay scalar under every tier.
    EXPECT_EQ(simd.Filter(ScalarOp::kLt, TypeId::kI32, true, true),
              scalar.Filter(ScalarOp::kLt, TypeId::kI32, true, true));
  }
}

// ---------------------------------------------------------------------------
// Exhaustive scalar-vs-SIMD parity
// ---------------------------------------------------------------------------

// Lengths bracketing every lane boundary of both SIMD widths (16B and 32B
// vectors over 4/8-byte elements → lane counts 2, 4, 8), plus larger sizes
// exercising full main loops with tails.
const std::vector<uint32_t>& AwkwardLengths() {
  static const std::vector<uint32_t> kLengths = {
      0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 333};
  return kLengths;
}

// Element offsets applied to every buffer base so SIMD loads/stores hit
// unaligned addresses.
constexpr uint32_t kOffsets[] = {0, 1, 3};

template <typename T>
T RandomValue(Rng& rng) {
  if constexpr (std::is_integral_v<T>) {
    // Full-range values exercise wrap-around arithmetic.
    return static_cast<T>(rng.NextInRange(std::numeric_limits<int32_t>::min(),
                                          std::numeric_limits<int32_t>::max()));
  } else {
    // Quarter-integers: exactly representable, so every arithmetic kernel
    // (and every fold order) is exact → bit-identical across tiers.
    return static_cast<T>(rng.NextInRange(-4000, 4000)) / T(4);
  }
}

class TierParityTest : public ::testing::TestWithParam<KernelTier> {
 protected:
  const KernelRegistry& Tier() { return KernelRegistry::ForTier(GetParam()); }
  const KernelRegistry& Scalar() {
    return KernelRegistry::ForTier(KernelTier::kScalar);
  }
};

template <typename T>
void CheckBinaryParity(const KernelRegistry& tier,
                       const KernelRegistry& scalar) {
  const TypeId t = TypeIdOf<T>::value;
  Rng rng(0xB1A5 + static_cast<uint64_t>(t));
  for (size_t op = 0; op < kNumKernelOps; ++op) {
    const auto sop = static_cast<ScalarOp>(op);
    for (size_t m = 0; m < 3; ++m) {
      const auto mode = static_cast<OperandMode>(m);
      PrimKernelFn f_t = tier.Binary(sop, t, mode, false);
      PrimKernelFn f_s = scalar.Binary(sop, t, mode, false);
      ASSERT_EQ(f_t == nullptr, f_s == nullptr)
          << "op " << op << " registered in one tier only";
      if (f_t == nullptr || f_t == f_s) continue;  // no SIMD overlay
      for (uint32_t n : AwkwardLengths()) {
        for (uint32_t off : kOffsets) {
          std::vector<T> a(n + off), b(n + off);
          for (auto& x : a) x = RandomValue<T>(rng);
          for (auto& x : b) x = RandomValue<T>(rng);
          if (sop == ScalarOp::kDiv) {
            for (auto& x : b) {
              if (x == T(0)) x = T(1);
            }
          }
          // Comparisons write uint8; 8 bytes/elem covers every output type.
          // +8 spare bytes so the n==0 buffers still have non-null data().
          std::vector<uint8_t> o1((n + off) * 8 + 8, 0), o2((n + off) * 8 + 8, 0);
          f_t(a.data() + off, b.data() + off, o1.data() + off * 8, nullptr, n);
          f_s(a.data() + off, b.data() + off, o2.data() + off * 8, nullptr, n);
          ASSERT_EQ(std::memcmp(o1.data(), o2.data(), o1.size()), 0)
              << "binary op " << op << " type " << static_cast<int>(t)
              << " mode " << m << " n=" << n << " off=" << off;
        }
      }
    }
  }
}

TEST_P(TierParityTest, BinaryKernelsBitIdentical) {
  CheckBinaryParity<int32_t>(Tier(), Scalar());
  CheckBinaryParity<int64_t>(Tier(), Scalar());
  CheckBinaryParity<float>(Tier(), Scalar());
  CheckBinaryParity<double>(Tier(), Scalar());
}

template <typename T>
void CheckUnaryParity(const KernelRegistry& tier,
                      const KernelRegistry& scalar) {
  const TypeId t = TypeIdOf<T>::value;
  Rng rng(0x0A5 + static_cast<uint64_t>(t));
  for (size_t op = 0; op < kNumKernelOps; ++op) {
    const auto sop = static_cast<ScalarOp>(op);
    PrimKernelFn f_t = tier.Unary(sop, t, false);
    PrimKernelFn f_s = scalar.Unary(sop, t, false);
    ASSERT_EQ(f_t == nullptr, f_s == nullptr);
    if (f_t == nullptr || f_t == f_s) continue;
    for (uint32_t n : AwkwardLengths()) {
      for (uint32_t off : kOffsets) {
        std::vector<T> a(n + off);
        for (auto& x : a) x = RandomValue<T>(rng);
        if (n > 0) a[off] = T(0);  // cover -0.0 / abs(0) edge
        std::vector<uint8_t> o1((n + off) * 8 + 8, 0), o2((n + off) * 8 + 8, 0);
        f_t(a.data() + off, nullptr, o1.data() + off * 8, nullptr, n);
        f_s(a.data() + off, nullptr, o2.data() + off * 8, nullptr, n);
        ASSERT_EQ(std::memcmp(o1.data(), o2.data(), o1.size()), 0)
            << "unary op " << op << " type " << static_cast<int>(t)
            << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST_P(TierParityTest, UnaryKernelsBitIdentical) {
  CheckUnaryParity<int32_t>(Tier(), Scalar());
  CheckUnaryParity<int64_t>(Tier(), Scalar());
  CheckUnaryParity<float>(Tier(), Scalar());
  CheckUnaryParity<double>(Tier(), Scalar());
}

template <typename T>
void CheckFilterParity(const KernelRegistry& tier,
                       const KernelRegistry& scalar) {
  const TypeId t = TypeIdOf<T>::value;
  Rng rng(0xF1 + static_cast<uint64_t>(t));
  const ScalarOp cmps[] = {ScalarOp::kEq, ScalarOp::kNe, ScalarOp::kLt,
                           ScalarOp::kLe, ScalarOp::kGt, ScalarOp::kGe};
  // Thresholds into uniform [0, 1000) data: ~0%, 2%, 50%, 98%, 100%
  // qualifying for the order comparisons.
  const int64_t thresholds[] = {0, 20, 500, 980, 1000};
  for (ScalarOp cmp : cmps) {
    for (bool rhs_scalar : {true, false}) {
      for (FilterVariant variant :
           {FilterVariant::kBranchless, FilterVariant::kBranching}) {
        FilterKernelFn f_t = tier.Filter(cmp, t, rhs_scalar, false, variant);
        FilterKernelFn f_s = scalar.Filter(cmp, t, rhs_scalar, false, variant);
        ASSERT_NE(f_t, nullptr);
        ASSERT_NE(f_s, nullptr);
        if (f_t == f_s) continue;
        for (uint32_t n : AwkwardLengths()) {
          for (int64_t thr : thresholds) {
            for (uint32_t off : kOffsets) {
              std::vector<T> a(n + off), b(n + off + 1);
              for (auto& x : a) {
                x = static_cast<T>(rng.NextInRange(0, 999));
              }
              for (auto& x : b) x = static_cast<T>(thr);
              std::vector<sel_t> s1(n + 1, 0xDEAD), s2(n + 1, 0xDEAD);
              const uint32_t c1 = f_t(a.data() + off, b.data() + off, nullptr,
                                      n, s1.data());
              const uint32_t c2 = f_s(a.data() + off, b.data() + off, nullptr,
                                      n, s2.data());
              ASSERT_EQ(c1, c2)
                  << "filter cmp " << static_cast<int>(cmp) << " type "
                  << static_cast<int>(t) << " rhs_scalar=" << rhs_scalar
                  << " variant=" << static_cast<int>(variant) << " n=" << n
                  << " thr=" << thr << " off=" << off;
              ASSERT_EQ(std::memcmp(s1.data(), s2.data(), c1 * sizeof(sel_t)),
                        0)
                  << "selection vectors differ, cmp " << static_cast<int>(cmp)
                  << " n=" << n << " thr=" << thr;
            }
          }
        }
      }
    }
  }
}

TEST_P(TierParityTest, FilterKernelsBitIdentical) {
  CheckFilterParity<int32_t>(Tier(), Scalar());
  CheckFilterParity<int64_t>(Tier(), Scalar());
  CheckFilterParity<float>(Tier(), Scalar());
  CheckFilterParity<double>(Tier(), Scalar());
}

TEST_P(TierParityTest, BoolToSelBitIdentical) {
  FilterKernelFn f_t = Tier().BoolToSel(false);
  FilterKernelFn f_s = Scalar().BoolToSel(false);
  if (f_t == f_s) return;
  Rng rng(0xB001);
  for (uint32_t n : AwkwardLengths()) {
    for (uint32_t density : {0u, 5u, 50u, 95u, 100u}) {
      std::vector<uint8_t> bools(n + 1);
      for (auto& x : bools) {
        x = rng.NextInRange(0, 99) < static_cast<int64_t>(density) ? 1 : 0;
      }
      std::vector<sel_t> s1(n + 1, 0xDEAD), s2(n + 1, 0xDEAD);
      const uint32_t c1 = f_t(bools.data(), nullptr, nullptr, n, s1.data());
      const uint32_t c2 = f_s(bools.data(), nullptr, nullptr, n, s2.data());
      ASSERT_EQ(c1, c2) << "bool→sel n=" << n << " density=" << density;
      ASSERT_EQ(std::memcmp(s1.data(), s2.data(), c1 * sizeof(sel_t)), 0);
    }
  }
}

template <typename T>
void CheckFoldParity(const KernelRegistry& tier, const KernelRegistry& scalar) {
  const TypeId t = TypeIdOf<T>::value;
  Rng rng(0xF01D + static_cast<uint64_t>(t));
  const ScalarOp ops[] = {ScalarOp::kAdd, ScalarOp::kMin, ScalarOp::kMax,
                          ScalarOp::kMul};
  for (ScalarOp op : ops) {
    FoldKernelFn f_t = tier.Fold(op, t);
    FoldKernelFn f_s = scalar.Fold(op, t);
    ASSERT_EQ(f_t == nullptr, f_s == nullptr);
    if (f_t == nullptr || f_t == f_s) continue;
    for (uint32_t n : AwkwardLengths()) {
      for (uint32_t off : kOffsets) {
        // Small integer-valued data: integer folds wrap associatively and
        // float sums stay exact, so any reduction order is bit-identical.
        std::vector<T> v(n + off);
        for (auto& x : v) x = static_cast<T>(rng.NextInRange(-100, 100));
        T acc1 = T(0), acc2 = T(0);
        f_t(v.data() + off, nullptr, n, &acc1);
        f_s(v.data() + off, nullptr, n, &acc2);
        ASSERT_EQ(std::memcmp(&acc1, &acc2, sizeof(T)), 0)
            << "fold op " << static_cast<int>(op) << " type "
            << static_cast<int>(t) << " n=" << n << " off=" << off;
        // Selective folds must take the scalar sequential path exactly.
        if (n >= 2) {
          std::vector<sel_t> sel;
          for (uint32_t i = 0; i < n; i += 2) sel.push_back(i);
          acc1 = acc2 = T(1);
          f_t(v.data() + off, sel.data(), static_cast<uint32_t>(sel.size()),
              &acc1);
          f_s(v.data() + off, sel.data(), static_cast<uint32_t>(sel.size()),
              &acc2);
          ASSERT_EQ(std::memcmp(&acc1, &acc2, sizeof(T)), 0)
              << "selective fold op " << static_cast<int>(op) << " n=" << n;
        }
      }
    }
  }
}

TEST_P(TierParityTest, FoldKernelsBitIdentical) {
  CheckFoldParity<int32_t>(Tier(), Scalar());
  CheckFoldParity<int64_t>(Tier(), Scalar());
  CheckFoldParity<float>(Tier(), Scalar());
  CheckFoldParity<double>(Tier(), Scalar());
}

template <typename T>
void CheckGatherCondenseParity(const KernelRegistry& tier,
                               const KernelRegistry& scalar) {
  const TypeId t = TypeIdOf<T>::value;
  Rng rng(0x6A + static_cast<uint64_t>(t));
  const uint32_t base_n = 257;
  std::vector<T> base(base_n);
  for (auto& x : base) x = RandomValue<T>(rng);

  PrimKernelFn g_t = tier.GatherI64Idx(t, false);
  PrimKernelFn g_s = scalar.GatherI64Idx(t, false);
  if (g_t != g_s) {
    for (uint32_t n : AwkwardLengths()) {
      std::vector<int64_t> idx(n);
      for (auto& i : idx) i = rng.NextInRange(0, base_n - 1);
      std::vector<T> o1(n + 1, T(42)), o2(n + 1, T(42));
      g_t(base.data(), idx.data(), o1.data(), nullptr, n);
      g_s(base.data(), idx.data(), o2.data(), nullptr, n);
      ASSERT_EQ(std::memcmp(o1.data(), o2.data(), o1.size() * sizeof(T)), 0)
          << "gather type " << static_cast<int>(t) << " n=" << n;
    }
  }

  PrimKernelFn c_t = tier.Condense(t);
  PrimKernelFn c_s = scalar.Condense(t);
  if (c_t != c_s) {
    for (uint32_t n : AwkwardLengths()) {
      std::vector<sel_t> sel(n);
      for (auto& i : sel) {
        i = static_cast<sel_t>(rng.NextInRange(0, base_n - 1));
      }
      std::vector<T> o1(n + 1, T(42)), o2(n + 1, T(42));
      c_t(base.data(), nullptr, o1.data(), sel.data(), n);
      c_s(base.data(), nullptr, o2.data(), sel.data(), n);
      ASSERT_EQ(std::memcmp(o1.data(), o2.data(), o1.size() * sizeof(T)), 0)
          << "condense type " << static_cast<int>(t) << " n=" << n;
    }
  }
}

TEST_P(TierParityTest, GatherCondenseBitIdentical) {
  CheckGatherCondenseParity<int32_t>(Tier(), Scalar());
  CheckGatherCondenseParity<int64_t>(Tier(), Scalar());
  CheckGatherCondenseParity<float>(Tier(), Scalar());
  CheckGatherCondenseParity<double>(Tier(), Scalar());
}

INSTANTIATE_TEST_SUITE_P(SupportedTiers, TierParityTest,
                         ::testing::ValuesIn(SupportedTiers()),
                         [](const ::testing::TestParamInfo<KernelTier>& info) {
                           return TierName(info.param);
                         });

// ---------------------------------------------------------------------------
// Micro-adaptive scalar-vs-SIMD selection
// ---------------------------------------------------------------------------

dsl::Program FilterProgram(int64_t threshold) {
  dsl::Program p = dsl::MakeFilterPipeline(
      TypeId::kI64,
      dsl::Lambda({"x"}, dsl::Call(ScalarOp::kLt,
                                   {dsl::Var("x"), dsl::ConstI(threshold)})));
  Status st = dsl::TypeCheck(&p);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return p;
}

uint32_t FilterExprId(const dsl::Program& p) {
  // The filter node is the only kFilter skeleton in the pipeline.
  uint32_t id = 0;
  dsl::VisitExprs(p, [&](const dsl::ExprPtr& e) {
    if (e->kind == dsl::ExprKind::kSkeleton &&
        e->skeleton == dsl::SkeletonKind::kFilter) {
      id = e->id;
    }
  });
  return id;
}

int64_t RunFilterQuery(KernelTier tier, int64_t threshold,
                       std::vector<int64_t>* out_rows,
                       KernelTier* preferred_tier = nullptr,
                       FilterFlavor* preferred_flavor = nullptr) {
  const int64_t kN = 1 << 16;
  dsl::Program p = FilterProgram(threshold);
  std::vector<int64_t> data(kN);
  Rng rng(7);
  for (auto& x : data) x = rng.NextInRange(0, 999);
  out_rows->assign(kN, -1);
  InterpreterOptions opts;
  opts.kernel_tier = tier;
  opts.filter_flavor = FilterFlavor::kAdaptive;
  Interpreter in(&p, opts);
  EXPECT_TRUE(
      in.BindData("src", DataBinding::Raw(TypeId::kI64, data.data(), kN)).ok());
  EXPECT_TRUE(in.BindData("out", DataBinding::Raw(TypeId::kI64,
                                                  out_rows->data(), kN, true))
                  .ok());
  EXPECT_TRUE(in.Run().ok());
  const uint32_t fid = FilterExprId(p);
  if (preferred_tier != nullptr) *preferred_tier = in.PreferredFilterTier(fid);
  if (preferred_flavor != nullptr) {
    *preferred_flavor = in.PreferredFilterFlavor(fid);
  }
  auto k = in.GetScalar("k");
  EXPECT_TRUE(k.ok());
  return k.value().AsI64();
}

TEST(AdaptiveTierTest, ScalarAndSimdTiersProduceIdenticalResults) {
  for (KernelTier tier : SupportedTiers()) {
    std::vector<int64_t> rows_scalar, rows_tier;
    const int64_t k_scalar =
        RunFilterQuery(KernelTier::kScalar, 300, &rows_scalar);
    const int64_t k_tier = RunFilterQuery(tier, 300, &rows_tier);
    EXPECT_EQ(k_scalar, k_tier) << "tier " << TierName(tier);
    EXPECT_EQ(rows_scalar, rows_tier) << "tier " << TierName(tier);
  }
}

TEST(AdaptiveTierTest, ChooserExploresScalarArmsOnSimdTiers) {
  const KernelTier best = BestSupportedTier();
  if (best == KernelTier::kScalar) {
    GTEST_SKIP() << "no SIMD tier on this host/build";
  }
  // Mid selectivity: many chunks, every arm (incl. the scalar fallbacks)
  // gets warmed up; the chooser must settle on a *valid* arm and report a
  // coherent (flavor, tier) pair — which arm wins is host-dependent.
  std::vector<int64_t> rows;
  KernelTier preferred = KernelTier::kAuto;
  FilterFlavor flavor = FilterFlavor::kAdaptive;
  RunFilterQuery(best, 500, &rows, &preferred, &flavor);
  EXPECT_TRUE(preferred == best || preferred == KernelTier::kScalar)
      << "preferred tier " << TierName(preferred);
  EXPECT_LE(static_cast<int>(flavor),
            static_cast<int>(FilterFlavor::kFullCompute));
}

TEST(AdaptiveTierTest, ScalarTierInterpreterKeepsThreeArms) {
  // On a scalar-tier interpreter the scalar fallback arms would duplicate
  // arms 0/1; the chooser must stay at the base 3 and never report a
  // preferred tier other than scalar.
  std::vector<int64_t> rows;
  KernelTier preferred = KernelTier::kAuto;
  RunFilterQuery(KernelTier::kScalar, 20, &rows, &preferred);
  EXPECT_EQ(preferred, KernelTier::kScalar);
}

}  // namespace
}  // namespace avm::interp
