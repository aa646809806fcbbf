#include "gpu/sharing.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"

namespace sgprs::gpu {
namespace {

SharingParams no_interference() {
  SharingParams p;
  p.interference_gamma = 0.0;
  p.oversub_thrash_kappa = 0.0;
  p.contention_exponent = 1.0;  // strict proportional slicing for clarity
  return p;
}

/// compute_shares into fresh buffers; returns the grants.
std::vector<ShareGrant> grants_for(const SpeedupModel& model, int total_sms,
                                   const std::vector<int>& context_sms,
                                   const std::vector<ShareRequest>& reqs,
                                   const SharingParams& params) {
  ShareBuffers out;
  compute_shares(model, total_sms, context_sms, reqs, params, out);
  return out.grants;
}

class SharingTest : public ::testing::Test {
 protected:
  SpeedupModel model_ = SpeedupModel::rtx2080ti();
  static constexpr int kTotalSms = 68;
};

TEST_F(SharingTest, LoneKernelGetsFullContext) {
  const auto grants =
      grants_for(model_, kTotalSms, {34},
                     {{0, 1.0, OpClass::kConv}}, no_interference());
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_DOUBLE_EQ(grants[0].sms, 34.0);
  EXPECT_NEAR(grants[0].rate, model_.speedup(OpClass::kConv, 34.0), 1e-12);
}

TEST_F(SharingTest, EqualWeightsSplitEvenly) {
  const auto grants = grants_for(
      model_, kTotalSms, {34},
      {{0, 1.0, OpClass::kConv}, {0, 1.0, OpClass::kConv}},
      no_interference());
  EXPECT_DOUBLE_EQ(grants[0].sms, 17.0);
  EXPECT_DOUBLE_EQ(grants[1].sms, 17.0);
}

TEST_F(SharingTest, PriorityWeightSkewsShares) {
  SharingParams p = no_interference();
  p.high_priority_weight = 3.0;
  p.low_priority_weight = 1.0;
  const auto grants = grants_for(
      model_, kTotalSms, {40},
      {{0, 3.0, OpClass::kConv}, {0, 1.0, OpClass::kConv}}, p);
  EXPECT_DOUBLE_EQ(grants[0].sms, 30.0);
  EXPECT_DOUBLE_EQ(grants[1].sms, 10.0);
}

TEST_F(SharingTest, IndependentContextsDoNotShare) {
  const auto grants = grants_for(
      model_, kTotalSms, {34, 34},
      {{0, 1.0, OpClass::kConv}, {1, 1.0, OpClass::kReLU}},
      no_interference());
  EXPECT_DOUBLE_EQ(grants[0].sms, 34.0);
  EXPECT_DOUBLE_EQ(grants[1].sms, 34.0);
  // Demand == 68 == total: no contention scaling.
  EXPECT_NEAR(grants[0].rate, model_.speedup(OpClass::kConv, 34.0), 1e-12);
}

TEST_F(SharingTest, OversubscriptionScalesRatesProportionally) {
  // Two 68-SM contexts both active: demand 136 vs 68 physical -> rate halves.
  const auto grants = grants_for(
      model_, kTotalSms, {68, 68},
      {{0, 1.0, OpClass::kConv}, {1, 1.0, OpClass::kConv}},
      no_interference());
  EXPECT_NEAR(grants[0].rate, model_.speedup(OpClass::kConv, 68.0) * 0.5,
              1e-12);
}

TEST_F(SharingTest, IdleContextDoesNotCountTowardDemand) {
  // Second context exists but has no running kernel: no over-subscription.
  const auto grants =
      grants_for(model_, kTotalSms, {68, 68},
                     {{0, 1.0, OpClass::kConv}}, no_interference());
  EXPECT_NEAR(grants[0].rate, model_.speedup(OpClass::kConv, 68.0), 1e-12);
}

TEST_F(SharingTest, InterferenceGammaReducesRates) {
  SharingParams p = no_interference();
  p.interference_gamma = 0.1;
  const auto one = grants_for(model_, kTotalSms, {34, 34},
                                  {{0, 1.0, OpClass::kConv}}, p);
  const auto two = grants_for(
      model_, kTotalSms, {34, 34},
      {{0, 1.0, OpClass::kConv}, {1, 1.0, OpClass::kConv}}, p);
  // With a second client the first kernel's rate drops by 1/(1+gamma).
  EXPECT_NEAR(two[0].rate, one[0].rate / 1.1, 1e-12);
}

TEST_F(SharingTest, ThrashPenaltyOnlyWhenOversubscribedAndMultiContext) {
  SharingParams p = no_interference();
  p.oversub_thrash_kappa = 0.5;
  // Demand 68 == total: no thrash even with kappa set.
  const auto ok = grants_for(
      model_, kTotalSms, {34, 34},
      {{0, 1.0, OpClass::kConv}, {1, 1.0, OpClass::kConv}}, p);
  EXPECT_NEAR(ok[0].rate, model_.speedup(OpClass::kConv, 34.0), 1e-12);
  // Demand 102 (1.5x): thrash divisor 1 + 0.5 * 1 * 0.5 = 1.25 on top of
  // the proportional 68/102 contention.
  const auto thrash = grants_for(
      model_, kTotalSms, {51, 51},
      {{0, 1.0, OpClass::kConv}, {1, 1.0, OpClass::kConv}}, p);
  const double expected =
      model_.speedup(OpClass::kConv, 51.0) * (68.0 / 102.0) / 1.25;
  EXPECT_NEAR(thrash[0].rate, expected, 1e-12);
}

TEST_F(SharingTest, SingleOversubscribedContextHasNoThrash) {
  // Thrash models cross-context MPS switching; one active context is exempt
  // (only proportional contention applies — and demand <= total here).
  SharingParams p = no_interference();
  p.oversub_thrash_kappa = 0.5;
  const auto grants = grants_for(model_, kTotalSms, {68, 68},
                                     {{0, 1.0, OpClass::kConv}}, p);
  EXPECT_NEAR(grants[0].rate, model_.speedup(OpClass::kConv, 68.0), 1e-12);
}

TEST_F(SharingTest, EmptyRequestListReturnsEmpty) {
  EXPECT_TRUE(
      grants_for(model_, kTotalSms, {34}, {}, no_interference()).empty());
}

TEST_F(SharingTest, InvalidContextIndexThrows) {
  EXPECT_THROW(grants_for(model_, kTotalSms, {34},
                              {{1, 1.0, OpClass::kConv}}, no_interference()),
               common::CheckError);
}

TEST_F(SharingTest, NonPositiveWeightThrows) {
  EXPECT_THROW(grants_for(model_, kTotalSms, {34},
                              {{0, 0.0, OpClass::kConv}}, no_interference()),
               common::CheckError);
}

// Property sweep: conservation — granted SMs inside a context never exceed
// its allocation, for many kernel-count combinations.
class SharingConservation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SharingConservation, GrantsNeverExceedContextAllocation) {
  const auto [ctx_sms, kernels] = GetParam();
  SpeedupModel model = SpeedupModel::rtx2080ti();
  std::vector<ShareRequest> reqs;
  for (int i = 0; i < kernels; ++i) {
    reqs.push_back({0, i % 2 ? 2.0 : 1.0,
                    i % 2 ? OpClass::kConv : OpClass::kReLU});
  }
  const auto grants =
      grants_for(model, 68, {ctx_sms}, reqs, SharingParams{});
  double sum = 0.0;
  for (const auto& g : grants) {
    EXPECT_GT(g.sms, 0.0);
    EXPECT_GT(g.rate, 0.0);
    sum += g.sms;
  }
  EXPECT_LE(sum, ctx_sms + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SharingConservation,
    ::testing::Combine(::testing::Values(1, 8, 23, 34, 45, 68),
                       ::testing::Values(1, 2, 3, 4, 7)));

TEST_F(SharingTest, SubProportionalContentionCreditsLatencyHiding) {
  SharingParams p = no_interference();
  p.contention_exponent = 0.5;
  // Demand 136 vs 68: proportional would halve; beta=0.5 gives 1/sqrt(2).
  const auto grants = grants_for(
      model_, kTotalSms, {68, 68},
      {{0, 1.0, OpClass::kConv}, {1, 1.0, OpClass::kConv}}, p);
  const double expected =
      model_.speedup(OpClass::kConv, 68.0) / std::sqrt(2.0);
  EXPECT_NEAR(grants[0].rate, expected, 1e-12);
}

TEST_F(SharingTest, DefaultExponentMakesOversubBeatStrictSlicing) {
  // The calibrated default must reward over-subscription relative to
  // proportional slicing (the paper's Scenario 1 observation).
  SharingParams strict = no_interference();
  SharingParams def = no_interference();
  def.contention_exponent = SharingParams{}.contention_exponent;
  const std::vector<ShareRequest> reqs = {{0, 1.0, OpClass::kConv},
                                          {1, 1.0, OpClass::kConv}};
  const auto a = grants_for(model_, kTotalSms, {68, 68}, reqs, strict);
  const auto b = grants_for(model_, kTotalSms, {68, 68}, reqs, def);
  EXPECT_GT(b[0].rate, a[0].rate);
}

TEST_F(SharingTest, InvalidExponentThrows) {
  SharingParams p = no_interference();
  p.contention_exponent = 0.0;
  EXPECT_THROW(grants_for(model_, kTotalSms, {68, 68},
                              {{0, 1.0, OpClass::kConv},
                               {1, 1.0, OpClass::kConv}},
                              p),
               common::CheckError);
}

TEST_F(SharingTest, ReusedBuffersMatchFreshOnes) {
  // The executor reuses one ShareBuffers across every rate recompute: a
  // call after a larger one must overwrite, not accumulate into, the
  // stale grants and per-context weights.
  ShareBuffers reused;
  const std::vector<ShareRequest> big = {{0, 2.0, OpClass::kConv},
                                         {1, 1.0, OpClass::kReLU},
                                         {1, 1.0, OpClass::kConv}};
  const std::vector<ShareRequest> small = {{1, 1.0, OpClass::kConv}};
  compute_shares(model_, kTotalSms, {40, 40}, big, SharingParams{}, reused);
  compute_shares(model_, kTotalSms, {40, 40}, small, SharingParams{}, reused);
  const auto fresh =
      grants_for(model_, kTotalSms, {40, 40}, small, SharingParams{});
  ASSERT_EQ(reused.grants.size(), 1u);
  EXPECT_EQ(reused.grants[0].sms, fresh[0].sms);
  EXPECT_EQ(reused.grants[0].rate, fresh[0].rate);
  EXPECT_DOUBLE_EQ(reused.grants[0].sms, 40.0);
}

TEST_F(SharingTest, SetSharesIgnoreOpClasses) {
  // The executor caches the running-set part across kernel boundaries, so
  // it must not depend on which op classes run: the same (context, weight)
  // set with other ops gives the same shares and factor, bit for bit, and
  // compute_shares is exactly that set part times each op's speedup.
  const std::vector<ShareRequest> a = {{0, 2.0, OpClass::kConv},
                                       {0, 1.0, OpClass::kReLU},
                                       {1, 1.0, OpClass::kLinear}};
  const std::vector<ShareRequest> b = {{0, 2.0, OpClass::kSoftmax},
                                       {0, 1.0, OpClass::kConv},
                                       {1, 1.0, OpClass::kMaxPool}};
  ShareBuffers set_a, set_b, full;
  compute_set_shares(kTotalSms, {40, 40}, a, SharingParams{}, set_a);
  compute_set_shares(kTotalSms, {40, 40}, b, SharingParams{}, set_b);
  ASSERT_EQ(set_a.grants.size(), 3u);
  EXPECT_EQ(set_a.rate_factor, set_b.rate_factor);
  EXPECT_GT(set_a.rate_factor, 0.0);
  EXPECT_LT(set_a.rate_factor, 1.0) << "80 SMs over-subscribe 68";
  compute_shares(model_, kTotalSms, {40, 40}, a, SharingParams{}, full);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(set_a.grants[i].sms, set_b.grants[i].sms);
    EXPECT_EQ(set_a.grants[i].rate, 0.0);
    EXPECT_EQ(full.grants[i].sms, set_a.grants[i].sms);
    EXPECT_EQ(full.grants[i].rate,
              kernel_rate(model_, a[i].op, set_a.grants[i].sms,
                          set_a.rate_factor));
  }
}

}  // namespace
}  // namespace sgprs::gpu
