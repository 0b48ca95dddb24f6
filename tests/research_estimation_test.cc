#include "market/research_estimation.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "revenue/dp_optimizer.h"

namespace nimbus::market {
namespace {

constexpr ml::ModelKind kModel = ml::ModelKind::kLinearRegression;
constexpr ml::ModelKind kOther = ml::ModelKind::kLinearSvm;

// Appends one observed sale, numbered in order.
void AddSale(std::vector<LedgerEntry>& sales, const std::string& buyer,
             ml::ModelKind model, double inverse_ncp, double price) {
  LedgerEntry entry;
  entry.sequence = static_cast<int64_t>(sales.size());
  entry.buyer_id = buyer;
  entry.model = model;
  entry.inverse_ncp = inverse_ncp;
  entry.price = price;
  sales.push_back(std::move(entry));
}

TEST(ResearchEstimationTest, Validation) {
  std::vector<LedgerEntry> sales;
  EXPECT_FALSE(EstimateResearchFromLedger(sales, kModel, {}).ok());
  EXPECT_FALSE(
      EstimateResearchFromLedger(sales, kModel, {2.0, 1.0}).ok());
  // No sales of the model.
  AddSale(sales, "a", kOther, 1.0, 5.0);
  EXPECT_EQ(EstimateResearchFromLedger(sales, kModel, {1.0, 2.0})
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(ResearchEstimationTest, AssignsToNearestVersionAndTakesMaxPrice) {
  std::vector<LedgerEntry> sales;
  // Two sales near version 1, one near version 10.
  AddSale(sales, "a", kModel, 1.1, 3.0);
  AddSale(sales, "b", kModel, 0.9, 7.0);
  AddSale(sales, "c", kModel, 9.8, 20.0);
  StatusOr<std::vector<revenue::BuyerPoint>> research =
      EstimateResearchFromLedger(sales, kModel, {1.0, 10.0});
  ASSERT_TRUE(research.ok());
  ASSERT_EQ(research->size(), 2u);
  // Valuation = max observed price per version.
  EXPECT_DOUBLE_EQ((*research)[0].v, 7.0);
  EXPECT_DOUBLE_EQ((*research)[1].v, 20.0);
  // Demand masses: plus-one smoothing of (2, 1) -> (3/5, 2/5).
  EXPECT_NEAR((*research)[0].b, 0.6, 1e-12);
  EXPECT_NEAR((*research)[1].b, 0.4, 1e-12);
}

TEST(ResearchEstimationTest, UnsoldVersionsInheritAndStayMonotone) {
  std::vector<LedgerEntry> sales;
  AddSale(sales, "a", kModel, 1.0, 10.0);
  AddSale(sales, "b", kModel, 30.0, 25.0);
  StatusOr<std::vector<revenue::BuyerPoint>> research =
      EstimateResearchFromLedger(sales, kModel, {1.0, 10.0, 20.0, 30.0});
  ASSERT_TRUE(research.ok());
  // Middle versions (no sales) forward-fill from 10.0.
  EXPECT_DOUBLE_EQ((*research)[1].v, 10.0);
  EXPECT_DOUBLE_EQ((*research)[2].v, 10.0);
  // The whole curve satisfies the DP precondition.
  EXPECT_TRUE(
      revenue::ValidateBuyerPoints(*research, /*monotone=*/true).ok());
}

TEST(ResearchEstimationTest, NonMonotoneObservationsAreSmoothed) {
  // A lucky expensive sale at a cheap version must not break the
  // monotone-valuation precondition.
  std::vector<LedgerEntry> sales;
  AddSale(sales, "a", kModel, 1.0, 50.0);
  AddSale(sales, "b", kModel, 10.0, 10.0);
  StatusOr<std::vector<revenue::BuyerPoint>> research =
      EstimateResearchFromLedger(sales, kModel, {1.0, 10.0});
  ASSERT_TRUE(research.ok());
  EXPECT_LE((*research)[0].v, (*research)[1].v);
  // Isotonic smoothing pools to the mean (30, 30).
  EXPECT_NEAR((*research)[0].v, 30.0, 1e-9);
}

TEST(ResearchEstimationTest, EstimateFeedsTheDp) {
  std::vector<LedgerEntry> sales;
  for (int i = 1; i <= 10; ++i) {
    AddSale(sales, "b" + std::to_string(i), kModel, static_cast<double>(i),
            5.0 * i);
  }
  StatusOr<std::vector<revenue::BuyerPoint>> research =
      EstimateResearchFromLedger(sales, kModel, Linspace(1.0, 10.0, 10));
  ASSERT_TRUE(research.ok());
  auto dp = revenue::OptimizeRevenueDp(*research);
  ASSERT_TRUE(dp.ok());
  // Linear observed valuations can be extracted in full.
  double expected = 0.0;
  for (const revenue::BuyerPoint& p : *research) {
    expected += p.b * p.v;
  }
  EXPECT_NEAR(dp->revenue, expected, 1e-9);
}

}  // namespace
}  // namespace nimbus::market
