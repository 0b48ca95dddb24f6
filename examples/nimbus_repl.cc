// An interactive Nimbus marketplace session — the closest analogue of
// the SIGMOD demonstration's walk-up interface. Reads commands from
// stdin and prints the marketplace state; also usable non-interactively:
//
//   printf 'catalog\nbuy alice logistic_regression 25\nledger\nquit\n' |
//       ./build/examples/nimbus_repl
//
// Commands:
//   catalog                          cross-model offering summary
//   menu <model>                     price-error curve of one offering
//   buy <buyer> <model> <1/NCP>      purchase a version
//   budget <buyer> <model> <price>   best version within a price budget
//   ledger                           booked totals + top buyers
//   audit <model>                    arbitrage audit of the menu
//   quit

#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/random.h"
#include "data/synthetic.h"
#include "market/curves.h"
#include "market/market_simulator.h"
#include "market/marketplace.h"
#include "pricing/arbitrage.h"
#include "common/math_util.h"

namespace {

using namespace nimbus;  // NOLINT: example brevity.

StatusOr<ml::ModelKind> ParseModel(const std::string& name) {
  for (ml::ModelKind kind :
       {ml::ModelKind::kLogisticRegression, ml::ModelKind::kLinearSvm}) {
    if (ml::ModelKindToString(kind) == name) {
      return kind;
    }
  }
  return NotFoundError("unknown model '" + name +
                       "' (try logistic_regression or linear_svm)");
}

void PrintCatalog(market::Marketplace& marketplace) {
  auto catalog = marketplace.Catalog();
  if (!catalog.ok()) {
    std::printf("error: %s\n", catalog.status().ToString().c_str());
    return;
  }
  std::printf("%-22s %-10s %-22s %-18s\n", "model", "loss",
              "expected error range", "price range");
  for (const auto& row : *catalog) {
    std::printf("%-22s %-10s [%7.4f, %7.4f]     [%7.2f, %7.2f]\n",
                std::string(ml::ModelKindToString(row.model)).c_str(),
                row.report_loss.c_str(), row.best_expected_error,
                row.worst_expected_error, row.min_price, row.max_price);
  }
}

void PrintMenu(market::Marketplace& marketplace, const std::string& name) {
  auto kind = ParseModel(name);
  if (!kind.ok()) {
    std::printf("error: %s\n", kind.status().ToString().c_str());
    return;
  }
  auto broker = marketplace.BrokerFor(*kind);
  if (!broker.ok()) {
    std::printf("error: %s\n", broker.status().ToString().c_str());
    return;
  }
  auto menu = (*broker)->PriceErrorCurve("zero_one");
  if (!menu.ok()) {
    std::printf("error: %s\n", menu.status().ToString().c_str());
    return;
  }
  std::printf("%8s %16s %10s\n", "1/NCP", "E[0/1 error]", "price");
  for (const auto& row : *menu) {
    std::printf("%8.1f %16.4f %10.2f\n", row.inverse_ncp,
                row.expected_error, row.price);
  }
}

}  // namespace

int main() {
  // One-time marketplace setup on a synthetic classification dataset.
  Rng rng(2019);
  data::ClassificationSpec spec;
  spec.num_examples = 1500;
  spec.num_features = 10;
  spec.positive_prob = 0.92;
  data::Dataset all = data::GenerateClassification(spec, rng);
  data::TrainTestSplit split = data::Split(all, 0.75, rng);

  market::Broker::Options options;
  options.min_inverse_ncp = 1.0;
  options.max_inverse_ncp = 100.0;
  options.error_curve_points = 12;
  options.samples_per_curve_point = 150;
  market::Marketplace marketplace(std::move(split), options);

  auto research = market::MakeBuyerPoints(
      market::ValueShape::kConcave, market::DemandShape::kUniform, 15, 1.0,
      100.0, 120.0, 2.0);
  market::Seller seller = *market::Seller::Create(*research);
  auto pricing = *seller.NegotiatePricing();
  for (ml::ModelKind kind :
       {ml::ModelKind::kLogisticRegression, ml::ModelKind::kLinearSvm}) {
    const Status added = marketplace.AddOffering(kind, 0.01, pricing);
    if (!added.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", added.ToString().c_str());
      return 1;
    }
  }
  std::printf(
      "Nimbus marketplace ready (2 offerings, MBP pricing installed).\n"
      "Type 'catalog', 'menu <model>', 'buy <buyer> <model> <1/NCP>',\n"
      "'budget <buyer> <model> <price>', 'ledger', 'audit <model>', "
      "'quit'.\n");

  std::string line;
  while (std::printf("nimbus> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream args(line);
    std::string command;
    if (!(args >> command)) {
      continue;
    }
    if (command == "quit" || command == "exit") {
      break;
    } else if (command == "catalog") {
      PrintCatalog(marketplace);
    } else if (command == "menu") {
      std::string model;
      args >> model;
      PrintMenu(marketplace, model);
    } else if (command == "buy") {
      std::string buyer;
      std::string model;
      double x = 0.0;
      if (!(args >> buyer >> model >> x)) {
        std::printf("usage: buy <buyer> <model> <1/NCP>\n");
        continue;
      }
      auto kind = ParseModel(model);
      if (!kind.ok()) {
        std::printf("error: %s\n", kind.status().ToString().c_str());
        continue;
      }
      auto purchase = marketplace.Buy(buyer, *kind, x, "zero_one");
      if (!purchase.ok()) {
        std::printf("error: %s\n", purchase.status().ToString().c_str());
        continue;
      }
      std::printf("%s bought %s @ 1/NCP=%.1f for %.2f (E err %.4f)\n",
                  buyer.c_str(), model.c_str(), x, purchase->price,
                  purchase->expected_error);
    } else if (command == "budget") {
      std::string buyer;
      std::string model;
      double budget = 0.0;
      if (!(args >> buyer >> model >> budget)) {
        std::printf("usage: budget <buyer> <model> <price>\n");
        continue;
      }
      auto kind = ParseModel(model);
      if (!kind.ok()) {
        std::printf("error: %s\n", kind.status().ToString().c_str());
        continue;
      }
      auto purchase =
          marketplace.BuyWithPriceBudget(buyer, *kind, budget, "zero_one");
      if (!purchase.ok()) {
        std::printf("error: %s\n", purchase.status().ToString().c_str());
        continue;
      }
      std::printf(
          "%s got the best version under %.2f: 1/NCP=%.2f for %.2f\n",
          buyer.c_str(), budget, purchase->inverse_ncp, purchase->price);
    } else if (command == "ledger") {
      const market::Ledger& ledger = marketplace.ledger();
      std::printf("sales: %lld  total revenue: %.2f  fingerprint: %016llx\n",
                  static_cast<long long>(ledger.size()),
                  ledger.TotalRevenue(),
                  static_cast<unsigned long long>(ledger.Fingerprint()));
      for (const ml::ModelKind kind : marketplace.Offerings()) {
        std::printf("  %-20s revenue %.2f\n",
                    std::string(ml::ModelKindToString(kind)).c_str(),
                    ledger.RevenueForModel(kind));
      }
      for (const auto& [buyer, spend] : marketplace.ledger().TopBuyers(3)) {
        std::printf("  top buyer %-12s %.2f\n", buyer.c_str(), spend);
      }
    } else if (command == "audit") {
      std::string model;
      args >> model;
      auto kind = ParseModel(model);
      if (!kind.ok()) {
        std::printf("error: %s\n", kind.status().ToString().c_str());
        continue;
      }
      auto broker = marketplace.BrokerFor(*kind);
      if (!broker.ok()) {
        std::printf("error: %s\n", broker.status().ToString().c_str());
        continue;
      }
      const pricing::AuditResult audit = pricing::AuditPricingFunction(
          (*broker)->pricing_function(), Linspace(1.0, 100.0, 30), 1e-6);
      std::printf("audit: %s\n", audit.arbitrage_free
                                     ? "arbitrage free"
                                     : audit.violation.c_str());
    } else {
      std::printf("unknown command '%s'\n", command.c_str());
    }
  }
  std::printf("\nsession over; broker collected %.2f across %lld sales.\n",
              marketplace.total_revenue(),
              static_cast<long long>(marketplace.ledger().size()));
  return 0;
}
