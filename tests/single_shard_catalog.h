#ifndef NIMBUS_TESTS_SINGLE_SHARD_CATALOG_H_
#define NIMBUS_TESTS_SINGLE_SHARD_CATALOG_H_

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "market/catalog.h"
#include "market/marketplace.h"

namespace nimbus::testing {

// A single-product market as MarketService serves it: a 1-shard catalog
// (product "solo") over the marketplace `make` builds, rooted in a fresh
// directory under the gtest temp dir that is removed on destruction.
// Declare it before the service that serves it, so the service drains
// first.
class SingleShardCatalog {
 public:
  static constexpr const char* kProduct = "solo";

  SingleShardCatalog(const std::string& name,
                     std::function<market::Marketplace()> make,
                     market::ShardOptions shard_defaults = {})
      : root_(FreshRoot(name)) {
    market::CatalogOptions options;
    options.root_dir = root_;
    options.shard_defaults = std::move(shard_defaults);
    catalog_ = std::make_unique<market::Catalog>(options);
    const Status added = catalog_->AddProduct(
        kProduct, [make = std::move(make)]() -> StatusOr<market::Marketplace> {
          return make();
        });
    EXPECT_TRUE(added.ok()) << added;
  }

  ~SingleShardCatalog() {
    catalog_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }

  SingleShardCatalog(const SingleShardCatalog&) = delete;
  SingleShardCatalog& operator=(const SingleShardCatalog&) = delete;

  market::Catalog* get() { return catalog_.get(); }
  market::Shard& shard() { return *catalog_->shard(0); }
  // The shard's live marketplace; read it only while no request is in
  // flight (the commit path owns the ledger).
  market::Marketplace& market() { return *shard().market(); }
  const std::string& journal_path() { return shard().journal_path(); }

 private:
  static std::string FreshRoot(const std::string& name) {
    static int counter = 0;
    std::string root = ::testing::TempDir() + "/" + name + "_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(counter++);
    std::error_code ignored;
    std::filesystem::remove_all(root, ignored);
    return root;
  }

  std::string root_;
  std::unique_ptr<market::Catalog> catalog_;
};

}  // namespace nimbus::testing

#endif  // NIMBUS_TESTS_SINGLE_SHARD_CATALOG_H_
