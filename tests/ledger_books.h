#ifndef NIMBUS_TESTS_LEDGER_BOOKS_H_
#define NIMBUS_TESTS_LEDGER_BOOKS_H_

#include <cstdint>
#include <ostream>

#include "market/ledger.h"

namespace nimbus::testing {

// What a ledger booked: row count, fingerprint over every row's journal
// payload bytes, and revenue. Equal books mean byte-identical rows.
struct Books {
  int64_t sales = 0;
  uint64_t fingerprint = 0;
  double revenue = 0.0;
  bool operator==(const Books&) const = default;
};

inline Books BooksOf(const market::Ledger& ledger) {
  return Books{ledger.size(), ledger.Fingerprint(), ledger.TotalRevenue()};
}

inline std::ostream& operator<<(std::ostream& os, const Books& books) {
  return os << "{sales " << books.sales << ", fingerprint " << std::hex
            << books.fingerprint << std::dec << ", revenue " << books.revenue
            << "}";
}

}  // namespace nimbus::testing

#endif  // NIMBUS_TESTS_LEDGER_BOOKS_H_
