#ifndef NIMBUS_MARKET_RESEARCH_ESTIMATION_H_
#define NIMBUS_MARKET_RESEARCH_ESTIMATION_H_

#include <vector>

#include "common/statusor.h"
#include "market/ledger.h"
#include "revenue/buyer_model.h"

namespace nimbus::market {

// Estimates market research (demand and value curves) from observed
// transactions, closing the loop of Figure 1: instead of assuming the
// seller knows the curves, infer them from the sales and re-run the
// revenue optimization. `sales` are ledger rows — kept by the caller,
// or read back off the journal chain (Journal::ReadChain). Estimates are conservative:
//   * demand mass b_j = share of the model's transactions whose version
//     is nearest to grid point a_j (plus-one smoothing so unsold
//     versions keep a sliver of mass);
//   * valuation v_j = the highest price ever paid at versions assigned
//     to a_j — a lower bound on willingness to pay. Grid points with no
//     sales inherit the previous point's estimate, and the final curve
//     is forced monotone non-decreasing (isotonic pass) so it satisfies
//     the DP precondition.
//
// `versions` is the strictly increasing grid of inverse NCPs to estimate
// at (typically the versions actually offered). Fails when `sales`
// has no transactions for `model`.
StatusOr<std::vector<revenue::BuyerPoint>> EstimateResearchFromLedger(
    const std::vector<LedgerEntry>& sales, ml::ModelKind model,
    const std::vector<double>& versions);

}  // namespace nimbus::market

#endif  // NIMBUS_MARKET_RESEARCH_ESTIMATION_H_
