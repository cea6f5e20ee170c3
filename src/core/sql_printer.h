// Rendering of the rewritten queries as SQL text (paper Listing 2 / 3).
//
// HypDB's output is not just numbers: the rewritten query "shows what the
// analyst intended to examine". These printers emit the Listing-2-shaped
// WITH Blocks/Weights query for the total effect and the mediator-formula
// query for the direct effect, using the analyzed query's own attribute
// names.

#ifndef HYPDB_CORE_SQL_PRINTER_H_
#define HYPDB_CORE_SQL_PRINTER_H_

#include <string>
#include <vector>

#include "core/query.h"

namespace hypdb {

/// Listing-2 rewriting of `query` w.r.t. covariate names `covariates`:
/// run over the table, it returns the total effects the rewriter
/// computes (RewriteContextAndEstimate), per treatment and context.
std::string RewrittenTotalSql(const AggQuery& query,
                              const std::vector<std::string>& covariates);

/// Mediator-formula (Eq. 3) rewriting w.r.t. covariates and mediators;
/// `reference` is the treatment value whose mediator distribution is held
/// fixed. Run over the table, it returns the rewriter's direct effects
/// per treatment and context.
std::string RewrittenDirectSql(const AggQuery& query,
                               const std::vector<std::string>& covariates,
                               const std::vector<std::string>& mediators,
                               const std::string& reference);

}  // namespace hypdb

#endif  // HYPDB_CORE_SQL_PRINTER_H_
