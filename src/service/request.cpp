#include "service/request.h"

#include <algorithm>

#include "util/string_util.h"

namespace hypdb {
namespace {

// Field separator for composed keys.
constexpr char kSep = '\x1f';

// Escapes every character the key grammar uses as structure — the field
// separator plus the '=', ',', '&' of the WHERE rendering. Attribute
// names and values come from arbitrary CSV data, so without this two
// different WHERE clauses could print the same signature (e.g. one value
// "1&B=2" vs two terms "...=1" & "B=2") and falsely share a shard.
std::string EscapeValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == kSep || c == '\\' || c == '=' || c == ',' || c == '&') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string SubpopulationSignature(const AggQuery& query) {
  // Normalize: per-term sorted unique values, terms sorted by attribute
  // (ties broken by value list so `a IN (1)` and `a IN (2)` stay apart).
  std::vector<std::string> terms;
  terms.reserve(query.where.size());
  for (const auto& [attr, values] : query.where) {
    std::vector<std::string> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    std::string term = EscapeValue(attr) + "=";
    for (size_t i = 0; i < sorted.size(); ++i) {
      if (i > 0) term += ",";
      term += EscapeValue(sorted[i]);
    }
    terms.push_back(std::move(term));
  }
  std::sort(terms.begin(), terms.end());
  // Identical conjuncts are idempotent (t AND t ≡ t): `a IN ('1') AND
  // a IN ('1')` selects the same rows as `a IN ('1')` and must map to
  // the same shard. (Distinct terms on one attribute are kept — their
  // conjunction is an intersection, a different subpopulation.)
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  std::string sig;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) sig += "&";
    sig += terms[i];
  }
  return sig;
}

StatusOr<std::vector<SubpopulationTerm>> ParseSubpopulationSignature(
    const std::string& signature) {
  std::vector<SubpopulationTerm> terms;
  if (signature.empty()) return terms;
  SubpopulationTerm term;
  std::string token;
  bool in_values = false;  // before vs after the term's unescaped '='
  auto finish_term = [&]() -> Status {
    if (!in_values) {
      return Status::InvalidArgument(
          "malformed subpopulation signature (term without '='): " +
          signature);
    }
    term.values.push_back(std::move(token));
    token.clear();
    terms.push_back(std::move(term));
    term = {};
    in_values = false;
    return Status::Ok();
  };
  for (size_t i = 0; i < signature.size(); ++i) {
    const char c = signature[i];
    if (c == '\\') {
      if (i + 1 >= signature.size()) {
        return Status::InvalidArgument(
            "malformed subpopulation signature (trailing escape): " +
            signature);
      }
      token.push_back(signature[++i]);
    } else if (c == '=' && !in_values) {
      term.attribute = std::move(token);
      token.clear();
      in_values = true;
    } else if (c == ',' && in_values) {
      term.values.push_back(std::move(token));
      token.clear();
    } else if (c == '&') {
      HYPDB_RETURN_IF_ERROR(finish_term());
    } else {
      token.push_back(c);
    }
  }
  HYPDB_RETURN_IF_ERROR(finish_term());
  return terms;
}

std::string DatasetKeyPrefix(const std::string& dataset) {
  return EscapeValue(dataset) + kSep;
}

std::string DiscoveryKey(const std::string& dataset, int64_t epoch,
                         const AggQuery& query, const HypDbOptions& o) {
  // Everything the DiscoveryReport depends on. Counts are exact, so the
  // count-engine configuration is deliberately absent (caching and scan
  // threads are execution strategy, not statistics) — with one exception:
  // the entropy estimator, which changes every CI statistic.
  std::string key = DatasetKeyPrefix(dataset);
  key += std::to_string(epoch);
  key += kSep;
  key += EscapeValue(query.treatment);
  key += kSep;
  // Outcome ORDER matters: mediators are discovered for the primary
  // outcome (outcomes[0]), so a reordered outcome list is a different
  // discovery — never canonicalize it away.
  for (size_t i = 0; i < query.outcomes.size(); ++i) {
    if (i > 0) key += ",";
    key += EscapeValue(query.outcomes[i]);
  }
  key += kSep;
  key += SubpopulationSignature(query);
  key += kSep;
  // Every float at full precision (%.17g round-trips doubles): a 7th-
  // significant-digit difference in any threshold is a different test
  // configuration and must not share a cached discovery.
  key += StrFormat(
      "ci=%d,%d,%.17g,%d|a=%.17g|f=%d,%d|est=%d|seed=%llu",
      static_cast<int>(o.ci.method), o.ci.permutations, o.ci.hybrid_beta,
      static_cast<int>(o.ci.mit_estimator), o.alpha,
      o.apply_fd_filter ? 1 : 0, o.discover_mediators ? 1 : 0,
      static_cast<int>(o.engine.estimator),
      static_cast<unsigned long long>(o.seed));
  return key;
}

}  // namespace hypdb
