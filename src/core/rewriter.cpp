#include "core/rewriter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "dataframe/group_by.h"
#include "stats/mi_engine.h"

namespace hypdb {

StatusOr<std::vector<std::pair<int32_t, std::string>>> TreatmentsIn(
    CountEngine& engine, const Table& table, int treatment) {
  HYPDB_ASSIGN_OR_RETURN(GroupCounts counts, engine.Counts({treatment}));
  const Column& col = table.column(treatment);
  std::vector<std::pair<int32_t, std::string>> out;
  for (uint64_t key : counts.keys) {
    int32_t code = static_cast<int32_t>(key);
    out.emplace_back(code, col.dict().Label(code));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return out;
}

namespace {

// The adjustment formula (Eq. 2) with exact matching over one context,
// from the context engine's counts.
Status ComputeTotal(
    CountEngine& engine, const Table& table, int treatment,
    const std::vector<int>& covariates, const std::vector<int>& outcomes,
    const std::vector<std::pair<int32_t, std::string>>& treatments,
    ContextRewrite* out) {
  const int num_outcomes = static_cast<int>(outcomes.size());
  const int num_treatments = static_cast<int>(treatments.size());
  std::map<int32_t, int> t_slot;
  for (int i = 0; i < num_treatments; ++i) {
    t_slot[treatments[i].first] = i;
  }

  // Blocks: avg(Y...) GROUP BY T, Z (Listing 2 "Blocks").
  std::vector<int> cols = {treatment};
  cols.insert(cols.end(), covariates.begin(), covariates.end());
  HYPDB_ASSIGN_OR_RETURN(GroupedAverages blocks,
                         AverageBy(engine, table, cols, outcomes));

  // Bucket the (t, z) cells by block key z.
  std::vector<int> z_positions;
  for (size_t i = 1; i < cols.size(); ++i) {
    z_positions.push_back(static_cast<int>(i));
  }
  TupleCodec z_codec = blocks.codec.Project(z_positions);
  struct Block {
    int64_t rows = 0;
    std::vector<int64_t> t_rows;
    std::vector<std::vector<double>> t_means;  // [treatment][outcome]
    std::vector<bool> present;
  };
  std::unordered_map<uint64_t, Block> block_of;
  std::vector<int32_t> z_codes(z_positions.size());
  for (int g = 0; g < blocks.NumGroups(); ++g) {
    int32_t t_code = blocks.codec.DecodeAt(blocks.keys[g], 0);
    auto slot_it = t_slot.find(t_code);
    if (slot_it == t_slot.end()) continue;
    for (size_t i = 0; i < z_positions.size(); ++i) {
      z_codes[i] = blocks.codec.DecodeAt(blocks.keys[g], z_positions[i]);
    }
    Block& block = block_of[z_codec.EncodeCodes(z_codes)];
    if (block.present.empty()) {
      block.present.assign(num_treatments, false);
      block.t_rows.assign(num_treatments, 0);
      block.t_means.assign(num_treatments,
                           std::vector<double>(num_outcomes, 0.0));
    }
    block.rows += blocks.counts[g];
    block.present[slot_it->second] = true;
    block.t_rows[slot_it->second] = blocks.counts[g];
    block.t_means[slot_it->second] = blocks.means[g];
  }

  // Exact matching: keep blocks where every compared treatment occurs
  // (HAVING count(DISTINCT T) = k); weights renormalized over survivors.
  out->blocks_seen = static_cast<int64_t>(block_of.size());
  int64_t surviving_rows = 0;
  for (const auto& [key, block] : block_of) {
    bool full = std::all_of(block.present.begin(), block.present.end(),
                            [](bool b) { return b; });
    if (full) {
      ++out->blocks_used;
      surviving_rows += block.rows;
    }
  }

  out->total.clear();
  for (int i = 0; i < num_treatments; ++i) {
    AdjustedGroup group;
    group.treatment_label = treatments[i].second;
    group.means.assign(num_outcomes, 0.0);
    out->total.push_back(std::move(group));
  }
  if (surviving_rows == 0) return Status::Ok();  // overlap failed everywhere

  for (const auto& [key, block] : block_of) {
    bool full = std::all_of(block.present.begin(), block.present.end(),
                            [](bool b) { return b; });
    if (!full) continue;
    double w = static_cast<double>(block.rows) /
               static_cast<double>(surviving_rows);
    for (int i = 0; i < num_treatments; ++i) {
      out->total[i].rows += block.t_rows[i];
      for (int o = 0; o < num_outcomes; ++o) {
        out->total[i].means[o] += w * block.t_means[i][o];
      }
    }
  }
  return Status::Ok();
}

// The mediator formula (Eq. 3) over one context, binary treatment, from
// the context engine's counts.
Status ComputeDirect(
    CountEngine& engine, const Table& table, int treatment,
    const std::vector<int>& covariates, const std::vector<int>& mediators,
    const std::vector<int>& outcomes,
    const std::vector<std::pair<int32_t, std::string>>& treatments,
    int reference_slot, ContextRewrite* out) {
  const int num_outcomes = static_cast<int>(outcomes.size());
  const int32_t ref_code = treatments[reference_slot].first;

  // E[Y | T = t, M = m] for every observed (t, m).
  std::vector<int> tm_cols = {treatment};
  tm_cols.insert(tm_cols.end(), mediators.begin(), mediators.end());
  HYPDB_ASSIGN_OR_RETURN(GroupedAverages tm,
                         AverageBy(engine, table, tm_cols, outcomes));
  std::vector<int> m_positions;
  for (size_t i = 1; i < tm_cols.size(); ++i) {
    m_positions.push_back(static_cast<int>(i));
  }
  TupleCodec m_codec = tm.codec.Project(m_positions);
  // mean_of[t_code] : m_key -> means.
  std::map<int32_t, std::unordered_map<uint64_t, const std::vector<double>*>>
      mean_of;
  std::vector<int32_t> m_codes(m_positions.size());
  for (int g = 0; g < tm.NumGroups(); ++g) {
    int32_t t_code = tm.codec.DecodeAt(tm.keys[g], 0);
    for (size_t i = 0; i < m_positions.size(); ++i) {
      m_codes[i] = tm.codec.DecodeAt(tm.keys[g], m_positions[i]);
    }
    mean_of[t_code][m_codec.EncodeCodes(m_codes)] = &tm.means[g];
  }

  // Joint counts over (T, M..., Z...) for Pr(m | t_ref, z) and Pr(z). A
  // column that is both a mediator and a covariate is counted once (the
  // engine caches only distinct-column queries), at its last occurrence:
  // keys compare most-significant-last, so the groups come in the order
  // of the full (T, M..., Z...) tuple, which fixes the float summation
  // order below.
  std::vector<int> tmz_cols = tm_cols;
  tmz_cols.insert(tmz_cols.end(), covariates.begin(), covariates.end());
  std::vector<int> joint_cols;
  for (size_t i = 0; i < tmz_cols.size(); ++i) {
    if (std::find(tmz_cols.begin() + i + 1, tmz_cols.end(), tmz_cols[i]) ==
        tmz_cols.end()) {
      joint_cols.push_back(tmz_cols[i]);
    }
  }
  auto joint_position = [&joint_cols](int col) {
    return static_cast<int>(
        std::find(joint_cols.begin(), joint_cols.end(), col) -
        joint_cols.begin());
  };
  std::vector<int> m_positions2;
  for (int m : mediators) m_positions2.push_back(joint_position(m));
  std::vector<int> z_positions;
  for (int z : covariates) z_positions.push_back(joint_position(z));
  HYPDB_ASSIGN_OR_RETURN(GroupCounts tmz, engine.Counts(joint_cols));
  TupleCodec z_codec = tmz.codec.Project(z_positions);

  std::unordered_map<uint64_t, int64_t> z_count;          // all treatments
  std::unordered_map<uint64_t, int64_t> ref_z_count;      // T = ref
  struct Term {
    uint64_t z_key, m_key;
    int64_t ref_zm_count;
  };
  std::vector<Term> terms;
  std::vector<int32_t> codes;
  for (size_t g = 0; g < tmz.keys.size(); ++g) {
    uint64_t key = tmz.keys[g];
    codes.assign(z_positions.size(), 0);
    for (size_t i = 0; i < z_positions.size(); ++i) {
      codes[i] = tmz.codec.DecodeAt(key, z_positions[i]);
    }
    uint64_t z_key = z_codec.EncodeCodes(codes);
    z_count[z_key] += tmz.counts[g];
    int32_t t_code = tmz.codec.DecodeAt(key, 0);
    if (t_code != ref_code) continue;
    ref_z_count[z_key] += tmz.counts[g];
    codes.assign(m_positions2.size(), 0);
    for (size_t i = 0; i < m_positions2.size(); ++i) {
      codes[i] = tmz.codec.DecodeAt(key, m_positions2[i]);
    }
    // Keyed under the averages' codec, which mean_of is keyed by.
    terms.push_back(Term{z_key, m_codec.EncodeCodes(codes), tmz.counts[g]});
  }

  // Σ_{z,m} E[Y|t,m] · Pr(m|t_ref,z) · Pr(z), skipping (z,m) terms where
  // either counterfactual mean is unobserved (the exact-matching analog)
  // and renormalizing the weights over the used terms.
  const double n = static_cast<double>(engine.NumRows());
  out->direct_blocks_seen = static_cast<int64_t>(terms.size());
  out->direct.clear();
  for (const auto& [code, label] : treatments) {
    AdjustedGroup group;
    group.treatment_label = label;
    group.means.assign(num_outcomes, 0.0);
    out->direct.push_back(std::move(group));
  }

  double used_weight = 0.0;
  std::vector<std::vector<double>> sums(
      treatments.size(), std::vector<double>(num_outcomes, 0.0));
  for (const Term& term : terms) {
    bool usable = true;
    for (const auto& [code, label] : treatments) {
      auto it = mean_of.find(code);
      if (it == mean_of.end() || it->second.count(term.m_key) == 0) {
        usable = false;
        break;
      }
    }
    if (!usable) continue;
    ++out->direct_blocks_used;
    double pr_z = static_cast<double>(z_count[term.z_key]) / n;
    double pr_m_given =
        static_cast<double>(term.ref_zm_count) /
        static_cast<double>(ref_z_count[term.z_key]);
    double w = pr_z * pr_m_given;
    used_weight += w;
    for (size_t i = 0; i < treatments.size(); ++i) {
      const std::vector<double>& means =
          *mean_of[treatments[i].first][term.m_key];
      for (int o = 0; o < num_outcomes; ++o) {
        sums[i][o] += w * means[o];
      }
    }
  }
  if (used_weight > 0.0) {
    for (size_t i = 0; i < treatments.size(); ++i) {
      for (int o = 0; o < num_outcomes; ++o) {
        out->direct[i].means[o] = sums[i][o] / used_weight;
      }
      out->direct[i].rows = out->direct_blocks_used;
    }
  }
  out->has_direct = true;
  out->direct_reference = treatments[reference_slot].second;
  return Status::Ok();
}

}  // namespace

double ContextRewrite::Difference(const std::string& t1,
                                  const std::string& t0, int outcome_idx,
                                  bool total_effect) const {
  const std::vector<AdjustedGroup>& groups = total_effect ? total : direct;
  const AdjustedGroup* g1 = nullptr;
  const AdjustedGroup* g0 = nullptr;
  for (const auto& g : groups) {
    if (g.treatment_label == t1) g1 = &g;
    if (g.treatment_label == t0) g0 = &g;
  }
  if (g1 == nullptr || g0 == nullptr) return std::nan("");
  return g1->means[outcome_idx] - g0->means[outcome_idx];
}

StatusOr<ContextRewrite> RewriteContextAndEstimate(
    const TablePtr& table, const BoundQuery& bound, const Context& ctx,
    const std::vector<std::pair<int32_t, std::string>>& treatments,
    const std::vector<int>& covariates, const std::vector<int>& mediators,
    const RewriterOptions& options, uint64_t sig_seed,
    const std::shared_ptr<CountEngine>& engine,
    CountEngineStats* count_stats) {
  ContextRewrite rewrite;
  rewrite.context_labels = ctx.labels;
  rewrite.rows = ctx.view.NumRows();

  if (treatments.size() < 2) {
    // Nothing to compare in this context; report it empty.
    return rewrite;
  }

  // One count engine serves both formulas and the significance tests:
  // the blocks' (T, Z, Y) counts are exactly what I(T;Y|Z) needs.
  CountEngine& counts = *engine;
  const CountEngineStats stats_before = counts.stats();
  HYPDB_RETURN_IF_ERROR(ComputeTotal(counts, *table, bound.treatment,
                                     covariates, bound.outcomes, treatments,
                                     &rewrite));

  if (options.compute_direct && treatments.size() == 2) {
    int reference_slot = static_cast<int>(treatments.size()) - 1;
    if (!options.direct_reference.empty()) {
      for (size_t i = 0; i < treatments.size(); ++i) {
        if (treatments[i].second == options.direct_reference) {
          reference_slot = static_cast<int>(i);
        }
      }
    }
    HYPDB_RETURN_IF_ERROR(ComputeDirect(counts, *table, bound.treatment,
                                        covariates, mediators, bound.outcomes,
                                        treatments, reference_slot,
                                        &rewrite));
  }

  if (options.compute_significance) {
    MiEngine mi(engine, MiEngineOptions{.estimator = options.estimator});
    CiTester tester(&mi, options.ci, sig_seed);
    for (int y : bound.outcomes) {
      std::vector<int> z_total;
      for (int c : covariates) {
        if (c != y) z_total.push_back(c);
      }
      std::vector<int> z_direct = z_total;
      for (int m : mediators) {
        if (m != y &&
            std::find(z_direct.begin(), z_direct.end(), m) ==
                z_direct.end()) {
          z_direct.push_back(m);
        }
      }
      HYPDB_ASSIGN_OR_RETURN(
          CiResult plain, tester.TestSets({bound.treatment}, {y}, {}));
      rewrite.plain_sig.push_back(plain);
      HYPDB_ASSIGN_OR_RETURN(
          CiResult total_sig,
          tester.TestSets({bound.treatment}, {y}, z_total));
      rewrite.total_sig.push_back(total_sig);
      if (rewrite.has_direct) {
        HYPDB_ASSIGN_OR_RETURN(
            CiResult direct_sig,
            tester.TestSets({bound.treatment}, {y}, z_direct));
        rewrite.direct_sig.push_back(direct_sig);
      }
    }
  }
  if (count_stats != nullptr) *count_stats += counts.stats() - stats_before;
  return rewrite;
}

}  // namespace hypdb
