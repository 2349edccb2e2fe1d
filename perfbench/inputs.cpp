#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "seq/alphabet.hpp"
#include "seq/family_model.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace gpclust;

namespace {

constexpr double kUnrelatedQueryShare = 0.30;
constexpr double kQueryMutationRate = 0.12;
constexpr double kQueryMinFraction = 0.50;
constexpr double kZipfExponent = 1.0;

std::string random_protein(util::Xoshiro256& rng, std::size_t length) {
  std::string s(length, 'A');
  for (char& c : s) c = seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
  return s;
}

template <typename T>
void shuffle(std::vector<T>& items, util::Xoshiro256& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
}

/// A point-mutated fragment covering [kQueryMinFraction, 1] of `source`.
std::string query_fragment(const std::string& source, util::Xoshiro256& rng) {
  const double fraction =
      kQueryMinFraction + rng.next_double() * (1.0 - kQueryMinFraction);
  const std::size_t len = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction * static_cast<double>(source.size())));
  std::string out = source.substr(rng.next_below(source.size() - len + 1), len);
  for (char& c : out) {
    if (rng.next_double() < kQueryMutationRate) {
      c = seq::kResidues[rng.next_below(seq::kNumStandardResidues)];
    }
  }
  return out;
}

struct FamilyPlan {
  std::size_t members = 0;
  std::size_t length = 0;  ///< ancestor residues
  u32 by_rank = 0;         ///< the family at popularity rank (this index)
};

/// Fractional part of (i + 0.5) * step: a low-discrepancy point in [0, 1).
double spread(std::size_t i, double step) {
  const double x = (static_cast<double>(i) + 0.5) * step;
  return x - std::floor(x);
}

/// Family i's size is the model's truncated Pareto at quantile
/// (i + 0.5) / n; ancestor lengths and popularity ranks are spread over
/// their ranges by low-discrepancy sequences. None depends on the seed.
std::vector<FamilyPlan> plan_families(std::size_t n,
                                      const seq::FamilyModelConfig& model) {
  std::vector<FamilyPlan> plan(n);
  const std::size_t lengths =
      model.max_ancestor_length - model.min_ancestor_length + 1;
  std::vector<std::pair<double, u32>> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    const auto members = static_cast<std::size_t>(
        static_cast<double>(model.min_members) *
        std::pow(1.0 - u, -1.0 / model.pareto_alpha));
    plan[i].members = std::clamp(members, model.min_members, model.max_members);
    plan[i].length = model.min_ancestor_length +
                     static_cast<std::size_t>(spread(i, 0.6180339887498949) *
                                              static_cast<double>(lengths));
    order[i] = {spread(i, 0.4142135623730950), static_cast<u32>(i)};
  }
  std::sort(order.begin(), order.end());
  for (std::size_t r = 0; r < n; ++r) plan[r].by_rank = order[r].second;
  return plan;
}

}  // namespace

Inputs make_inputs(const InputShape& shape, u64 seed) {
  GPCLUST_CHECK(shape.families >= 2, "need at least two families");
  const seq::FamilyModelConfig model;  // the --demo-orfs family model

  // Every seed plants the same family sizes, lengths and popularity ranks
  // and splits each family between base and tail in the same proportion;
  // the seed draws only the sequences and which members land where. Free
  // draws swing the ORF count, the base's family sizes and the cost of
  // the most popular family, and with them every timing, by 5-20%
  // between seeds.
  const std::vector<FamilyPlan> plan = plan_families(shape.families, model);
  const auto planted = static_cast<u32>(plan.size());
  util::Xoshiro256 rng(util::mix64(seed));
  std::vector<std::pair<seq::ProteinSequence, u32>> base;
  std::vector<std::pair<seq::ProteinSequence, u32>> tail;
  auto split = [&](std::vector<std::pair<seq::ProteinSequence, u32>> group) {
    shuffle(group, rng);
    const auto to_base = static_cast<std::size_t>(
        std::lround(shape.base_fraction * static_cast<double>(group.size())));
    for (std::size_t i = 0; i < group.size(); ++i) {
      (i < to_base ? base : tail).push_back(std::move(group[i]));
    }
  };
  for (u32 f = 0; f < planted; ++f) {
    seq::FamilyModelConfig cfg = model;
    cfg.num_families = 1;
    cfg.min_members = cfg.max_members = plan[f].members;
    cfg.min_ancestor_length = cfg.max_ancestor_length = plan[f].length;
    cfg.seed = util::mix64(seed ^ util::mix64(f + 1));
    std::vector<std::pair<seq::ProteinSequence, u32>> group;
    for (seq::ProteinSequence& s : seq::generate_metagenome(cfg).sequences) {
      group.emplace_back(std::move(s), f);
    }
    split(std::move(group));
  }
  std::vector<std::pair<seq::ProteinSequence, u32>> background;
  for (u32 b = 0; b < 2 * planted; ++b) {
    seq::ProteinSequence s;
    s.residues = random_protein(rng, model.background_length);
    background.emplace_back(std::move(s), planted + b);
  }
  split(std::move(background));
  shuffle(base, rng);
  shuffle(tail, rng);

  Inputs in;
  for (auto& [orf, family] : base) {
    orf.id = "orf" + std::to_string(in.base.size());
    in.base.push_back(std::move(orf));
    in.base_family.push_back(family);
  }
  for (auto& [orf, family] : tail) {
    orf.id = "orf" + std::to_string(in.base.size() + in.tail.size());
    in.tail.push_back(std::move(orf));
  }

  // Related queries pick a planted family by Zipf-skewed abundance over
  // the popularity ranks, then a stored member of it.
  std::vector<std::vector<u32>> members(planted);
  for (std::size_t i = 0; i < in.base.size(); ++i) {
    if (in.base_family[i] < planted) {
      members[in.base_family[i]].push_back(static_cast<u32>(i));
    }
  }
  std::vector<u32> ranked;
  for (const FamilyPlan& p : plan) {
    if (!members[p.by_rank].empty()) ranked.push_back(p.by_rank);
  }
  std::vector<double> cdf(ranked.size());
  double total = 0.0;
  for (std::size_t r = 0; r < ranked.size(); ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
    cdf[r] = total;
  }
  for (std::size_t q = 0; q < shape.query_pool; ++q) {
    if (rng.next_double() < kUnrelatedQueryShare) {
      in.queries.push_back(random_protein(
          rng, model.min_ancestor_length +
                   rng.next_below(model.max_ancestor_length -
                                  model.min_ancestor_length + 1)));
      in.query_related.push_back(0);
      continue;
    }
    const double u = rng.next_double() * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    const auto& family = members[ranked[std::min(rank, ranked.size() - 1)]];
    const u32 member = family[rng.next_below(family.size())];
    in.queries.push_back(query_fragment(in.base[member].residues, rng));
    in.query_related.push_back(1);
  }
  return in;
}

}  // namespace perfbench
