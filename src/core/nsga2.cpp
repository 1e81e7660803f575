#include "core/nsga2.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_map>

namespace hadas::core {

void Problem::repair(IntGenome&, hadas::util::Rng&) const {}

IntGenome Problem::random_genome(hadas::util::Rng& rng) const {
  const auto card = gene_cardinalities();
  IntGenome g(card.size());
  for (std::size_t i = 0; i < card.size(); ++i) {
    if (card[i] == 0) throw std::logic_error("Problem: zero-cardinality gene");
    g[i] = static_cast<std::int32_t>(rng.uniform_index(card[i]));
  }
  repair(g, rng);
  return g;
}

void uniform_crossover(const IntGenome& a, const IntGenome& b, IntGenome& child1,
                       IntGenome& child2, hadas::util::Rng& rng) {
  if (a.size() != b.size())
    throw std::invalid_argument("uniform_crossover: length mismatch");
  child1 = a;
  child2 = b;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (rng.bernoulli(0.5)) std::swap(child1[i], child2[i]);
  }
}

void reset_mutation(IntGenome& genome, const std::vector<std::size_t>& cardinalities,
                    double per_gene_prob, hadas::util::Rng& rng) {
  if (genome.size() != cardinalities.size())
    throw std::invalid_argument("reset_mutation: length mismatch");
  for (std::size_t i = 0; i < genome.size(); ++i) {
    if (cardinalities[i] <= 1 || !rng.bernoulli(per_gene_prob)) continue;
    // Spec v2: draw from the card-1 values that are NOT the current one and
    // shift past it. One variate with the exact excluding-uniform
    // distribution — the old resample-until-different loop drew an unbounded
    // number of variates, making mutation cost (and the seeded RNG stream
    // length) depend on gene cardinality. Perturbs seeded streams relative
    // to spec v1 runs.
    auto value =
        static_cast<std::int32_t>(rng.uniform_index(cardinalities[i] - 1));
    if (value >= genome[i]) ++value;
    genome[i] = value;
  }
}

namespace {

/// FNV-1a over the genome's int32 values; keys the evaluation memo (the old
/// std::map cost a full lexicographic genome comparison per tree level).
struct GenomeHash {
  std::size_t operator()(const IntGenome& g) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::int32_t v : g) {
      h ^= static_cast<std::uint32_t>(v);
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

std::vector<Objectives> objectives_of(const std::vector<Individual>& population) {
  std::vector<Objectives> points;
  points.reserve(population.size());
  for (const auto& ind : population) points.push_back(ind.objectives);
  return points;
}

}  // namespace

std::vector<Individual> select_by_rank_crowding(std::vector<Individual> candidates,
                                                std::size_t target) {
  if (candidates.size() <= target) return candidates;
  // Whole fronts while they fit, then the most crowding-distant members of
  // the cut front. Survivors are listed front-major, ascending index within
  // each front (the cut front included): the order the golden fingerprints
  // pin.
  const auto points = objectives_of(candidates);
  std::vector<std::size_t> keep;
  keep.reserve(target);
  for (const auto& front : non_dominated_sort(points)) {
    if (keep.size() + front.size() <= target) {
      keep.insert(keep.end(), front.begin(), front.end());
      if (keep.size() == target) break;
    } else {
      const auto dist = crowding_distance(points, front);
      std::vector<std::size_t> order(front.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
      std::vector<std::size_t> cut;
      for (std::size_t i = 0; keep.size() + cut.size() < target; ++i)
        cut.push_back(front[order[i]]);
      std::sort(cut.begin(), cut.end());
      keep.insert(keep.end(), cut.begin(), cut.end());
      break;
    }
  }
  std::vector<Individual> selected;
  selected.reserve(target);
  for (std::size_t idx : keep) selected.push_back(std::move(candidates[idx]));
  return selected;
}

Nsga2Result Nsga2::run(Problem& problem) {
  if (config_.population < 2) throw std::invalid_argument("Nsga2: population < 2");
  hadas::util::Rng rng(config_.seed);
  const auto cardinalities = problem.gene_cardinalities();
  const double mut_prob = config_.mutation_prob > 0.0
                              ? config_.mutation_prob
                              : 1.0 / static_cast<double>(cardinalities.size());

  Nsga2Result result;
  std::unordered_map<IntGenome, Objectives, GenomeHash> cache;
  ParetoArchive archive;

  auto evaluate = [&](const IntGenome& genome) -> Objectives {
    ++result.evaluations;
    auto it = cache.find(genome);
    if (it != cache.end()) return it->second;
    Objectives obj = problem.evaluate(genome);
    cache.emplace(genome, obj);
    result.history.push_back({genome, obj});
    archive.insert(obj, result.history.size() - 1);
    return obj;
  };

  // Parents occupy [0, mu); each generation appends mu offspring, then the
  // elitist selection truncates parents + offspring back to mu.
  std::vector<Individual> population;
  population.reserve(2 * config_.population);

  // Initial population: warm seeds first (repaired), then random fill. An
  // empty seed list reproduces the historical fully random cold start.
  for (std::size_t i = 0; i < config_.population; ++i) {
    IntGenome genome;
    if (i < config_.initial_population.size()) {
      genome = config_.initial_population[i];
      if (genome.size() != cardinalities.size())
        throw std::invalid_argument("Nsga2: seed genome length mismatch");
      problem.repair(genome, rng);
    } else {
      genome = problem.random_genome(rng);
    }
    Objectives obj = evaluate(genome);
    population.push_back({std::move(genome), std::move(obj)});
  }

  auto record_stats = [&](std::size_t gen, const std::vector<Objectives>& points,
                          const std::vector<std::size_t>& front) {
    GenerationStats stats;
    stats.generation = gen;
    const std::size_t dims = points.front().size();
    const std::size_t n = points.size();
    stats.best.assign(dims, -std::numeric_limits<double>::infinity());
    stats.mean.assign(dims, 0.0);
    for (const auto& p : points) {
      for (std::size_t k = 0; k < dims; ++k) {
        stats.best[k] = std::max(stats.best[k], p[k]);
        stats.mean[k] += p[k] / static_cast<double>(n);
      }
    }
    stats.front_size = front.size();
    if (config_.hv_reference.size() == dims) {
      std::vector<Objectives> front_points;
      front_points.reserve(front.size());
      for (std::size_t idx : front) front_points.push_back(points[idx]);
      stats.hypervolume = hypervolume(front_points, config_.hv_reference);
    }
    result.generations.push_back(std::move(stats));
  };

  for (std::size_t gen = 0; gen < config_.generations; ++gen) {
    const auto points = objectives_of(population);
    const auto fronts = non_dominated_sort(points);
    record_stats(gen, points, fronts.front());
    if (observer_) observer_(gen, population);

    // Parent (rank, crowding) for tournament selection.
    const std::size_t mu = population.size();
    std::vector<std::size_t> rank(mu);
    std::vector<double> crowding(mu);
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      const auto dist = crowding_distance(points, fronts[f]);
      for (std::size_t i = 0; i < fronts[f].size(); ++i) {
        rank[fronts[f][i]] = f;
        crowding[fronts[f][i]] = dist[i];
      }
    }

    auto tournament = [&]() -> std::size_t {
      const std::size_t a = rng.uniform_index(mu);
      const std::size_t b = rng.uniform_index(mu);
      if (rank[a] != rank[b]) return rank[a] < rank[b] ? a : b;
      return crowding[a] >= crowding[b] ? a : b;
    };

    // Offspring generation (lambda = mu), appended after the parents.
    std::size_t produced = 0;
    IntGenome c1, c2;
    while (produced < config_.population) {
      const std::size_t p1 = tournament();
      const std::size_t p2 = tournament();
      if (rng.bernoulli(config_.crossover_prob)) {
        uniform_crossover(population[p1].genome, population[p2].genome, c1, c2,
                          rng);
      } else {
        c1 = population[p1].genome;
        c2 = population[p2].genome;
      }
      for (IntGenome* child : {&c1, &c2}) {
        if (produced == config_.population) break;
        reset_mutation(*child, cardinalities, mut_prob, rng);
        problem.repair(*child, rng);
        Objectives obj = evaluate(*child);
        population.push_back({*child, std::move(obj)});
        ++produced;
      }
    }

    // Elitist (mu + lambda) environmental selection over parents + offspring.
    population = select_by_rank_crowding(std::move(population), config_.population);
  }
  const auto points = objectives_of(population);
  record_stats(config_.generations, points, non_dominated_sort(points).front());
  if (observer_) observer_(config_.generations, population);

  // Final front: non-dominated subset of everything evaluated.
  for (std::size_t payload : archive.payloads())
    result.front.push_back(result.history[payload]);
  result.final_population = std::move(population);
  return result;
}

}  // namespace hadas::core
