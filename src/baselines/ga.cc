#include "baselines/ga.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace sparktune {

namespace {

constexpr int kPopulation = 40;
constexpr int kTournament = 3;
constexpr double kCrossoverRate = 0.9;
constexpr double kMutationRate = 0.1;   // per-gene probability
constexpr double kMutationSigma = 0.15;  // gaussian step in unit space

}  // namespace

GeneticAlgorithm::GeneticAlgorithm(GaOptions options) : options_(options) {}

Configuration GeneticAlgorithm::Minimize(
    const ConfigSpace& space, const FitnessFn& fitness, Rng* rng,
    const std::vector<Configuration>& seeds) const {
  struct Individual {
    std::vector<double> genes;  // unit cube
    double fitness;
  };
  size_t dims = space.size();

  auto evaluate = [&](const std::vector<double>& genes) {
    return fitness(space.FromUnit(genes));
  };

  std::vector<Individual> pop;
  pop.reserve(kPopulation);
  for (const auto& seed : seeds) {
    if (static_cast<int>(pop.size()) >= kPopulation) break;
    Individual ind;
    ind.genes = space.ToUnit(seed);
    ind.fitness = evaluate(ind.genes);
    pop.push_back(std::move(ind));
  }
  while (static_cast<int>(pop.size()) < kPopulation) {
    Individual ind;
    ind.genes.resize(dims);
    for (auto& g : ind.genes) g = rng->Uniform();
    ind.fitness = evaluate(ind.genes);
    pop.push_back(std::move(ind));
  }

  auto tournament_select = [&]() -> const Individual& {
    int best = static_cast<int>(rng->UniformInt(0, kPopulation - 1));
    for (int i = 1; i < kTournament; ++i) {
      int cand = static_cast<int>(rng->UniformInt(0, kPopulation - 1));
      if (pop[static_cast<size_t>(cand)].fitness <
          pop[static_cast<size_t>(best)].fitness) {
        best = cand;
      }
    }
    return pop[static_cast<size_t>(best)];
  };

  for (int gen = 0; gen < options_.generations; ++gen) {
    std::sort(pop.begin(), pop.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness < b.fitness;
              });
    std::vector<Individual> next;
    next.reserve(pop.size());
    for (int e = 0; e < options_.elites && e < static_cast<int>(pop.size());
         ++e) {
      next.push_back(pop[static_cast<size_t>(e)]);
    }
    while (static_cast<int>(next.size()) < kPopulation) {
      const Individual& a = tournament_select();
      const Individual& b = tournament_select();
      Individual child;
      child.genes.resize(dims);
      bool cross = rng->Bernoulli(kCrossoverRate);
      for (size_t d = 0; d < dims; ++d) {
        child.genes[d] = (cross && rng->Bernoulli(0.5)) ? b.genes[d]
                                                        : a.genes[d];
        if (rng->Bernoulli(kMutationRate)) {
          child.genes[d] = std::clamp(
              child.genes[d] + rng->Normal(0.0, kMutationSigma), 0.0, 1.0);
        }
      }
      child.fitness = evaluate(child.genes);
      next.push_back(std::move(child));
    }
    pop = std::move(next);
  }

  const Individual* best = &pop[0];
  for (const auto& ind : pop) {
    if (ind.fitness < best->fitness) best = &ind;
  }
  return space.FromUnit(best->genes);
}

}  // namespace sparktune
