#include "supernet/search_space.hpp"

#include <cmath>
#include <stdexcept>

namespace hadas::supernet {

SearchSpace SearchSpace::attentive_nas(int num_classes) {
  SearchSpace space;
  space.num_classes = num_classes;
  space.resolutions = {192, 224, 256, 288};
  space.stem_widths = {16, 24};
  space.last_widths = {1792, 1984};
  space.stages = {{
      // name        widths                depths               kernels  expands    stride se
      {"mb1", {16, 24}, {1, 2}, {3, 5}, {1}, 1, false},
      {"mb2", {24, 32}, {3, 4, 5}, {3, 5}, {4, 5, 6}, 2, false},
      {"mb3", {32, 40}, {3, 4, 5, 6}, {3, 5}, {4, 5, 6}, 2, true},
      {"mb4", {64, 72}, {3, 4, 5, 6}, {3, 5}, {4, 5, 6}, 2, false},
      {"mb5", {112, 120, 128}, {3, 4, 5, 6, 7, 8}, {3, 5}, {4, 5, 6}, 1, true},
      {"mb6", {192, 200, 208, 216}, {3, 4, 5, 6, 7, 8}, {3, 5}, {6}, 2, true},
      {"mb7", {216, 224}, {1, 2}, {3, 5}, {6}, 1, true},
  }};
  return space;
}

SearchSpace SearchSpace::once_for_all(int num_classes) {
  SearchSpace space;
  space.num_classes = num_classes;
  space.resolutions = {160, 176, 192, 208};
  space.stem_widths = {16};
  space.last_widths = {1152, 1280};
  space.stages = {{
      // name        widths        depths     kernels    expands  stride se
      {"mb1", {16}, {1, 2}, {3}, {1}, 1, false},
      {"mb2", {24}, {2, 3, 4}, {3, 5, 7}, {3, 4, 6}, 2, false},
      {"mb3", {40}, {2, 3, 4}, {3, 5, 7}, {3, 4, 6}, 2, true},
      {"mb4", {80}, {2, 3, 4}, {3, 5, 7}, {3, 4, 6}, 2, false},
      {"mb5", {112}, {2, 3, 4}, {3, 5, 7}, {3, 4, 6}, 1, true},
      {"mb6", {160}, {2, 3, 4}, {3, 5, 7}, {3, 4, 6}, 2, true},
      {"mb7", {160, 176}, {1, 2}, {3, 5}, {6}, 1, true},
  }};
  return space;
}

SearchSpace SearchSpace::named(const std::string& name) {
  if (name == "attentive") return attentive_nas();
  if (name == "ofa") return once_for_all();
  throw std::invalid_argument("unknown search space '" + name +
                              "' (expected attentive | ofa)");
}

double SearchSpace::log10_cardinality() const {
  double log10 = std::log10(static_cast<double>(resolutions.size())) +
                 std::log10(static_cast<double>(stem_widths.size())) +
                 std::log10(static_cast<double>(last_widths.size()));
  for (const auto& stage : stages) {
    log10 += std::log10(static_cast<double>(stage.widths.size()));
    log10 += std::log10(static_cast<double>(stage.depths.size()));
    log10 += std::log10(static_cast<double>(stage.kernels.size()));
    log10 += std::log10(static_cast<double>(stage.expands.size()));
  }
  return log10;
}

std::size_t SearchSpace::genome_length() const {
  return 3 + 4 * kNumStages;  // resolution + stem + last + (w,d,k,e) per stage
}

std::vector<std::size_t> SearchSpace::gene_cardinalities() const {
  std::vector<std::size_t> card;
  card.reserve(genome_length());
  card.push_back(resolutions.size());
  card.push_back(stem_widths.size());
  for (const auto& stage : stages) {
    card.push_back(stage.widths.size());
    card.push_back(stage.depths.size());
    card.push_back(stage.kernels.size());
    card.push_back(stage.expands.size());
  }
  card.push_back(last_widths.size());
  return card;
}

}  // namespace hadas::supernet
