#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

namespace hadas::supernet {

/// Number of MBConv stages in the AttentiveNAS-style space (Table II:
/// n_block = 7).
inline constexpr std::size_t kNumStages = 7;

/// Per-stage choice lists of the supernet. A concrete backbone picks one
/// value from each list (plus a depth = number of repeated layers).
struct StageSpec {
  std::string name;
  std::vector<int> widths;   ///< output channel choices
  std::vector<int> depths;   ///< layer-count choices
  std::vector<int> kernels;  ///< depthwise kernel-size choices
  std::vector<int> expands;  ///< expansion-ratio choices
  int stride = 1;            ///< stride of the first layer in the stage
  bool use_se = false;       ///< squeeze-and-excitation in this stage
};

/// The full search space: resolution + stem + 7 stages + final 1x1 conv.
/// Mirrors the AttentiveNAS space the paper reuses (Table II, ~2.9e11
/// candidates).
struct SearchSpace {
  std::vector<int> resolutions;
  std::vector<int> stem_widths;
  std::array<StageSpec, kNumStages> stages;
  std::vector<int> last_widths;
  int num_classes = 100;

  /// The AttentiveNAS-like default space used in all experiments.
  static SearchSpace attentive_nas(int num_classes = 100);

  /// An OFA / MobileNetV3-flavored space (kernels up to 7, expansion ratios
  /// {3,4,6}, lower resolutions, uniform depth choices) — demonstrating the
  /// paper's compatibility claim: HADAS runs unchanged on any supernet
  /// family expressible as per-stage choice lists (Once-for-All [15]).
  static SearchSpace once_for_all(int num_classes = 100);

  /// The space a CLI name selects ("attentive" | "ofa"); throws
  /// std::invalid_argument on any other name.
  static SearchSpace named(const std::string& name);

  /// log10 of the total number of distinct backbone configurations.
  double log10_cardinality() const;

  /// Number of integer genes in the genome encoding.
  std::size_t genome_length() const;

  /// Cardinality (number of choices) of each gene, in genome order:
  /// [resolution, stem, (w,d,k,e) x 7, last].
  std::vector<std::size_t> gene_cardinalities() const;
};

}  // namespace hadas::supernet
