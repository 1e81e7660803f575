#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exec/eval_cache.hpp"
#include "supernet/backbone.hpp"

namespace hadas::supernet {

/// Role of a layer in the network graph.
enum class LayerKind { kStem, kMbConv, kHead };

/// Cost record of one layer. All compute is in MACs (multiply-accumulates);
/// memory traffic is in bytes and approximates reads of input activations and
/// weights plus writes of output activations (fp32).
struct LayerCost {
  std::string name;
  LayerKind kind = LayerKind::kMbConv;
  std::size_t stage = 0;        ///< stage index for MBConv layers (0-based)
  std::size_t layer_in_stage = 0;
  double macs = 0.0;
  double params = 0.0;
  double traffic_bytes = 0.0;
  int out_size = 0;             ///< output spatial size (square feature map)
  int out_channels = 0;
};

/// Full per-layer cost breakdown of a backbone, with the cumulative views the
/// exit machinery needs (cost of running the network *up to* a given MBConv
/// layer).
struct NetworkCost {
  std::vector<LayerCost> layers;          ///< stem, MBConv layers, head
  std::vector<std::size_t> mbconv_index;  ///< indices of MBConv layers in `layers`

  int input_resolution = 0;               ///< the backbone's input size
  double total_macs = 0.0;
  double total_params = 0.0;
  double total_traffic_bytes = 0.0;

  std::size_t num_mbconv_layers() const { return mbconv_index.size(); }

  /// MACs of stem + MBConv layers 0..i inclusive (no head).
  double macs_through_layer(std::size_t i) const;

  /// Traffic of stem + MBConv layers 0..i inclusive (no head).
  double traffic_through_layer(std::size_t i) const;

  /// Fraction of total MACs consumed by stem + layers 0..i inclusive; this
  /// is the "depth fraction" the synthetic task uses for feature quality.
  double depth_fraction(std::size_t i) const;

  /// The MBConv layer record at position i (0-based over all stage layers).
  const LayerCost& mbconv_layer(std::size_t i) const;
};

/// Analytic cost model for AttentiveNAS-style subnets: exact MAC/param
/// arithmetic for the stem conv, every MBConv layer (expand 1x1 -> depthwise
/// kxk -> optional squeeze-and-excitation -> project 1x1), and the
/// final-conv + pool + classifier head.
class CostModel {
 public:
  explicit CostModel(SearchSpace space) : space_(std::move(space)) {}

  const SearchSpace& space() const { return space_; }

  /// Per-layer cost breakdown of a concrete backbone.
  NetworkCost analyze(const BackboneConfig& config) const;

 private:
  SearchSpace space_;
};

/// Memoizing facade over CostModel::analyze, keyed by genome hash. The
/// same backbone is analyzed by the static evaluator, the exit-bank
/// builder and the cost-table builder; routing them through one
/// CachedCostModel collapses those repeats (within a run and across
/// warm-started runs) into a single analysis. Thread-safe: analyses run
/// outside the exec::EvalCache lock, so concurrent searches only serialize
/// on the map lookup.
class CachedCostModel {
 public:
  explicit CachedCostModel(const CostModel& model) : model_(&model) {}

  const CostModel& model() const { return *model_; }

  /// Cached per-layer cost breakdown (computes on first sight; the
  /// reference lives as long as this model).
  const NetworkCost& analyze(const BackboneConfig& config) const;

  exec::CacheStats stats() const { return cache_.stats(); }

 private:
  const CostModel* model_;
  mutable exec::EvalCache<NetworkCost> cache_;
};

}  // namespace hadas::supernet
