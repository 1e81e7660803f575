#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "data/synthetic_task.hpp"
#include "dynn/exit_placement.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"
#include "supernet/cost_model.hpp"

namespace hadas::exec {
class ParallelDispatcher;
}

namespace hadas::dynn {

/// Training configuration for one backbone's exit bank.
struct ExitBankConfig {
  std::size_t head_hidden = 0;  ///< hidden width of exit heads (0 = linear)
  nn::TrainConfig train;        ///< optimizer settings (eq. 4 hybrid loss)
  std::uint64_t seed = 7;
};

/// One trained exit: its measured quality and per-sample behaviour.
struct TrainedExit {
  std::size_t layer = 0;        ///< MBConv layer index it taps
  double depth_fraction = 0.0;  ///< fraction of backbone MACs consumed there
  double val_accuracy = 0.0;    ///< N_i measured on the validation split
  std::vector<bool> val_correct;
  std::vector<bool> test_correct;
  std::vector<double> val_entropy;    ///< normalized prediction entropy/sample
  std::vector<double> test_entropy;
  std::vector<double> test_max_prob;  ///< max softmax probability/sample
};

/// Architecture sensitivity of a tap: how much better (or worse) than the
/// backbone's global feature quality a tap at this layer is for an exit
/// head. Channel-rich and aggressively-downsampled taps carry more
/// class-discriminative global information than wide/spatially-large ones at
/// the same compute fraction. This is what makes exit quality depend on the
/// backbone's *architecture* (depth distribution, widths, resolution) and
/// not just its capacity — the paper's premise that backbones designed for
/// static inference are not automatically good dynamic backbones.
/// Returns a multiplier in [0.5, 1.4] applied to the backbone separability.
double tap_quality_multiplier(const supernet::LayerCost& tap,
                              double depth_fraction);

/// Resolution-dependent semantic emergence: models processing larger inputs
/// spend a larger fraction of their depth on low-level spatial aggregation
/// (receptive-field growth) before class-level features emerge, so a tap at
/// compute fraction t of a high-resolution backbone "sees" features of an
/// effectively shallower depth. Returns the effective depth fraction,
/// t^stretch with stretch = 1 at 192px growing with log2(res/192); the full
/// depth (t = 1) is unaffected, so backbone accuracy calibration holds.
/// This is the mechanism behind the paper's observation that the
/// high-resolution a6 gains little from early exiting (Table III) while
/// co-designed lower-resolution backbones gain a lot.
double effective_depth_fraction(double depth_fraction, int input_resolution);

/// All trained exit heads of one backbone — the per-backbone step the paper
/// runs on a 32-GPU cluster when a backbone b' is handed to an IOE: every
/// eligible exit position gets a head, trained with the frozen backbone's
/// features and the hybrid NLL + KD loss of eq. (4) (the teacher being the
/// backbone's own final classifier). The IOE then evaluates placements
/// against these measured exits without further training.
class ExitBank {
 public:
  /// Trains the final (teacher) head and every eligible exit head.
  /// `separability` is the backbone's feature quality (see
  /// data::separability_from_accuracy). With a `dispatcher` the exit heads
  /// are fitted concurrently on its pool (the teacher always trains first);
  /// without one they are fitted inline. Every head draws its init weights
  /// and shuffle seed from the bank Rng serially before any fit starts, so
  /// the bank is bit-identical either way and at any thread count.
  ExitBank(const data::SyntheticTask& task, const supernet::NetworkCost& cost,
           double separability, const ExitBankConfig& config,
           const exec::ParallelDispatcher* dispatcher = nullptr);

  std::size_t total_layers() const { return total_layers_; }

  /// True if `layer` has a trained exit head (the eligible range).
  bool has_exit(std::size_t layer) const;

  /// The trained exit at an eligible layer. Throws otherwise.
  const TrainedExit& exit_at(std::size_t layer) const;

  /// The backbone's own final classifier ("exit M"), trained at full depth
  /// without KD — it is the teacher for all exit heads.
  const TrainedExit& final_exit() const { return final_; }

  /// Backbone static accuracy as measured (final head, validation split).
  double backbone_accuracy() const { return final_.val_accuracy; }

  /// All eligible layers, ascending.
  std::vector<std::size_t> eligible_layers() const;

  /// Fraction of validation samples correctly classified by at least one of
  /// the given exits or the final classifier — dynamic accuracy under the
  /// ideal (oracle) input-to-exit mapping.
  double oracle_accuracy(const std::vector<std::size_t>& exit_layers) const;

 private:
  std::size_t total_layers_ = 0;
  std::size_t first_eligible_ = 0;
  std::vector<TrainedExit> exits_;  // index 0 = layer first_eligible_
  TrainedExit final_;
};

}  // namespace hadas::dynn
