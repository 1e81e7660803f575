#include "supernet/cost_model.hpp"

#include <stdexcept>

namespace hadas::supernet {

namespace {
constexpr double kBytesPerValue = 4.0;  // fp32 activations and weights

int conv_out_size(int in_size, int stride) { return (in_size + stride - 1) / stride; }
}  // namespace

double NetworkCost::macs_through_layer(std::size_t i) const {
  if (i >= mbconv_index.size()) throw std::out_of_range("macs_through_layer");
  double acc = 0.0;
  for (std::size_t l = 0; l <= mbconv_index[i]; ++l) acc += layers[l].macs;
  return acc;
}

double NetworkCost::traffic_through_layer(std::size_t i) const {
  if (i >= mbconv_index.size()) throw std::out_of_range("traffic_through_layer");
  double acc = 0.0;
  for (std::size_t l = 0; l <= mbconv_index[i]; ++l) acc += layers[l].traffic_bytes;
  return acc;
}

double NetworkCost::depth_fraction(std::size_t i) const {
  return macs_through_layer(i) / total_macs;
}

const LayerCost& NetworkCost::mbconv_layer(std::size_t i) const {
  if (i >= mbconv_index.size()) throw std::out_of_range("mbconv_layer");
  return layers[mbconv_index[i]];
}

NetworkCost CostModel::analyze(const BackboneConfig& config) const {
  NetworkCost net;
  net.input_resolution = config.resolution;

  int size = config.resolution;
  int channels = 3;

  // Stem: 3x3 conv, stride 2.
  {
    LayerCost stem;
    stem.name = "stem";
    stem.kind = LayerKind::kStem;
    const int out_size = conv_out_size(size, 2);
    const double out_px = static_cast<double>(out_size) * out_size;
    stem.macs = out_px * 3.0 * 3.0 * channels * config.stem_width;
    stem.params = 9.0 * channels * config.stem_width + 2.0 * config.stem_width;
    stem.traffic_bytes =
        (static_cast<double>(size) * size * channels + out_px * config.stem_width) *
            kBytesPerValue +
        stem.params * kBytesPerValue;
    stem.out_size = out_size;
    stem.out_channels = config.stem_width;
    net.layers.push_back(stem);
    size = out_size;
    channels = config.stem_width;
  }

  // MBConv stages.
  for (std::size_t s = 0; s < kNumStages; ++s) {
    const StageConfig& st = config.stages[s];
    const StageSpec& spec = space_.stages[s];
    if (st.depth <= 0) throw std::invalid_argument("CostModel: non-positive depth");
    for (int layer = 0; layer < st.depth; ++layer) {
      const int stride = (layer == 0) ? spec.stride : 1;
      const int in_size = size;
      const int in_channels = channels;
      const int out_size = conv_out_size(in_size, stride);
      const int out_channels = st.width;
      const int mid = in_channels * st.expand;

      const double in_px = static_cast<double>(in_size) * in_size;
      const double out_px = static_cast<double>(out_size) * out_size;

      LayerCost lc;
      lc.name = spec.name + "_l" + std::to_string(layer);
      lc.kind = LayerKind::kMbConv;
      lc.stage = s;
      lc.layer_in_stage = static_cast<std::size_t>(layer);

      double macs = 0.0, params = 0.0, inter_values = 0.0;
      // Expansion 1x1 (skipped when expand == 1, as in MobileNet-style nets).
      if (st.expand != 1) {
        macs += in_px * in_channels * mid;
        params += static_cast<double>(in_channels) * mid + 2.0 * mid;
        inter_values += in_px * mid;
      }
      // Depthwise kxk.
      macs += out_px * mid * st.kernel * st.kernel;
      params += static_cast<double>(mid) * st.kernel * st.kernel + 2.0 * mid;
      inter_values += out_px * mid;
      // Squeeze-and-excitation (reduction 4): pool + 2 FC + rescale.
      if (spec.use_se) {
        const double se_mid = static_cast<double>(mid) / 4.0;
        macs += out_px * mid;                 // global average pool reads
        macs += 2.0 * mid * se_mid;           // the two FC layers
        macs += out_px * mid;                 // channel rescale
        params += 2.0 * mid * se_mid + mid + se_mid;
      }
      // Projection 1x1.
      macs += out_px * mid * out_channels;
      params += static_cast<double>(mid) * out_channels + 2.0 * out_channels;

      lc.macs = macs;
      lc.params = params;
      lc.traffic_bytes =
          (in_px * in_channels + out_px * out_channels + 2.0 * inter_values) *
              kBytesPerValue +
          params * kBytesPerValue;
      lc.out_size = out_size;
      lc.out_channels = out_channels;

      net.mbconv_index.push_back(net.layers.size());
      net.layers.push_back(lc);
      size = out_size;
      channels = out_channels;
    }
  }

  // Head: 1x1 conv to last_width, global pool, classifier.
  {
    const double px = static_cast<double>(size) * size;
    LayerCost head;
    head.name = "head";
    head.kind = LayerKind::kHead;
    head.macs = px * channels * config.last_width              // final 1x1 conv
                + px * config.last_width                       // global pool
                + static_cast<double>(config.last_width) * space_.num_classes;
    head.params = static_cast<double>(channels) * config.last_width +
                  2.0 * config.last_width +
                  static_cast<double>(config.last_width) * space_.num_classes +
                  space_.num_classes;
    head.traffic_bytes =
        (px * channels + px * config.last_width + config.last_width +
         space_.num_classes) *
            kBytesPerValue +
        head.params * kBytesPerValue;
    head.out_size = 1;
    head.out_channels = space_.num_classes;
    net.layers.push_back(head);
  }

  for (const auto& lc : net.layers) {
    net.total_macs += lc.macs;
    net.total_params += lc.params;
    net.total_traffic_bytes += lc.traffic_bytes;
  }
  return net;
}

const NetworkCost& CachedCostModel::analyze(const BackboneConfig& config) const {
  const std::uint64_t key = genome_hash(encode(model_->space(), config));
  return cache_.get_or_compute(key, [&] { return model_->analyze(config); });
}

}  // namespace hadas::supernet
