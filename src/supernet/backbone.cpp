#include "supernet/backbone.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/hash.hpp"

namespace hadas::supernet {

int BackboneConfig::total_layers() const {
  int total = 0;
  for (const auto& stage : stages) total += stage.depth;
  return total;
}

std::string BackboneConfig::describe() const {
  std::ostringstream oss;
  oss << "r" << resolution << "-s" << stem_width;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& st = stages[i];
    oss << "-b" << (i + 1) << "[w" << st.width << ",d" << st.depth << ",k"
        << st.kernel << ",e" << st.expand << "]";
  }
  oss << "-l" << last_width;
  return oss.str();
}

namespace {
std::int32_t index_of(const std::vector<int>& choices, int value,
                      const char* what) {
  const auto it = std::find(choices.begin(), choices.end(), value);
  if (it == choices.end())
    throw std::invalid_argument(std::string("encode: value not in space for ") + what);
  return static_cast<std::int32_t>(it - choices.begin());
}

int value_at(const std::vector<int>& choices, std::int32_t idx, const char* what) {
  if (idx < 0 || static_cast<std::size_t>(idx) >= choices.size())
    throw std::invalid_argument(std::string("decode: index out of range for ") + what);
  return choices[static_cast<std::size_t>(idx)];
}
}  // namespace

Genome encode(const SearchSpace& space, const BackboneConfig& config) {
  Genome g;
  g.reserve(space.genome_length());
  g.push_back(index_of(space.resolutions, config.resolution, "resolution"));
  g.push_back(index_of(space.stem_widths, config.stem_width, "stem"));
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto& spec = space.stages[i];
    const auto& st = config.stages[i];
    g.push_back(index_of(spec.widths, st.width, "width"));
    g.push_back(index_of(spec.depths, st.depth, "depth"));
    g.push_back(index_of(spec.kernels, st.kernel, "kernel"));
    g.push_back(index_of(spec.expands, st.expand, "expand"));
  }
  g.push_back(index_of(space.last_widths, config.last_width, "last"));
  return g;
}

BackboneConfig decode(const SearchSpace& space, const Genome& genome) {
  if (genome.size() != space.genome_length())
    throw std::invalid_argument("decode: genome length mismatch");
  BackboneConfig config;
  std::size_t gi = 0;
  config.resolution = value_at(space.resolutions, genome[gi++], "resolution");
  config.stem_width = value_at(space.stem_widths, genome[gi++], "stem");
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto& spec = space.stages[i];
    auto& st = config.stages[i];
    st.width = value_at(spec.widths, genome[gi++], "width");
    st.depth = value_at(spec.depths, genome[gi++], "depth");
    st.kernel = value_at(spec.kernels, genome[gi++], "kernel");
    st.expand = value_at(spec.expands, genome[gi++], "expand");
  }
  config.last_width = value_at(space.last_widths, genome[gi++], "last");
  return config;
}

bool is_valid_genome(const SearchSpace& space, const Genome& genome) {
  const auto card = space.gene_cardinalities();
  if (genome.size() != card.size()) return false;
  for (std::size_t i = 0; i < genome.size(); ++i)
    if (genome[i] < 0 || static_cast<std::size_t>(genome[i]) >= card[i]) return false;
  return true;
}

Genome random_genome(const SearchSpace& space, hadas::util::Rng& rng) {
  const auto card = space.gene_cardinalities();
  Genome g(card.size());
  for (std::size_t i = 0; i < card.size(); ++i)
    g[i] = static_cast<std::int32_t>(rng.uniform_index(card[i]));
  return g;
}

std::uint64_t genome_hash(const Genome& genome) {
  return hadas::util::fnv1a(genome);
}

}  // namespace hadas::supernet
