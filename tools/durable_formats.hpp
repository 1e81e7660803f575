// The durable formats `hadas verify-checkpoint` triages: per envelope tag,
// the label of a valid payload and a row function that loads a file through
// the format's own loader (which throws CheckpointCorruptError on any damage)
// and describes it. tests/test_durable_formats.cpp triages and fuzzes every
// entry, so a new durable format is covered by adding it here.

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cli.hpp"
#include "core/serialize.hpp"
#include "dist/island.hpp"
#include "dist/net_transport.hpp"
#include "hw/fleet/registry.hpp"
#include "net/session.hpp"
#include "runtime/serve/journal.hpp"
#include "util/durable/document.hpp"

namespace hadas::tools {

/// One {field, value} line of a payload description.
using Row = std::pair<std::string, std::string>;

struct DurableFormat {
  const char* tag;
  const char* label;  ///< the "payload" row of a valid file
  std::vector<Row> (*rows)(const std::string& path);
};

/// "<a> / <b>", the value of a two-count row.
inline std::string counts(std::size_t a, std::size_t b) {
  return std::to_string(a) + " / " + std::to_string(b);
}

/// Rows of a net or dist-net session journal. A dist-net app document tells
/// the two roles apart: the coordinator journals which inbound rounds it
/// pushed, a worker which rounds it uploaded.
inline std::vector<Row> session_rows(const std::string& path, const char* tag,
                                     const char* fingerprint_label) {
  const net::SessionState session = *net::load_session_state(path, tag);
  std::vector<Row> rows = {
      {"session id", session.session_id},
      {fingerprint_label, session.fingerprint},
      {"write acked / unacked bytes",
       counts(session.write_acked, session.write_unacked.size())},
      {"read sequence", std::to_string(session.read_seq)}};
  if (session.app.contains("pushed"))
    rows.push_back({"role / migrant rounds pushed",
                    "coordinator / " +
                        std::to_string(session.app.at("pushed").size())});
  if (session.app.contains("sent"))
    rows.push_back({"role / migrant rounds uploaded",
                    "worker / " + std::to_string(session.app.at("sent").size())});
  if (session.app.contains("final_sent"))
    rows.push_back({"island result uploaded",
                    session.app.at("final_sent") == util::Json(true) ? "yes"
                                                                      : "no"});
  return rows;
}

inline const std::vector<DurableFormat>& durable_formats() {
  static const std::vector<DurableFormat> formats = {
      {core::kCheckpointFormatTag, "valid checkpoint",
       [](const std::string& path) -> std::vector<Row> {
         const core::SearchCheckpoint checkpoint = core::load_checkpoint(path);
         return {{"fingerprint", checkpoint.fingerprint},
                 {"next generation",
                  std::to_string(checkpoint.next_generation)},
                 {"population", std::to_string(checkpoint.population.size())},
                 {"backbones", std::to_string(checkpoint.backbones.size())},
                 {"outer / inner evaluations",
                  counts(checkpoint.outer_evaluations,
                         checkpoint.inner_evaluations)}};
       }},
      {dist::kDistSpecFormatTag, "valid dist spec",
       [](const std::string& path) -> std::vector<Row> {
         const dist::DistSpec spec = dist::load_spec(path);
         return {{"device / space", spec.device + " / " + spec.space},
                 {"population x generations",
                  std::to_string(spec.outer_population) + " x " +
                      std::to_string(spec.outer_generations)},
                 {"islands", std::to_string(spec.islands)},
                 {"migration every / migrants",
                  counts(spec.migration_every, spec.migrants)}};
       }},
      {dist::kMigrantsFormatTag, "valid migrant set",
       [](const std::string& path) -> std::vector<Row> {
         const dist::MigrantSet migrants = dist::load_migrants_file(path);
         return {{"island", std::to_string(migrants.island)},
                 {"round", std::to_string(migrants.round)},
                 {"genomes", std::to_string(migrants.genomes.size())}};
       }},
      {dist::kIslandResultFormatTag, "valid island result",
       [](const std::string& path) -> std::vector<Row> {
         const util::Json result = dist::load_island_result(path);
         return {{"island", std::to_string(result.at("island").as_index())},
                 {"next generation",
                  std::to_string(result.at("next_generation").as_index())},
                 {"Pareto designs",
                  std::to_string(result.at("final_pareto").as_array().size())}};
       }},
      {hw::fleet::kFleetFormatTag, "valid fleet checkpoint",
       [](const std::string& path) -> std::vector<Row> {
         const hw::fleet::FleetRegistry fleet =
             hw::fleet::FleetRegistry::load(path);
         return {{"devices / serviceable",
                  counts(fleet.size(), fleet.serviceable_count())},
                 {"state tally", state_tally(fleet)},
                 {"chaos round", std::to_string(fleet.round())},
                 {"last transition round",
                  std::to_string(fleet.last_transition_round())}};
       }},
      {net::kSessionFormatTag, "valid net session journal",
       [](const std::string& path) {
         return session_rows(path, net::kSessionFormatTag,
                             "server fingerprint");
       }},
      {dist::kDistSessionFormatTag, "valid dist-net session journal",
       [](const std::string& path) {
         return session_rows(path, dist::kDistSessionFormatTag,
                             "spec fingerprint");
       }},
      {runtime::serve::kServeJournalFormatTag, "valid serve journal",
       [](const std::string& path) -> std::vector<Row> {
         const runtime::serve::ServeJournalSnapshot snapshot =
             util::durable::load_document(
                 path, runtime::serve::kServeJournalFormatTag,
                 runtime::serve::journal_snapshot_from_json);
         return {{"fingerprint", snapshot.fingerprint},
                 {"next request index", std::to_string(snapshot.next_index)},
                 {"lanes", std::to_string(snapshot.lanes.size())}};
       }},
  };
  return formats;
}

/// The format `info` describes, or nullptr for an unknown tag. A file with
/// no envelope is triaged as a search checkpoint, the one format whose
/// loader still reads legacy (pre-durable) files.
inline const DurableFormat* find_durable_format(
    const util::durable::FileInfo& info) {
  const std::string tag =
      info.legacy ? core::kCheckpointFormatTag : info.format_tag;
  for (const DurableFormat& format : durable_formats())
    if (tag == format.tag) return &format;
  return nullptr;
}

}  // namespace hadas::tools
