// Graph I/O: SNAP edge-list text ('#'-comment header, one "u<ws>v" pair per
// line) — the format of every dataset in the paper's Table 1, so real
// downloads drop straight in.
#pragma once

#include <iosfwd>
#include <string>

#include "eim/graph/edge_list.hpp"

namespace eim::graph {

/// Parse SNAP edge-list text. Vertex ids are compacted to a dense [0, n)
/// range (SNAP files routinely skip ids). Throws IoError on malformed input.
[[nodiscard]] EdgeList load_snap_text(std::istream& in);
[[nodiscard]] EdgeList load_snap_text_file(const std::string& path);

/// Serialize in SNAP-compatible text (with a comment header).
void save_snap_text(const EdgeList& edges, std::ostream& out,
                    const std::string& name = "eim graph");

}  // namespace eim::graph
