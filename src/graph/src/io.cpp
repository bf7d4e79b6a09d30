#include "eim/graph/io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "eim/support/error.hpp"

namespace eim::graph {

using support::IoError;

namespace {

constexpr const char* kWhitespace = " \t\r\f\v";

/// Split a line into whitespace-separated tokens (views into `line`).
std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t start = line.find_first_not_of(kWhitespace, pos);
    if (start == std::string_view::npos) break;
    std::size_t end = line.find_first_of(kWhitespace, start);
    if (end == std::string_view::npos) end = line.size();
    tokens.push_back(line.substr(start, end - start));
    pos = end;
  }
  return tokens;
}

/// Parse a full token as an unsigned vertex id. Rejects what istream
/// extraction silently accepts: negative ids (would wrap), embedded
/// garbage ("12abc"), and values that overflow 64 bits — each with the
/// offending line number.
std::uint64_t parse_vertex_token(std::string_view tok, std::size_t line_no) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec == std::errc::result_out_of_range) {
    throw IoError("vertex id '" + std::string(tok) + "' overflows at line " +
                  std::to_string(line_no));
  }
  if (ec != std::errc{} || ptr != tok.data() + tok.size()) {
    throw IoError("invalid vertex id '" + std::string(tok) + "' at line " +
                  std::to_string(line_no) + " (ids must be non-negative integers)");
  }
  return value;
}

/// Any column after `from to` (weights, timestamps) must be a complete
/// finite number — a truncated or garbage attribute is a malformed line,
/// not something to skip silently.
void check_attribute_token(std::string_view tok, std::size_t line_no) {
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), value);
  if (ec != std::errc{} || ptr != tok.data() + tok.size() || !std::isfinite(value)) {
    throw IoError("malformed edge attribute '" + std::string(tok) + "' at line " +
                  std::to_string(line_no));
  }
}

}  // namespace

EdgeList load_snap_text(std::istream& in) {
  EdgeList edges;
  std::unordered_map<std::uint64_t, VertexId> remap;
  auto intern = [&](std::uint64_t raw) {
    auto [it, inserted] = remap.try_emplace(raw, static_cast<VertexId>(remap.size()));
    if (inserted) edges.ensure_vertex(it->second);
    return it->second;
  };

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const std::vector<std::string_view> tokens = split_fields(line);
    if (tokens.empty()) continue;  // whitespace-only line
    if (tokens.size() < 2) {
      throw IoError("malformed SNAP edge at line " + std::to_string(line_no) +
                    ": expected 'from to [attributes]', got '" + line + "'");
    }
    const std::uint64_t raw_from = parse_vertex_token(tokens[0], line_no);
    const std::uint64_t raw_to = parse_vertex_token(tokens[1], line_no);
    for (std::size_t t = 2; t < tokens.size(); ++t) {
      check_attribute_token(tokens[t], line_no);
    }
    edges.add_edge(intern(raw_from), intern(raw_to));
  }
  edges.normalize();
  return edges;
}

EdgeList load_snap_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open '" + path + "' for reading");
  return load_snap_text(in);
}

void save_snap_text(const EdgeList& edges, std::ostream& out, const std::string& name) {
  out << "# Directed graph: " << name << "\n";
  out << "# Nodes: " << edges.num_vertices() << " Edges: " << edges.num_edges() << "\n";
  out << "# FromNodeId\tToNodeId\n";
  for (const Edge& e : edges.edges()) out << e.from << '\t' << e.to << '\n';
}

}  // namespace eim::graph
