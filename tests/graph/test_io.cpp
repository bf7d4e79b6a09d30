#include "eim/graph/io.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "eim/graph/generators.hpp"
#include "eim/support/error.hpp"

namespace eim::graph {
namespace {

TEST(SnapText, ParsesCommentsAndEdges) {
  std::istringstream in(
      "# Directed graph\n"
      "# Nodes: 3 Edges: 2\n"
      "0\t1\n"
      "1\t2\n");
  const EdgeList g = load_snap_text(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapText, CompactsSparseIds) {
  // SNAP files skip ids; 1000000 and 42 must map into [0, n).
  std::istringstream in("1000000 42\n42 7\n");
  const EdgeList g = load_snap_text(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  for (const Edge& e : g.edges()) {
    EXPECT_LT(e.from, 3u);
    EXPECT_LT(e.to, 3u);
  }
}

TEST(SnapText, AcceptsSpaceAndTabSeparators) {
  std::istringstream in("0 1\n1\t2\n");
  EXPECT_EQ(load_snap_text(in).num_edges(), 2u);
}

TEST(SnapText, ThrowsOnGarbage) {
  std::istringstream in("0 1\nnot an edge\n");
  EXPECT_THROW(load_snap_text(in), support::IoError);
}

TEST(SnapText, RejectsNonNumericVertexToken) {
  // istream extraction would read "12" and leave "abc" to poison the next
  // field; the parser must reject the whole token.
  std::istringstream in("0 1\n12abc 3\n");
  EXPECT_THROW(load_snap_text(in), support::IoError);
}

TEST(SnapText, RejectsNegativeVertexIds) {
  // Unsigned istream extraction silently wraps -1 to 2^64-1.
  std::istringstream in("0 1\n-1 2\n");
  EXPECT_THROW(load_snap_text(in), support::IoError);
}

TEST(SnapText, RejectsOverflowingVertexIds) {
  std::istringstream in("0 1\n99999999999999999999999999 2\n");
  EXPECT_THROW(load_snap_text(in), support::IoError);
}

TEST(SnapText, RejectsMissingEndpoint) {
  std::istringstream in("0 1\n7\n");
  EXPECT_THROW(load_snap_text(in), support::IoError);
}

TEST(SnapText, RejectsTruncatedWeightColumn) {
  std::istringstream in("0 1 0.5\n1 2 0.7e\n");
  EXPECT_THROW(load_snap_text(in), support::IoError);
}

TEST(SnapText, AcceptsNumericAttributeColumns) {
  // Weighted / timestamped SNAP exports carry extra numeric columns.
  std::istringstream in("0 1 0.25\n1 2 0.5 1234567890\n");
  const EdgeList g = load_snap_text(in);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SnapText, ErrorMessageCarriesTheLineNumber) {
  std::istringstream in("# header\n0 1\n\n12abc 3\n");
  try {
    (void)load_snap_text(in);
    FAIL() << "expected IoError";
  } catch (const support::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
  }
}

TEST(SnapText, SkipsWhitespaceOnlyLines) {
  std::istringstream in("0 1\n   \t\n1 2\n");
  EXPECT_EQ(load_snap_text(in).num_edges(), 2u);
}

TEST(SnapText, DropsDuplicatesAndSelfLoops) {
  std::istringstream in("0 1\n0 1\n2 2\n");
  const EdgeList g = load_snap_text(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SnapText, RoundTripsThroughSave) {
  const EdgeList original = erdos_renyi(50, 200, 5);
  std::stringstream buffer;
  save_snap_text(original, buffer, "roundtrip");
  const EdgeList loaded = load_snap_text(buffer);
  EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
  EXPECT_EQ(loaded.num_edges(), original.num_edges());
}

TEST(Files, MissingFileThrows) {
  EXPECT_THROW(load_snap_text_file("/nonexistent/nowhere.txt"), support::IoError);
}

TEST(Files, SnapTextFileRoundTrips) {
  const EdgeList original = erdos_renyi(50, 200, 5);
  const std::string path =
      ::testing::TempDir() + "eim_io_roundtrip_" + std::to_string(::getpid()) + ".txt";
  {
    std::ofstream out(path);
    save_snap_text(original, out, "file roundtrip");
  }
  const EdgeList loaded = load_snap_text_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
  EXPECT_EQ(loaded.num_edges(), original.num_edges());
}

}  // namespace
}  // namespace eim::graph
