// Golden digests of the graph build path: generator -> EdgeList::normalize
// -> both CSC directions -> weights (and their out-direction mirror) ->
// DrawPlan. Every digest below was recorded from the scalar R-MAT loop, the
// comparison-sort normalize and the binary-search out-weight sync; any
// rewrite of the build path must reproduce them byte for byte, because
// seeds, sampler draws and modeled seconds all hang off these bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "eim/graph/draw_plan.hpp"
#include "eim/graph/generators.hpp"
#include "eim/graph/io.hpp"
#include "eim/graph/registry.hpp"
#include "eim/support/rng.hpp"

namespace eim::graph {
namespace {

constexpr auto kIc = DiffusionModel::IndependentCascade;
constexpr auto kLt = DiffusionModel::LinearThreshold;

/// FNV-1a over raw bytes.
class Fnv64 {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ull;
    }
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    const std::uint64_t n = v.size();
    bytes(&n, sizeof(n));
    bytes(v.data(), v.size() * sizeof(T));
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

struct Digests {
  std::string edges;
  std::string in_csc;
  std::string out_csc;
  std::string in_weights;
  std::string out_weights;
  std::string draw_plan;
};

std::string hash_edges(const EdgeList& edges) {
  Fnv64 h;
  const std::uint64_t n = edges.num_vertices();
  h.bytes(&n, sizeof(n));
  h.vec(edges.edges());
  return h.hex();
}

std::string hash_adjacency(const Adjacency& adj) {
  Fnv64 h;
  h.vec(adj.offsets);
  h.vec(adj.targets);
  return h.hex();
}

std::string hash_weights(const Graph& g, bool out) {
  Fnv64 h;
  const Adjacency& adj = out ? g.out() : g.in();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto w = out ? g.out_weights(v) : g.in_weights(v);
    EXPECT_EQ(w.size(), adj.degree(v));
    h.bytes(w.data(), w.size() * sizeof(Weight));
  }
  return h.hex();
}

std::string hash_plan(const DrawPlan& plan) {
  Fnv64 h;
  h.vec(plan.ic_kind);
  h.vec(plan.ic_log1m);
  h.vec(plan.lt_prob);
  h.vec(plan.lt_alias);
  h.vec(plan.lt_total);
  const auto model = static_cast<std::uint32_t>(plan.model);
  h.bytes(&model, sizeof(model));
  return h.hex();
}

Digests digest(const EdgeList& edges, DiffusionModel model, const WeightParams& weights) {
  Graph g = Graph::from_edge_list(edges);
  assign_weights(g, model, weights);
  EXPECT_NE(g.draw_plan(), nullptr);
  return Digests{hash_edges(edges),      hash_adjacency(g.in()), hash_adjacency(g.out()),
                 hash_weights(g, false), hash_weights(g, true),  hash_plan(*g.draw_plan())};
}

void expect_digests(const Digests& got, const Digests& want) {
  EXPECT_EQ(got.edges, want.edges) << "edge list";
  EXPECT_EQ(got.in_csc, want.in_csc) << "in-adjacency";
  EXPECT_EQ(got.out_csc, want.out_csc) << "out-adjacency";
  EXPECT_EQ(got.in_weights, want.in_weights) << "in-weights";
  EXPECT_EQ(got.out_weights, want.out_weights) << "out-weights";
  EXPECT_EQ(got.draw_plan, want.draw_plan) << "draw plan";
}

constexpr WeightParams kInDegree{.scheme = WeightScheme::InDegree};
constexpr WeightParams kRandom{.scheme = WeightScheme::RandomUniform, .value = 0.4f,
                               .seed = 7};

RmatParams small_rmat(double reciprocal_fraction) {
  RmatParams p;
  p.scale = 12;
  p.num_edges = 40'000;
  p.reciprocal_fraction = reciprocal_fraction;
  return p;
}

// The benchmark's lt_skip_large graph, at full size, with its LT in-degree
// weights and alias tables.
TEST(GoldenGraphDigests, LargeRmatUnderLt) {
  RmatParams p;
  p.scale = 18;
  p.num_edges = 3'000'000;
  p.a = 0.6;
  p.b = 0.18;
  p.c = 0.18;
  p.d = 0.04;
  p.reciprocal_fraction = 0.3;
  const EdgeList edges = rmat(p, 0x524d4154u);
  EXPECT_EQ(edges.num_edges(), 3'474'082u);
  expect_digests(digest(edges, kLt, kInDegree),
                 {"b80c31837893557e", "a1f0153179018731", "37aefe1c6fcbbaeb",
                  "a7bbb6e27f6fd958", "889b505e0b1cd33c", "a980a7052fe04920"});
}

TEST(GoldenGraphDigests, SmallRmatWithoutReciprocity) {
  const EdgeList edges = rmat(small_rmat(0.0), 11);
  expect_digests(digest(edges, kIc, kRandom),
                 {"1c16e2b45de9ec74", "3db5276dd72c154f", "cb469affb352f4dd",
                  "b7a91442db04f667", "f8492ad2479246f7", "e06fea226509d2ae"});
  expect_digests(digest(edges, kLt, kRandom),
                 {"1c16e2b45de9ec74", "3db5276dd72c154f", "cb469affb352f4dd",
                  "643a1bc9e81aa34c", "787d939412711624", "a35869308feffb93"});
}

TEST(GoldenGraphDigests, SmallRmatWithReciprocity) {
  const EdgeList edges = rmat(small_rmat(0.3), 11);
  expect_digests(digest(edges, kIc, kRandom),
                 {"d09f9b8aa6bf1feb", "85489f2fd67866f7", "4921b0fd91340bd0",
                  "0fb6f6da44c38392", "0a91c90203b97872", "f05b78784c47c5a4"});
  expect_digests(digest(edges, kLt, kRandom),
                 {"d09f9b8aa6bf1feb", "85489f2fd67866f7", "4921b0fd91340bd0",
                  "1a8b871c030c8cc2", "8b712ba334457e6a", "68140a83b9cf5edc"});
}

struct RegistryCase {
  const char* abbrev;
  DiffusionModel model;
  Digests want;
};

// The registry stand-ins the benchmark solves (SD and CA) and the smallest
// one (WV), built exactly as build_dataset builds them.
TEST(GoldenGraphDigests, RegistryStandIns) {
  const RegistryCase cases[] = {
      {"SD", kIc, {"ece58244a4715859", "9f9ac5909708c60c", "72514bf428d1b16e",
                   "85e4924fba07a957", "0bc81a97382888ab", "d1a8ee9bc1457bb0"}},
      {"SD", kLt, {"ece58244a4715859", "9f9ac5909708c60c", "72514bf428d1b16e",
                   "85e4924fba07a957", "0bc81a97382888ab", "a8e17f2e72850ac7"}},
      {"CA", kIc, {"6de67209320e634e", "47f0f8b889af2774", "3964a10a3abe1cba",
                   "bffd9348338f0055", "8472fc31df30ff51", "d87a4e5c1a528895"}},
      {"CA", kLt, {"6de67209320e634e", "47f0f8b889af2774", "3964a10a3abe1cba",
                   "bffd9348338f0055", "8472fc31df30ff51", "74d01323002b990f"}},
      {"WV", kIc, {"9eb608ab1c0860cb", "cf90c3149de39c13", "76a5e0a6bd452c2f",
                   "1da85c65ccad9143", "6967f58e1312e9e7", "d31c3cf2290b3160"}},
      {"WV", kLt, {"9eb608ab1c0860cb", "cf90c3149de39c13", "76a5e0a6bd452c2f",
                   "1da85c65ccad9143", "6967f58e1312e9e7", "6a52264cbc96e361"}},
  };
  for (const RegistryCase& c : cases) {
    SCOPED_TRACE(std::string(c.abbrev) + " " + to_string(c.model));
    const auto spec = find_dataset(c.abbrev);
    ASSERT_TRUE(spec.has_value());
    expect_digests(digest(build_dataset_edges(*spec), c.model, kInDegree), c.want);
  }
}

// A SNAP-format file with comments, sparse ids, duplicate arcs, self-loops
// and attribute columns, through the file loader and its normalize.
TEST(GoldenGraphDigests, SnapTextFile) {
  const std::string path = ::testing::TempDir() + "golden_snap_small.txt";
  {
    std::ofstream out(path);
    out << "# Directed graph: golden\n# FromNodeId\tToNodeId\n";
    support::RandomStream rng(2024, 1);
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t u = 1000 + 7ull * rng.next_below(300);
      const std::uint64_t v = 1000 + 7ull * rng.next_below(300);
      out << u << '\t' << v;
      if (i % 5 == 0) out << ' ' << (i % 11) * 0.25;
      out << '\n';
      if (i % 13 == 0) out << v << ' ' << u << '\n';
    }
  }
  const EdgeList edges = load_snap_text_file(path);
  std::remove(path.c_str());
  expect_digests(digest(edges, kIc, kRandom),
                 {"e9488e03644358a1", "70c26530c6cbb836", "aa0916cdcebc7c9a",
                  "e94d529199956c22", "a75468f88fd4cbf6", "882ee9b4d0542dad"});
  expect_digests(digest(edges, kLt, kRandom),
                 {"e9488e03644358a1", "70c26530c6cbb836", "aa0916cdcebc7c9a",
                  "926145bd59cfd478", "229c08bacc0a7f00", "33b9e340a5713eaa"});
}

}  // namespace
}  // namespace eim::graph
