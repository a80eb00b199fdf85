// Tests for the mesh substrate: structure, generators at the paper's
// dataset sizes, RCM renumbering, and adaptive rebuild utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <tuple>

#include "heap_tracking.hpp"
#include "mesh/generators.hpp"
#include "mesh/mesh.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/prng.hpp"

namespace earthred::mesh {
namespace {

Mesh tiny_path() {
  // 0-1-2-3 path.
  Mesh m;
  m.num_nodes = 4;
  m.edges = {{0, 1}, {1, 2}, {2, 3}};
  return m;
}

TEST(Mesh, ValidateCatchesBadEdges) {
  Mesh m;
  m.num_nodes = 3;
  m.edges = {{0, 3}};
  EXPECT_THROW(m.validate(), check_error);
  m.edges = {{1, 1}};
  EXPECT_THROW(m.validate(), check_error);
  m.edges = {{0, 1}};
  m.coords.resize(2);
  EXPECT_THROW(m.validate(), check_error);
}

TEST(Mesh, DegreesAndBandwidth) {
  const Mesh m = tiny_path();
  const auto deg = node_degrees(m);
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[1], 2u);
  EXPECT_EQ(mesh_bandwidth(m), 1u);
  Mesh far;
  far.num_nodes = 10;
  far.edges = {{0, 9}};
  EXPECT_EQ(mesh_bandwidth(far), 9u);
}

TEST(Mesh, AdjacencyListsBothDirections) {
  const Adjacency adj = build_adjacency(tiny_path());
  ASSERT_EQ(adj.offsets.size(), 5u);
  EXPECT_EQ(adj.neighbors.size(), 6u);  // 3 edges * 2
  // Node 1's neighbors are 0 and 2, sorted.
  EXPECT_EQ(adj.neighbors[adj.offsets[1]], 0u);
  EXPECT_EQ(adj.neighbors[adj.offsets[1] + 1], 2u);
}

TEST(Mesh, RcmPermutationIsABijection) {
  const Mesh m = euler_mesh_small();
  const auto perm = rcm_permutation(m);
  std::vector<bool> seen(m.num_nodes, false);
  for (auto v : perm) {
    ASSERT_LT(v, m.num_nodes);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Mesh, RcmCoversDisconnectedComponentsAndIsolatedNodes) {
  // Components whose min-degree node sits *behind* the scan position used
  // to be skipped forever (the ensure at the end of rcm_permutation
  // fired). Node 0-1 form one component, 2 is isolated, 3-5 a triangle —
  // the isolated node is the global degree minimum, so a forward-only
  // scan starting past it never seeds the first component.
  Mesh m;
  m.num_nodes = 6;
  m.edges = {{0, 1}, {3, 4}, {4, 5}, {3, 5}};
  const auto perm = rcm_permutation(m);
  ASSERT_EQ(perm.size(), m.num_nodes);
  std::vector<bool> seen(m.num_nodes, false);
  for (auto v : perm) {
    ASSERT_LT(v, m.num_nodes);
    ASSERT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(Mesh, RcmReducesBandwidthOnShuffledMesh) {
  // Scramble a mesh's numbering, then check RCM restores locality.
  Mesh m = euler_mesh_small();
  Xoshiro256 rng(99);
  std::vector<std::uint32_t> shuffle(m.num_nodes);
  for (std::uint32_t i = 0; i < m.num_nodes; ++i) shuffle[i] = i;
  for (std::uint32_t i = m.num_nodes - 1; i > 0; --i)
    std::swap(shuffle[i], shuffle[rng.below(i + 1)]);
  const Mesh scrambled = renumber(m, shuffle);
  const auto perm = rcm_permutation(scrambled);
  const Mesh restored = renumber(scrambled, perm);
  EXPECT_LT(mesh_bandwidth(restored), mesh_bandwidth(scrambled) / 2);
}

TEST(Mesh, RenumberPreservesStructure) {
  const Mesh m = tiny_path();
  const std::vector<std::uint32_t> perm{3, 2, 1, 0};
  const Mesh r = renumber(m, perm);
  EXPECT_EQ(r.num_edges(), 3u);
  EXPECT_EQ(r.edges[0].a, 3u);
  EXPECT_EQ(r.edges[0].b, 2u);
}

TEST(Generators, GeometricMeshExactCounts) {
  const Mesh m = make_geometric_mesh({500, 2500, 42});
  m.validate();
  EXPECT_EQ(m.num_nodes, 500u);
  EXPECT_EQ(m.num_edges(), 2500u);
  EXPECT_EQ(m.coords.size(), 500u);
}

TEST(Generators, GeometricMeshDeterministic) {
  const Mesh a = make_geometric_mesh({300, 1500, 7});
  const Mesh b = make_geometric_mesh({300, 1500, 7});
  EXPECT_TRUE(std::equal(a.edges.begin(), a.edges.end(), b.edges.begin()));
}

TEST(Generators, GeometricMeshRejectsOverdenseRequest) {
  EXPECT_THROW(make_geometric_mesh({4, 100, 1}), check_error);
}

TEST(Generators, EulerDatasetsMatchPaperSizes) {
  const Mesh small = euler_mesh_small();
  EXPECT_EQ(small.num_nodes, 2800u);
  EXPECT_EQ(small.num_edges(), 17377u);
  const Mesh large = euler_mesh_large();
  EXPECT_EQ(large.num_nodes, 9428u);
  EXPECT_EQ(large.num_edges(), 59863u);
}

TEST(Generators, EulerMeshNumberingIsSpatiallyCoherent) {
  // Mesh-generator-style numbering: bandwidth far below random (~n).
  const Mesh m = euler_mesh_small();
  EXPECT_LT(mesh_bandwidth(m), m.num_nodes / 4);
}

TEST(Generators, MoldynDatasetsMatchPaperSizes) {
  const Mesh small = moldyn_small();
  EXPECT_EQ(small.num_nodes, 2916u);
  EXPECT_EQ(small.num_edges(), 26244u);
  const Mesh large = moldyn_large();
  EXPECT_EQ(large.num_nodes, 10976u);
  EXPECT_EQ(large.num_edges(), 65856u);
}

TEST(Generators, MoldynInteractionsAreShortRange) {
  // Cutoff-style pairs: every kept interaction should span well under two
  // lattice cells.
  const Mesh m = make_moldyn_lattice({4, 1000, 0.02, 5});
  for (const Edge& e : m.edges) {
    const auto& a = m.coords[e.a];
    const auto& b = m.coords[e.b];
    double d2 = 0;
    for (int d = 0; d < 3; ++d) d2 += (a[d] - b[d]) * (a[d] - b[d]);
    EXPECT_LT(d2, 2.0 * 2.0);
  }
}

TEST(Generators, NoDuplicateEdges) {
  const Mesh m = make_geometric_mesh({200, 900, 3});
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (const Edge& e : m.edges) {
    const auto key = std::minmax(e.a, e.b);
    EXPECT_TRUE(seen.emplace(key.first, key.second).second);
  }
}

/// Content hash of a mesh's edge list (in order) and coordinates.
std::uint64_t mesh_digest(const Mesh& m) {
  const std::uint64_t h =
      support::fast_hash64(m.edges.data(), m.edges.size() * sizeof(Edge));
  return support::fast_hash64(m.coords.data(),
                              m.coords.size() * sizeof(m.coords[0]), h);
}

TEST(Generators, GoldenDigestsPinGeneratorOutput) {
  // Every served job line re-synthesizes its mesh, so plans, persisted
  // plan files and result digests all depend on these exact edge orders.
  // The digests were recorded from the full-candidate-sort generator; a
  // faster k-shortest selection must reproduce them bit for bit.
  EXPECT_EQ(mesh_digest(euler_mesh_small()), 10207800445083377739ull);
  EXPECT_EQ(mesh_digest(euler_mesh_large()), 8098330191442861163ull);
  EXPECT_EQ(mesh_digest(moldyn_small()), 3437074385497056521ull);
  EXPECT_EQ(mesh_digest(moldyn_large()), 17203495266857094398ull);
  EXPECT_EQ(mesh_digest(make_geometric_mesh({30000, 180000, 11})),
            16911140450713503148ull);
  // These two grow the search radius once: the first radius finds 2,426
  // of the 2,600 pairs requested, and 5 of the lattice's 200.
  EXPECT_EQ(mesh_digest(make_geometric_mesh({100, 2600, 5})),
            16571806365662516372ull);
  EXPECT_EQ(mesh_digest(make_moldyn_lattice({3, 200, 0.02, 5})),
            13144131557791327948ull);
}

TEST(Generators, SparseRequestKeepsTheCellGridNearNodeCount) {
  // Ten edges among 20,000 points: the search radius is tiny, and a grid
  // of radius-sized cells would need ~3.6e7 cells (a 145 MB offset
  // array). Cells no smaller than one point's share of the box keep every
  // allocation within a few dozen bytes per node.
  constexpr std::uint32_t kNodes = 20000;
  std::size_t largest = 0;
  {
    const test::HeapTracking heap;
    const Mesh m = make_geometric_mesh({kNodes, 10, 1});
    largest = heap.largest();
    EXPECT_EQ(m.num_edges(), 10u);
  }
  EXPECT_LE(largest, 64u * kNodes);
}

TEST(Adaptive, RebuildGoldenDigests) {
  // Same-count rebuild: surviving pairs keep their slots and vacated slots
  // are refilled in (a, b) order. Different-count rebuild: replaced.
  Mesh m = make_moldyn_lattice({4, 1500, 0.02, 5});
  Xoshiro256 rng(2);
  jitter_coords(m, 0.1, rng);
  rebuild_interactions(m, 1500);
  // Kept slots and refilled ones interleave, so (a, b) order is broken.
  EXPECT_FALSE(std::is_sorted(m.edges.begin(), m.edges.end(),
                              [](Edge x, Edge y) {
                                return std::tie(x.a, x.b) <
                                       std::tie(y.a, y.b);
                              }));
  EXPECT_EQ(mesh_digest(m), 5566674306634497056ull);
  rebuild_interactions(m, 1400);
  EXPECT_EQ(mesh_digest(m), 9620272567615012308ull);
}

TEST(Adaptive, JitterMovesCoords) {
  Mesh m = make_moldyn_lattice({3, 200, 0.02, 5});
  const auto before = m.coords;
  Xoshiro256 rng(1);
  jitter_coords(m, 0.05, rng);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < before.size(); ++i)
    if (before[i] != m.coords[i]) ++moved;
  EXPECT_EQ(moved, before.size());
}

TEST(Adaptive, RebuildChangesNeighborListAfterBigJitter) {
  Mesh m = make_moldyn_lattice({4, 1500, 0.02, 5});
  const auto before = m.edges;
  Xoshiro256 rng(2);
  jitter_coords(m, 0.3, rng);
  rebuild_interactions(m, 1500);
  EXPECT_EQ(m.num_edges(), 1500u);
  std::uint64_t common = 0;
  std::set<std::pair<std::uint32_t, std::uint32_t>> old_set;
  for (const Edge& e : before) {
    const auto k = std::minmax(e.a, e.b);
    old_set.emplace(k.first, k.second);
  }
  for (const Edge& e : m.edges) {
    const auto k = std::minmax(e.a, e.b);
    common += old_set.count({k.first, k.second});
  }
  EXPECT_LT(common, before.size());  // some pairs changed
  EXPECT_GT(common, 0u);             // but not a completely new graph
}

TEST(Adaptive, SmallJitterKeepsMostInteractions) {
  Mesh m = make_moldyn_lattice({4, 1500, 0.02, 5});
  const auto before = m.edges;
  Xoshiro256 rng(3);
  jitter_coords(m, 0.02, rng);
  rebuild_interactions(m, 1500);
  std::set<std::pair<std::uint32_t, std::uint32_t>> old_set;
  for (const Edge& e : before) {
    const auto k = std::minmax(e.a, e.b);
    old_set.emplace(k.first, k.second);
  }
  std::uint64_t common = 0;
  for (const Edge& e : m.edges) {
    const auto k = std::minmax(e.a, e.b);
    common += old_set.count({k.first, k.second});
  }
  EXPECT_GT(common, before.size() * 8 / 10);
}

}  // namespace
}  // namespace earthred::mesh
