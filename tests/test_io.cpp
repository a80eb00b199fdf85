// Round-trip and error-handling tests for mesh and matrix serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "mesh/generators.hpp"
#include "mesh/io.hpp"
#include "sparse/io.hpp"
#include "sparse/nas_cg.hpp"
#include "support/check.hpp"
#include "scratch_dir.hpp"

namespace earthred {
namespace {

TEST(MeshIo, RoundTripWithCoords) {
  const mesh::Mesh m = mesh::make_geometric_mesh({120, 500, 9});
  std::stringstream ss;
  mesh::write_mesh(ss, m);
  const mesh::Mesh r = mesh::read_mesh(ss);
  EXPECT_EQ(r.num_nodes, m.num_nodes);
  ASSERT_EQ(r.edges.size(), m.edges.size());
  for (std::size_t i = 0; i < m.edges.size(); ++i)
    EXPECT_EQ(r.edges[i], m.edges[i]);
  ASSERT_EQ(r.coords.size(), m.coords.size());
  for (std::size_t i = 0; i < m.coords.size(); ++i)
    for (int d = 0; d < 3; ++d)
      EXPECT_DOUBLE_EQ(r.coords[i][d], m.coords[i][d]);
}

TEST(MeshIo, RoundTripWithoutCoords) {
  mesh::Mesh m;
  m.num_nodes = 4;
  m.edges = {{0, 1}, {2, 3}};
  std::stringstream ss;
  mesh::write_mesh(ss, m);
  const mesh::Mesh r = mesh::read_mesh(ss);
  EXPECT_TRUE(r.coords.empty());
  EXPECT_EQ(r.num_edges(), 2u);
}

TEST(MeshIo, RejectsGarbage) {
  std::stringstream ss("hello world");
  EXPECT_THROW(mesh::read_mesh(ss), check_error);
  std::stringstream ss2("mesh 4 2 0\ne 0 1\n");  // truncated
  EXPECT_THROW(mesh::read_mesh(ss2), check_error);
  std::stringstream ss3("mesh 2 1 0\ne 0 5\n");  // out of range
  EXPECT_THROW(mesh::read_mesh(ss3), check_error);
}

TEST(MeshIo, RejectsNegativeCountsAndIndices) {
  // A negative count read into an unsigned would wrap to ~2^64 and turn
  // the header into a gigantic allocation; it must be a parse error.
  std::stringstream neg_edges("mesh 4 -5 0\n");
  EXPECT_THROW(mesh::read_mesh(neg_edges), check_error);
  std::stringstream neg_nodes("mesh -4 1 0\ne 0 1\n");
  EXPECT_THROW(mesh::read_mesh(neg_nodes), check_error);
  std::stringstream neg_endpoint("mesh 4 1 0\ne -1 2\n");
  EXPECT_THROW(mesh::read_mesh(neg_endpoint), check_error);
  std::stringstream bad_flag("mesh 4 0 7\n");
  EXPECT_THROW(mesh::read_mesh(bad_flag), check_error);
}

TEST(MeshIo, RejectsOverflowingCounts) {
  // Node count beyond 32 bits and an absurd edge count with no edges
  // behind it must both fail cleanly (no OOM, no wrap).
  std::stringstream huge_nodes("mesh 99999999999 0 0\n");
  EXPECT_THROW(mesh::read_mesh(huge_nodes), check_error);
  std::stringstream lying_edges("mesh 4 99999999999 0\ne 0 1\n");
  EXPECT_THROW(mesh::read_mesh(lying_edges), check_error);
}

TEST(MeshIo, RejectsTruncatedCoordinates) {
  std::stringstream ss("mesh 2 1 1\ne 0 1\nc 0.0 0.0 0.0\n");  // 1 of 2
  EXPECT_THROW(mesh::read_mesh(ss), check_error);
}

TEST(MeshIo, FileRoundTrip) {
  const mesh::Mesh m = mesh::make_geometric_mesh({50, 180, 4});
  const test::ScratchDir scratch;
  const std::string path = scratch.file("mesh.txt");
  mesh::save_mesh(path, m);
  const mesh::Mesh r = mesh::load_mesh(path);
  EXPECT_EQ(r.num_edges(), m.num_edges());
  EXPECT_THROW(mesh::load_mesh("/nonexistent/nope.txt"), check_error);
}

TEST(SparseIo, MatrixMarketRoundTrip) {
  const sparse::CsrMatrix m =
      sparse::make_nas_cg_matrix({100, 3, 0.1, 10.0, 314159265.0});
  std::stringstream ss;
  sparse::write_matrix_market(ss, m);
  const sparse::CsrMatrix r = sparse::read_matrix_market(ss);
  EXPECT_EQ(r.nrows(), m.nrows());
  EXPECT_EQ(r.nnz(), m.nnz());
  for (std::size_t j = 0; j < m.values().size(); ++j) {
    EXPECT_EQ(r.col_idx()[j], m.col_idx()[j]);
    EXPECT_DOUBLE_EQ(r.values()[j], m.values()[j]);
  }
}

TEST(SparseIo, SymmetricExpansion) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 3\n"
      "1 1 2.0\n"
      "2 1 5.0\n"
      "3 3 1.0\n");
  const sparse::CsrMatrix m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 4u);  // (1,1), (2,1)+(1,2), (3,3)
  EXPECT_TRUE(m.is_symmetric());
}

TEST(SparseIo, RejectsUnsupportedVariants) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate complex general\n3 3 1\n1 1 2 0\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), check_error);
  std::stringstream ss2("not a matrix\n");
  EXPECT_THROW(sparse::read_matrix_market(ss2), check_error);
  std::stringstream ss3(
      "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.0\n");
  EXPECT_THROW(sparse::read_matrix_market(ss3), check_error);  // truncated
  std::stringstream ss4(
      "%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 2.0\n");
  EXPECT_THROW(sparse::read_matrix_market(ss4), check_error);  // range
}

TEST(SparseIo, RejectsNegativeAndOverflowingSizeLine) {
  const std::string hdr = "%%MatrixMarket matrix coordinate real general\n";
  std::stringstream neg_rows(hdr + "-3 3 1\n1 1 2.0\n");
  EXPECT_THROW(sparse::read_matrix_market(neg_rows), check_error);
  std::stringstream neg_nnz(hdr + "3 3 -1\n");
  EXPECT_THROW(sparse::read_matrix_market(neg_nnz), check_error);
  std::stringstream huge_dims(hdr + "99999999999 3 1\n1 1 2.0\n");
  EXPECT_THROW(sparse::read_matrix_market(huge_dims), check_error);
  // Huge declared nnz with only one real entry: must fail as truncated,
  // not attempt a matching allocation first.
  std::stringstream lying_nnz(hdr + "3 3 99999999999\n1 1 2.0\n");
  EXPECT_THROW(sparse::read_matrix_market(lying_nnz), check_error);
}

TEST(SparseIo, RejectsNegativeIndices) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 1\n"
      "-1 2 4.5\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), check_error);
  std::stringstream zero_based(
      "%%MatrixMarket matrix coordinate real general\n"
      "3 3 1\n"
      "0 1 4.5\n");  // MatrixMarket is 1-based
  EXPECT_THROW(sparse::read_matrix_market(zero_based), check_error);
}

TEST(SparseIo, CommentsSkipped) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "% another\n"
      "2 2 1\n"
      "2 2 7.5\n");
  const sparse::CsrMatrix m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 1u);
  EXPECT_DOUBLE_EQ(m.values()[0], 7.5);
}

}  // namespace
}  // namespace earthred
