#include "mesh/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>

#include "support/check.hpp"

namespace earthred::mesh {

namespace {

struct Candidate {
  double dist2;
  std::uint32_t a, b;
};

/// Cell offsets that follow (0, 0, 0) in lexicographic (dx, dy, dz) order:
/// with the cell itself, the half of the 27-cell stencil that visits each
/// unordered pair of neighbouring cells exactly once.
constexpr std::array<std::array<std::int64_t, 3>, 13> kForwardCells{{
    {0, 0, 1},   {0, 1, -1},  {0, 1, 0},  {0, 1, 1},   {1, -1, -1},
    {1, -1, 0},  {1, -1, 1},  {1, 0, -1}, {1, 0, 0},   {1, 0, 1},
    {1, 1, -1},  {1, 1, 0},   {1, 1, 1},
}};

/// Enumerates all pairs within `radius` using a uniform cell grid over the
/// coordinate bounding box, then returns the `target` shortest (ties broken
/// by index pair, so the result is deterministic), ordered by (a, b).
std::vector<Edge> k_shortest_pairs(
    const std::vector<std::array<double, 3>>& pts, std::uint64_t target) {
  const std::uint32_t n = static_cast<std::uint32_t>(pts.size());
  ER_CHECK_MSG(target <= static_cast<std::uint64_t>(n) * (n - 1) / 2,
               "more edges requested than node pairs exist");

  std::array<double, 3> lo{1e300, 1e300, 1e300}, hi{-1e300, -1e300, -1e300};
  for (const auto& p : pts) {
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], p[d]);
      hi[d] = std::max(hi[d], p[d]);
    }
  }
  const double volume = std::max({hi[0] - lo[0], 1e-12}) *
                        std::max({hi[1] - lo[1], 1e-12}) *
                        std::max({hi[2] - lo[2], 1e-12});
  // Start from the radius at which the expected number of in-range pairs
  // (n^2 * sphere/volume / 2) is 1.5x (planar) or 2.25x (3D) the target,
  // then grow until enough candidates are found.
  const bool planar = (hi[2] - lo[2]) < 1e-9;
  const double area = std::max(hi[0] - lo[0], 1e-12) *
                      std::max(hi[1] - lo[1], 1e-12);
  double radius;
  if (planar) {
    radius = std::sqrt(3.0 * static_cast<double>(target) * area /
                       (3.14159265358979 * static_cast<double>(n) *
                        static_cast<double>(n)));
  } else {
    radius = std::cbrt(4.5 * static_cast<double>(target) * volume /
                       (4.18879 * static_cast<double>(n) *
                        static_cast<double>(n)));
  }
  // Cells are never smaller than one point's share of the box, so a
  // sparse request (few edges, many nodes: a tiny radius) still gets about
  // n cells instead of (extent / radius)^3. Any cell edge >= radius finds
  // the same in-range pairs, and so the same output.
  const double min_cell =
      planar ? std::sqrt(area / static_cast<double>(n))
             : std::cbrt(volume / static_cast<double>(n));

  // Boundary effects keep real counts at or below the expected count, so
  // one reservation usually serves every push.
  std::vector<Candidate> cands;
  cands.reserve(static_cast<std::size_t>(
      (planar ? 1.5 : 2.25) * static_cast<double>(target)));
  for (int attempt = 0; attempt < 24; ++attempt) {
    cands.clear();
    const double r2 = radius * radius;
    const double cell = std::max(radius, min_cell);
    auto cell_of = [&](const std::array<double, 3>& p, int d) {
      return static_cast<std::int64_t>(std::floor((p[d] - lo[d]) / cell));
    };
    const std::int64_t nx = cell_of(hi, 0) + 1;
    const std::int64_t ny = cell_of(hi, 1) + 1;
    const std::int64_t nz = cell_of(hi, 2) + 1;
    auto key = [&](std::int64_t cx, std::int64_t cy, std::int64_t cz) {
      return static_cast<std::size_t>((cx * ny + cy) * nz + cz);
    };
    auto key_of = [&](const std::array<double, 3>& p) {
      return key(cell_of(p, 0), cell_of(p, 1), cell_of(p, 2));
    };
    // Bucket points by cell (counting sort into a CSR layout). The
    // placement pass leaves start[c] at the end of cell c, so the offsets
    // are shifted back by one cell afterwards.
    const auto ncells = static_cast<std::size_t>(nx * ny * nz);
    std::vector<std::uint32_t> start(ncells + 1, 0);
    for (const auto& p : pts) ++start[key_of(p) + 1];
    for (std::size_t c = 1; c <= ncells; ++c) start[c] += start[c - 1];
    std::vector<std::uint32_t> bucket(n);
    for (std::uint32_t i = 0; i < n; ++i) bucket[start[key_of(pts[i])]++] = i;
    for (std::size_t c = ncells; c > 0; --c) start[c] = start[c - 1];
    start[0] = 0;

    // Pairs (bucket[s], bucket[t]) for t in [t0, t1). The distance is the
    // same bit for bit whichever endpoint comes first: (x-y)^2 == (y-x)^2.
    const auto add_pairs = [&](std::uint32_t s, std::uint32_t t0,
                               std::uint32_t t1) {
      const std::uint32_t i = bucket[s];
      const std::array<double, 3> p = pts[i];
      for (std::uint32_t t = t0; t < t1; ++t) {
        const std::uint32_t j = bucket[t];
        const double ddx = p[0] - pts[j][0];
        const double ddy = p[1] - pts[j][1];
        const double ddz = p[2] - pts[j][2];
        const double d2 = ddx * ddx + ddy * ddy + ddz * ddz;
        if (d2 <= r2)
          cands.push_back(Candidate{d2, std::min(i, j), std::max(i, j)});
      }
    };
    for (std::int64_t cx = 0; cx < nx; ++cx) {
      for (std::int64_t cy = 0; cy < ny; ++cy) {
        for (std::int64_t cz = 0; cz < nz; ++cz) {
          const std::size_t c = key(cx, cy, cz);
          const std::uint32_t b = start[c], e = start[c + 1];
          if (b == e) continue;
          for (std::uint32_t s = b; s < e; ++s) add_pairs(s, s + 1, e);
          for (const auto& d : kForwardCells) {
            const std::int64_t ox = cx + d[0], oy = cy + d[1], oz = cz + d[2];
            if (oy < 0 || oz < 0 || ox >= nx || oy >= ny || oz >= nz)
              continue;
            const std::size_t o = key(ox, oy, oz);
            for (std::uint32_t s = b; s < e; ++s)
              add_pairs(s, start[o], start[o + 1]);
          }
        }
      }
    }
    if (cands.size() >= target) break;
    radius *= 1.35;
  }
  ER_CHECK_MSG(cands.size() >= target,
               "could not find enough candidate pairs");

  // Pairs are unique, so (dist2, a, b) is a strict total order and the
  // `target` smallest form one well-defined set.
  std::nth_element(cands.begin(),
                   cands.begin() + static_cast<std::ptrdiff_t>(target),
                   cands.end(), [](const Candidate& x, const Candidate& y) {
                     return std::tie(x.dist2, x.a, x.b) <
                            std::tie(y.dist2, y.a, y.b);
                   });
  // Order edges by endpoint, the way mesh generators and neighbour-list
  // builders emit them: iteration order then correlates with node
  // numbering, which is what makes a *block* distribution of iterations
  // spatially coherent (and the paper's block-vs-cyclic contrast real).
  // Counting sort by `a`, then each node's short run by `b`.
  std::vector<std::uint64_t> run_end(static_cast<std::size_t>(n) + 1, 0);
  for (std::uint64_t e = 0; e < target; ++e) ++run_end[cands[e].a + 1];
  for (std::uint32_t a = 1; a <= n; ++a) run_end[a] += run_end[a - 1];
  std::vector<Edge> edges(target);
  for (std::uint64_t e = 0; e < target; ++e)
    edges[run_end[cands[e].a]++] = Edge{cands[e].a, cands[e].b};
  auto run = edges.begin();
  for (std::uint32_t a = 0; a < n; ++a) {
    const auto next = edges.begin() + static_cast<std::ptrdiff_t>(run_end[a]);
    std::sort(run, next, [](Edge x, Edge y) { return x.b < y.b; });
    run = next;
  }
  return edges;
}

}  // namespace

Mesh make_geometric_mesh(const GeomMeshParams& p) {
  ER_EXPECTS(p.num_nodes >= 2);
  Xoshiro256 rng(p.seed);
  // 3D points: the paper's euler dataset has the edge density of a
  // tetrahedral (3D) mesh, and 3D numbering locality (bandwidth ~ n^(2/3))
  // is what a real unstructured CFD mesh exhibits.
  std::vector<std::array<double, 3>> pts(p.num_nodes);
  for (auto& pt : pts) pt = {rng.uniform(), rng.uniform(), rng.uniform()};

  // Spatially coherent numbering: sort points into slab-major cells, the
  // way mesh generators emit nodes.
  const auto grid = static_cast<std::uint32_t>(std::max(
      1.0, std::floor(std::cbrt(static_cast<double>(p.num_nodes) / 8.0))));
  std::sort(pts.begin(), pts.end(),
            [&](const std::array<double, 3>& a, const std::array<double, 3>& b) {
              const auto za = static_cast<std::uint32_t>(a[2] * grid);
              const auto zb = static_cast<std::uint32_t>(b[2] * grid);
              if (za != zb) return za < zb;
              const auto ya = static_cast<std::uint32_t>(a[1] * grid);
              const auto yb = static_cast<std::uint32_t>(b[1] * grid);
              if (ya != yb) return ya < yb;
              return a[0] < b[0];
            });

  Mesh m;
  m.num_nodes = p.num_nodes;
  m.coords = std::move(pts);
  m.edges = k_shortest_pairs(m.coords, p.num_edges);
  m.validate();
  return m;
}

Mesh euler_mesh_small() {
  return make_geometric_mesh(GeomMeshParams{2800, 17377, 20020415});
}

Mesh euler_mesh_large() {
  return make_geometric_mesh(GeomMeshParams{9428, 59863, 20020416});
}

Mesh make_moldyn_lattice(const MoldynParams& p) {
  ER_EXPECTS(p.cells_per_side >= 2);
  Xoshiro256 rng(p.seed);
  // FCC basis within a unit cell.
  static constexpr std::array<std::array<double, 3>, 4> kBasis{{
      {0.0, 0.0, 0.0},
      {0.5, 0.5, 0.0},
      {0.5, 0.0, 0.5},
      {0.0, 0.5, 0.5},
  }};
  Mesh m;
  const std::uint32_t c = p.cells_per_side;
  m.num_nodes = 4u * c * c * c;
  m.coords.reserve(m.num_nodes);
  for (std::uint32_t x = 0; x < c; ++x)
    for (std::uint32_t y = 0; y < c; ++y)
      for (std::uint32_t z = 0; z < c; ++z)
        for (const auto& b : kBasis)
          m.coords.push_back({static_cast<double>(x) + b[0] +
                                  rng.uniform(-p.jitter, p.jitter),
                              static_cast<double>(y) + b[1] +
                                  rng.uniform(-p.jitter, p.jitter),
                              static_cast<double>(z) + b[2] +
                                  rng.uniform(-p.jitter, p.jitter)});
  m.edges = k_shortest_pairs(m.coords, p.num_interactions);
  m.validate();
  return m;
}

Mesh moldyn_small() {
  return make_moldyn_lattice(MoldynParams{9, 26244, 0.05, 19941122});
}

Mesh moldyn_large() {
  return make_moldyn_lattice(MoldynParams{14, 65856, 0.05, 19941123});
}

void jitter_coords(Mesh& m, double sigma, Xoshiro256& rng) {
  ER_EXPECTS(!m.coords.empty());
  for (auto& p : m.coords) {
    // Box-Muller pairs; the third component reuses a fresh pair's first.
    for (int d = 0; d < 3; ++d) {
      const double u1 = std::max(rng.uniform(), 1e-300);
      const double u2 = rng.uniform();
      p[d] += sigma * std::sqrt(-2.0 * std::log(u1)) *
              std::cos(2.0 * 3.14159265358979 * u2);
    }
  }
}

void rebuild_interactions(Mesh& m, std::uint64_t num_edges) {
  ER_EXPECTS(!m.coords.empty());
  std::vector<Edge> fresh = k_shortest_pairs(m.coords, num_edges);
  if (m.edges.size() != num_edges) {
    m.edges = std::move(fresh);
    m.validate();
    return;
  }
  // Incremental neighbour-list maintenance: pairs that survive the rebuild
  // keep their old slot; dropped pairs' slots are refilled with the new
  // pairs in (a, b) order. This keeps the iteration->pair mapping stable so
  // downstream incremental preprocessing (update_light_inspector) touches
  // only the interactions that actually changed.
  const auto by_pair = [](Edge x, Edge y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  };
  std::vector<bool> kept(fresh.size(), false);
  std::size_t survivors = 0;
  std::vector<std::size_t> vacated;
  for (std::size_t i = 0; i < m.edges.size(); ++i) {
    const auto it =
        std::lower_bound(fresh.begin(), fresh.end(), m.edges[i], by_pair);
    const auto f = static_cast<std::size_t>(it - fresh.begin());
    if (it != fresh.end() && *it == m.edges[i] && !kept[f]) {
      kept[f] = true;
      ++survivors;
    } else {
      vacated.push_back(i);
    }
  }
  ER_ENSURES(vacated.size() == fresh.size() - survivors);
  std::size_t f = 0;
  for (const std::size_t slot : vacated) {
    while (kept[f]) ++f;
    m.edges[slot] = fresh[f++];
  }
  m.validate();
}

std::vector<std::uint32_t> rewire_edges(Mesh& m, std::uint64_t count,
                                        std::uint64_t seed) {
  ER_EXPECTS_MSG(count <= m.edges.size(),
                 "cannot rewire more edges than the mesh has");
  ER_EXPECTS_MSG(m.num_nodes >= 2, "rewiring needs at least two nodes");
  Xoshiro256 rng(seed);

  // Sample `count` distinct slots (Floyd's algorithm: uniform without
  // needing a full permutation of the edge list).
  std::set<std::uint32_t> slots;
  const std::uint64_t n = m.edges.size();
  for (std::uint64_t j = n - count; j < n; ++j) {
    const std::uint32_t t = static_cast<std::uint32_t>(rng.below(j + 1));
    if (!slots.insert(t).second)
      slots.insert(static_cast<std::uint32_t>(j));
  }

  for (const std::uint32_t slot : slots) {
    const Edge old = m.edges[slot];
    Edge fresh;
    do {
      fresh.a = static_cast<std::uint32_t>(rng.below(m.num_nodes));
      fresh.b = static_cast<std::uint32_t>(rng.below(m.num_nodes));
      if (fresh.a > fresh.b) std::swap(fresh.a, fresh.b);
    } while (fresh.a == fresh.b || fresh == old);
    m.edges[slot] = fresh;
  }
  m.validate();
  return std::vector<std::uint32_t>(slots.begin(), slots.end());
}

}  // namespace earthred::mesh
