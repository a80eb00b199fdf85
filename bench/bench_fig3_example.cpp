// Figure 3: the LightInspector worked example — 8 nodes, 20 edges,
// 2 processors, k = 2, processor 0 holding edges 0..9.
//
// The paper's figure shows the inspector's inputs (indir1_in/indir2_in)
// and outputs (the phase partition, the rewritten indirection arrays with
// buffer locations >= 8, and the second-loop copy arrays). This bench
// reconstructs the same setting and prints the full input/output so the
// figure can be compared structurally: 4 phases per processor, 2-node
// portions, remote buffer starting at location 8, deferred references
// redirected to 8, 9, ...
#include <cstdio>
#include <iostream>

#include "inspector/light_inspector.hpp"
#include "inspector/rotation.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

int main() {
  using namespace earthred;

  // A 20-edge mesh over 8 nodes; processor 0 owns edges 0..9 (block).
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges = {
      {0, 1}, {2, 3}, {0, 2}, {4, 5}, {6, 7},  // edges 0-4
      {1, 6}, {3, 5}, {7, 4}, {2, 6}, {0, 7},  // edges 5-9
  };

  const inspector::RotationSchedule sched(8, 2, 2);
  std::printf("Figure 3 setting: 8 nodes, 2 processors, k=2 -> %u phases, "
              "%u nodes per portion, remote buffer starts at location 8\n\n",
              sched.phases_per_sweep(), sched.portion_size(0));

  inspector::IterationRefs refs;
  refs.refs.resize(2);
  for (std::uint32_t e = 0; e < edges.size(); ++e) {
    refs.global_iter.push_back(e);
    refs.refs[0].push_back(edges[e].first);
    refs.refs[1].push_back(edges[e].second);
  }

  Table in("LightInspector input (processor 0)");
  in.set_header({"edge", "indir1_in", "indir2_in"});
  for (std::uint32_t e = 0; e < edges.size(); ++e)
    in.add_row({std::to_string(e), std::to_string(edges[e].first),
                std::to_string(edges[e].second)});
  in.print(std::cout);

  const inspector::InspectorResult res =
      inspector::run_light_inspector(sched, 0, refs);

  Table out("LightInspector output (processor 0)");
  out.set_header({"phase", "edges (iters_out)", "indir1_out", "indir2_out",
                  "copy_dst", "copy_src"});
  for (std::uint32_t ph = 0; ph < res.phases.size(); ++ph) {
    const auto& phase = res.phases[ph];
    auto join = [](std::span<const std::uint32_t> v) {
      std::string s;
      for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + std::to_string(v[i]);
      return s.empty() ? "-" : s;
    };
    out.add_row({std::to_string(ph), join(phase.iter_global),
                 join(phase.row(0)), join(phase.row(1)),
                 join(phase.copy_dst), join(phase.copy_src)});
  }
  out.print(std::cout);

  std::printf("\n%u buffer locations allocated (array extended from 8 to "
              "%llu);\nindir values >= 8 are deferred references; each "
              "appears once in a copy_src,\nfolded during the phase owning "
              "its copy_dst.\n",
              res.num_buffer_slots,
              static_cast<unsigned long long>(res.local_array_size));
  return 0;
}
