// The Gremlin workload over the synthetic DBpedia graph:
//
//   gremlin_paged  13 selective shapes, start entity drawn per call, over
//                  paged storage whose buffer pool is well below the store's
//                  serialized size
//
// Expected answers come from the baseline pipe-at-a-time interpreter over
// baseline::NativeStore, computed in a separate process (oracle mode) so the
// oracle's time and memory never count against the system under test.

#ifndef PERFBENCH_GREMLIN_WORKLOADS_H_
#define PERFBENCH_GREMLIN_WORKLOADS_H_

#include "common.h"

namespace perfbench {

bool IsGremlinWorkload(const std::string& workload);

/// Oracle mode: regenerates the graph and the request stream from the seed,
/// evaluates every request with the baseline interpreter, and writes
/// `shape <TAB> expected count <TAB> gremlin text` lines to
/// options.expected_path. Returns a process exit code.
int RunGremlinOracle(const Options& options);

/// Measures one Gremlin workload against the oracle file.
RunResult RunGremlin(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_GREMLIN_WORKLOADS_H_
