// linkbench_mix: min(4, nproc) closed-loop requesters issuing the paper's
// Table-6 LinkBench mix against a durable store (kBatched group commit),
// each drawing its own seed-derived stream that continues from warm-up into
// the timed phase. Every op's status is classified, the store is audited
// after the run, and it is then closed and reopened (snapshot load plus WAL
// replay) to check that sampled acknowledged writes read back.

#ifndef PERFBENCH_LINKBENCH_WORKLOAD_H_
#define PERFBENCH_LINKBENCH_WORKLOAD_H_

#include "common.h"

namespace perfbench {

RunResult RunLinkBench(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_LINKBENCH_WORKLOAD_H_
