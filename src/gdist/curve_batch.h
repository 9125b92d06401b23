#ifndef MODB_GDIST_CURVE_BATCH_H_
#define MODB_GDIST_CURVE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/curve_pool.h"
#include "geom/roots_batch.h"

namespace modb {

// Pooled crossing kernels: the sweep's "first time curve a rises above
// curve b" primitive over PolySegPool curves. Semantics and arithmetic
// mirror GCurve::FirstTimeAbove on the packed sources exactly — same
// window intersection, same merged-segment walk, same quadratic cell
// logic — so pooling an engine changes no answer bit (docs/KERNELS.md).

// `gdist.crossing_pooled`: scalar walk for one pair. Used for the single-
// pair repairs (insert/erase) and as the multi-segment fallback of the
// batched form.
std::optional<double> FirstCrossingPooled(const PolySegPool& pool,
                                          PolySegPool::CurveId a,
                                          PolySegPool::CurveId b, double lo,
                                          double hi,
                                          const RootOptions& options);

// A pair of pooled curves for the batched kernel.
struct CurvePairRef {
  PolySegPool::CurveId a = PolySegPool::kInvalidCurve;
  PolySegPool::CurveId b = PolySegPool::kInvalidCurve;
};

// Reused staging buffers for FirstCrossingBatch (SOA cell planes plus the
// per-pair walk cursors); owning one per sweep keeps the hot path
// allocation-free.
struct CrossingScratch {
  std::vector<double> d0, d1, d2, lo, hi, res;
  struct Cursor {
    double cursor;
    double window_hi;
    uint32_t ia, ib;
    uint32_t pair;
  };
  std::vector<Cursor> cursors, next_cursors;
};

// `gdist.crossing_batch`: answers all `n` pairs in SOA passes through the
// quad-cell kernel (adjacency repair batches the <= 3 pairs of an
// event; Theorem-10 rebuild batches all N-1 adjacent pairs). out[i] is the
// crossing time or +inf when pair i never crosses in (lo, hi].
void FirstCrossingBatch(const PolySegPool& pool, const CurvePairRef* pairs,
                        size_t n, double lo, double hi,
                        const RootOptions& options, double* out,
                        CrossingScratch* scratch);

// Registry of every batched kernel entry point; docs/KERNELS.md documents
// exactly this set (enforced by KernelsDocMatchesRegistry).
struct KernelInfo {
  const char* name;  // e.g. "gdist.crossing_batch"
  const char* summary;
};
const std::vector<KernelInfo>& KernelRegistry();

}  // namespace modb

#endif  // MODB_GDIST_CURVE_BATCH_H_
