#ifndef MODB_GEOM_ROOTS_BATCH_H_
#define MODB_GEOM_ROOTS_BATCH_H_

#include <cstddef>

#include "geom/interval.h"
#include "geom/roots.h"

namespace modb {

// One quadratic cell problem: the difference d(t) = d2 t² + d1 t + d0 of
// two curve segments on the window [lo, hi] (hi may be +inf). The kernel
// answers the sweep primitive for that segment: the smallest t in the
// window at which d becomes strictly positive, or +inf if it never does.
//
// The cell logic is FirstTimeDifferencePositive's inner loop specialized to
// one merged segment of degree <= 2, arithmetic replicated operation for
// operation (closed-form roots in the stable q-form, the same boundary
// filter r > lo + tol, the same midpoint/tail sample rule and trimmed
// Horner), so pooled results are bit-identical to the legacy walk.
struct QuadCellBatch {
  const double* d0;
  const double* d1;
  const double* d2;
  const double* lo;
  const double* hi;
};

// Scalar reference for a single cell.
double FirstPositiveQuadCell(double d0, double d1, double d2, double lo,
                             double hi, double tol);

// Batched form over SOA cell planes: out[i] answers cell i.
void FirstPositiveQuadBatch(const QuadCellBatch& cells, size_t n, double tol,
                            double* out);

}  // namespace modb

#endif  // MODB_GEOM_ROOTS_BATCH_H_
