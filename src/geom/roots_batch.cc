// The quad-cell kernel. Compiled with -ffp-contract=off (see
// src/geom/CMakeLists.txt): it must match the GCurve walk it replicates
// bit-for-bit, so the compiler must not fuse any multiply-add the walk
// performs as two rounded operations.

#include "geom/roots_batch.h"

#include <cmath>
#include <utility>

namespace modb {

double FirstPositiveQuadCell(double d0, double d1, double d2, double lo,
                             double hi, double tol) {
  // Trimmed degree, exactly as Polynomial::Trim classifies it (exact ==0.0,
  // so a -0.0 coefficient drops the degree the same way).
  double roots[2];
  int nroots = 0;
  if (d2 != 0.0) {
    // ClosedFormRoots, degree 2: stable q-form, larger-magnitude root first.
    const double disc = d1 * d1 - 4.0 * d2 * d0;
    if (disc == 0.0) {
      roots[nroots++] = -d1 / (2.0 * d2);
    } else if (disc > 0.0) {
      const double sq = std::sqrt(disc);
      const double q = -0.5 * (d1 + (d1 >= 0.0 ? sq : -sq));
      double r1 = q / d2;
      double r2 = (q == 0.0) ? r1 : d0 / q;
      if (r1 > r2) std::swap(r1, r2);
      roots[nroots++] = r1;
      if (r2 != r1) roots[nroots++] = r2;
    }
  } else if (d1 != 0.0) {
    roots[nroots++] = -d0 / d1;
  } else if (d0 == 0.0) {
    return kInf;  // Identically zero difference: no positive cell.
  }

  // Cell boundaries: lo plus in-window roots strictly beyond lo + tol
  // (ascending — ClosedFormRoots emits them sorted).
  double bounds[3];
  int nb = 0;
  bounds[nb++] = lo;
  for (int i = 0; i < nroots; ++i) {
    const double r = roots[i];
    if (r >= lo && r <= hi && r > lo + tol) bounds[nb++] = r;
  }

  for (int i = 0; i < nb; ++i) {
    const double start = bounds[i];
    double sample;
    if (i + 1 < nb) {
      sample = 0.5 * (start + bounds[i + 1]);
    } else if (std::isfinite(hi)) {
      sample = (start >= hi) ? hi : 0.5 * (start + hi);
    } else {
      sample = start + 1.0;  // All roots are among the boundaries.
    }
    // Trimmed Horner (same operation order as Polynomial::Eval).
    double value;
    if (d2 != 0.0) {
      value = (d2 * sample + d1) * sample + d0;
    } else if (d1 != 0.0) {
      value = d1 * sample + d0;
    } else {
      value = d0;
    }
    if (value > 0.0) return start;
  }
  return kInf;
}

void FirstPositiveQuadBatch(const QuadCellBatch& cells, size_t n, double tol,
                            double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = FirstPositiveQuadCell(cells.d0[i], cells.d1[i], cells.d2[i],
                                   cells.lo[i], cells.hi[i], tol);
  }
}

}  // namespace modb
