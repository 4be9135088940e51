/**
 * @file
 * Runtime SIMD kernel dispatch, after TFLite-Micro's replaceable-kernel
 * design: every hot inner loop (f32 GEMM, raw int8 GEMM, the LSH sign
 * pass and the patch-slice hashing sweep, gathered cluster sums, elementwise
 * add/scale, eval ReLU, BatchNorm and 2x2 max-pool, the non-finite
 * scan, the layout transpose, the reuse recovery and bias epilogues,
 * and the accuracy bound's power iteration) is reached through a
 * per-process ops table selected once at startup from CPU
 * capabilities, overridable with `GENREUSE_SIMD=scalar|avx2|neon`.
 *
 * Contract (see DESIGN.md "Kernel dispatch & arena"):
 *  - The scalar table is the always-on correctness oracle. It is
 *    compiled into every build and always selectable.
 *  - Vector implementations must be BIT-IDENTICAL to the scalar
 *    oracle, not merely close: they keep the scalar kernel's blocking
 *    and per-element operation order and use separate multiply/add
 *    (no FMA contraction), so each output element sees the exact same
 *    IEEE-754 op sequence. This is what lets the guard ladder's
 *    exact-GEMM rung stay bit-identical to the pre-dispatch output
 *    regardless of the level selected. The one exception: when both
 *    operands of an add or multiply are NaN, which payload comes out
 *    follows operand order, and a compiler may commute the operands.
 *  - Integer kernels are exact by construction.
 *
 * Levels that were not compiled in (or that the CPU lacks) silently
 * fall back to scalar with a one-shot warning when explicitly
 * requested via the environment.
 */

#ifndef GENREUSE_COMMON_SIMD_H
#define GENREUSE_COMMON_SIMD_H

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace genreuse::simd {

enum class Level : int { Scalar = 0, Avx2 = 1, Neon = 2 };

/**
 * The output pixels of a stride-1 convolution over a zero-padded
 * input, as offsets into it: @p images blocks of rows x cols pixels,
 * pixel (b, r, c) at b * imageStride + r * pitch + c.
 */
struct PatchGrid
{
    size_t images = 0;
    size_t rows = 0;
    size_t cols = 0;
    size_t pitch = 0; //!< padded row width, >= cols
    size_t imageStride = 0;

    size_t count() const { return images * rows * cols; }
};

/** One vertical slice's hash family for sliceSignatures: its element
 *  offsets and its h x len hyperplanes with their biases. */
struct SliceHash
{
    const uint32_t *off;
    size_t len;
    const float *v;
    const float *biases;
    size_t h;
};

/** The replaceable-kernel table. All pointers are always non-null. */
struct Ops
{
    const char *name; //!< "scalar" | "avx2" | "neon"
    Level level;

    /** C[MxN] (+)= A[MxK] * B[KxN], row-major, leading dims as given.
     *  Bit-identical across levels (see file comment). */
    void (*gemmF32)(const float *a, const float *b, float *c, size_t m,
                    size_t n, size_t k, size_t lda, size_t ldb, size_t ldc,
                    bool accumulate);

    /** C[MxN] = A[MxK] * B[KxN] with int32 accumulators and no
     *  zero-point handling (callers apply corrections). Exact. */
    void (*gemmInt8)(const int8_t *a, const int8_t *b, int32_t *c, size_t m,
                     size_t n, size_t k, size_t lda, size_t ldb, size_t ldc);

    /** dst[i] += src[i] for i in [0, n). */
    void (*addInto)(float *dst, const float *src, size_t n);

    /** dst[i] *= s for i in [0, n). */
    void (*scaleInPlace)(float *dst, float s, size_t n);

    /** LSH sign pass over row-major projections (count x h, ld = h):
     *  sigs[i] bit f = (proj[i*h + f] + biases[f] > 0). */
    void (*signProject)(const float *proj, const float *biases, size_t count,
                        size_t h, uint64_t *sigs);

    /** True when no p[i], i in [0, n), is NaN or +/-Inf. */
    bool (*allFinite)(const float *p, size_t n);

    /** Eval ReLU: dst[i] = src[i] > 0 ? src[i] : 0, so NaN and -0 map
     *  to +0 (the semantics of x86 max(x, 0)). */
    void (*relu)(const float *src, float *dst, size_t n);

    /**
     * LSH signatures of every vertical slice of the patches of a
     * stride-1 convolution, read in place from its zero-padded input
     * in one sweep. Item i = (b * rows + r) * cols + c of @p grid
     * starts at x + b * imageStride + r * pitch + c, and element j
     * (< len) of slice s is at that start + slices[s].off[j]. Bit f
     * (< h) of sigs[s * grid.count() + i] is (p + biases[f] > 0) with
     * p the projection onto row f of the slice's h x len matrix v,
     * summed exactly as gemmF32 sums the (count x len) x (len x h)
     * product: per 256-wide block of j, acc = 0 then acc += x * v with
     * j ascending, and the block sums added in order to p = 0.
     *
     * Vector levels may compute border lanes (flat positions r * pitch
     * + c with c >= cols) and drop them, so every flat position in
     * [0, (rows - 1) * pitch + cols) of each image, plus every offset,
     * must be readable, as it is in a padded stride-1 input.
     */
    void (*sliceSignatures)(const float *x, const PatchGrid &grid,
                            const SliceHash *slices, size_t ns,
                            uint64_t *sigs);

    /**
     * Unscaled cluster sums of gathered items, cluster by cluster:
     * element j (< len) of row c (< nc) of @p sums is
     * 0 + x[itemOff[m_1] + elemOff[j]] + x[itemOff[m_2] + elemOff[j]]
     * + ... over cluster c's members m_k = members[memberOffsets[c] ..
     * memberOffsets[c + 1]) in the order listed. That is the sequence
     * of zeroing the rows and adding each item into its cluster's row
     * in member order, so any member order within a cluster that
     * matches the item order gives the item-major loop's sums.
     */
    void (*clusterSums)(const float *x, const uint32_t *itemOff,
                        const uint32_t *elemOff, size_t len,
                        const size_t *memberOffsets, const uint32_t *members,
                        size_t nc, float *sums);

    /**
     * Eval max-pool, 2x2 window, stride 2, over @p planes consecutive
     * (ih x iw) planes into (oh x ow) planes (2 * oh <= ih,
     * 2 * ow <= iw): best = window (0,0), then best = v > best ? v :
     * best for v = (0,0), (0,1), (1,0), (1,1), so the first maximum
     * wins and a NaN at (0,0) sticks.
     */
    void (*maxPool2x2)(const float *src, size_t planes, size_t ih,
                       size_t iw, size_t oh, size_t ow, float *dst);

    /** dst = src^T for a row-major (rows x cols) @p src. A copy, so
     *  every level is trivially bit-identical. */
    void (*transpose)(const float *src, size_t rows, size_t cols,
                      float *dst);

    /**
     * Row-outer vertical recovery: row r (< n) of the row-major (n x m)
     * @p y is 0 + s_0 + s_1 + ... + s_{ns-1}, elementwise, with s_k =
     * row ids[k * n + r] of slice k's (clusters x m) centroid products
     * @p slices[k]. That is the sequence of zeroing the row and adding
     * each slice's centroid row into it, slices ascending.
     */
    void (*recoverRows)(const float *const *slices, const uint32_t *ids,
                        size_t ns, size_t n, size_t m, float *y);

    /** dst[c][r] = src[r][c] + bias[c] for a row-major (rows x cols)
     *  @p src: the per-column bias add and the transpose in one pass,
     *  one add per element with the source value as first operand. */
    void (*transposeBias)(const float *src, size_t rows, size_t cols,
                          const float *bias, float *dst);

    /** x[(b * channels + c) * hw + p] += bias[c] over @p batch images
     *  of @p channels (hw)-float planes. */
    void (*addChannelBias)(float *x, const float *bias, size_t batch,
                           size_t channels, size_t hw);

    /**
     * Eval BatchNorm over @p batch images of @p channels (hw)-float
     * planes, with running statistics: per channel c, is = 1 / sqrt(
     * var[c] + eps), then y = gamma[c] * ((x - mean[c]) * is) +
     * beta[c], each multiply and add rounded separately (no FMA).
     */
    void (*batchNormEval)(const float *x, size_t batch, size_t channels,
                          size_t hw, const float *mean, const float *var,
                          float eps, const float *gamma, const float *beta,
                          float *y);

    /**
     * Largest eigenvalue of the covariance (1/m) Σ_k d_k d_k^T of the
     * @p m rows d_k = dev + k * len (float deviations from a mean, in
     * member order), by @p maxIters steps of power iteration from the
     * unit vector @p v (len doubles, overwritten), with @p av (len
     * doubles) as scratch. Each step, in double with every float
     * widened exactly and no FMA: dot_k = 0 + d_k[0] v[0] + d_k[1] v[1]
     * + ... (j ascending); av[j] = 0 + d_0[j] dot_0 + d_1[j] dot_1 +
     * ... (k ascending); av[j] /= m; n = sqrt(0 + av[0]^2 + av[1]^2 +
     * ...); return 0 when n < 1e-12; λ = n; v[j] = av[j] / n. Returns
     * the last λ (0 after no step, or when m <= 1).
     */
    double (*lambdaMax)(const float *dev, size_t m, size_t len,
                        size_t maxIters, double *v, double *av);
};

/** True when @p level is compiled in AND supported by this CPU. */
bool available(Level level);

/** The level detect() would pick: the env override if valid, else the
 *  best available vector level, else scalar. */
Level detect();

/** The active table. Resolved once (first call) from detect();
 *  subsequent calls are a relaxed atomic load. */
const Ops &ops();

/** Explicit table for parity tests and benchmarks. Falls back to the
 *  scalar table when @p level is unavailable. */
const Ops &opsFor(Level level);

/** Level of the active table. */
Level activeLevel();

/** Force the active table (tests/benchmarks only; process-wide, not
 *  synchronized against concurrently running kernels). Returns
 *  InvalidArgument when @p level is unavailable. */
Status setActiveLevel(Level level);

const char *levelName(Level level);

/** Parse "scalar"/"avx2"/"neon"/"auto" (case-insensitive). Returns
 *  InvalidArgument on anything else. "auto" maps to detect()'s
 *  hardware choice and is reported as the best available level. */
Expected<Level> parseLevel(const char *s);

} // namespace genreuse::simd

#endif // GENREUSE_COMMON_SIMD_H
